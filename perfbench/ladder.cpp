// The traced run: a ladder of calls into each module's public
// functions (ff, ec, poly, pairing, r1cs, snark, stark, common, serve),
// at the sizes and thread counts of the workload each rung feeds.
// Every traced run climbs the whole ladder, so each per-layer metric
// means the same thing whichever workload names the run.

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "ec/curve.h"
#include "ec/fixed_base.h"
#include "ec/groups.h"
#include "ec/msm.h"
#include "ff/params.h"
#include "obs/trace.h"
#include "pairing/pairing.h"
#include "poly/domain.h"
#include "stark/field.h"
#include "stark/hash.h"
#include "stark/merkle.h"
#include "workloads.h"

namespace zkbench {

namespace {

using Fr = zkp::ff::bn254::Fr;
using Fq = zkp::ff::bn254::Fq;
using G1 = zkp::ec::Bn254G1;
using zkp::stark::Gl;

/** Distinct points G, 2G, ..., nG (cheap, and as costly to add as
 *  random points). */
template <typename Group>
std::vector<typename Group::Affine>
points(std::size_t n)
{
    using Jac = typename Group::Jacobian;
    const Jac g{Group::generator()};
    std::vector<Jac> jac(n);
    Jac acc = g;
    for (auto& p : jac) {
        p = acc;
        acc += g;
    }
    return zkp::ec::batchToAffine(jac);
}

std::vector<Fr::Repr>
scalars(std::size_t n, zkp::Rng& rng)
{
    std::vector<Fr::Repr> out(n);
    for (auto& s : out)
        s = Fr::random(rng).toBigInt();
    return out;
}

volatile std::uint64_t gSink;

/** Prove times of rounds run with the program's ZKP_TRACE spans off
 *  and on, alternating; round 0 is warm-up. */
struct Alternation
{
    Samples plain, traced, witness;
};

template <typename Bench>
Alternation
alternate(Bench& bench, Result& res)
{
    Alternation out;
    for (std::uint64_t r = 0; r < 7; ++r) {
        const bool tr = r % 2 == 0 && r > 0;
        if (tr)
            zkp::obs::startTracing("");
        const RoundTimes rt = bench.round(r, 2, res);
        if (tr) {
            zkp::obs::stopTracing();
            zkp::obs::clearTrace();
        }
        if (r == 0)
            continue;
        (tr ? out.traced : out.plain).add(rt.prove);
        out.witness.add(rt.witness);
    }
    return out;
}

} // namespace

void
runLadder(const Options& opt, Result& res)
{
    Spans::instance().enable(true);
    zkp::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 5);
    const std::size_t n = std::size_t(1) << opt.log2;
    const std::size_t t = kThreads;
    char line[256];

    // --- common: cost of entering an (empty) parallel region --------
    {
        const std::size_t regions = 2000;
        const double s = timed("common.region_entry", 3, [&] {
            for (std::size_t i = 0; i < regions; ++i)
                zkp::parallelFor(t, t, [](std::size_t, std::size_t,
                                          std::size_t) {});
        });
        res.set("common.region_entry_us", s / regions * 1e6, "us");
    }

    // --- ff: L0 multiplies ------------------------------------------
    {
        const std::size_t chain = 1 << 20;
        Fq a = Fq::random(rng);
        const Fq b = Fq::random(rng);
        const double s = timed("ff.fq_mul", 5, [&] {
            for (std::size_t i = 0; i < chain; ++i)
                a = a * b;
        });
        gSink = a.toBigInt().limbs[0];
        res.set("ff.fq_mul_ns", s / chain * 1e9, "ns");

        const std::size_t len = 4096, reps = 256;
        std::vector<Fr> x(len), y(len), z(len);
        for (std::size_t i = 0; i < len; ++i) {
            x[i] = Fr::random(rng);
            y[i] = Fr::random(rng);
        }
        const double sb = timed("ff.fr_mulbatch", 5, [&] {
            for (std::size_t r = 0; r < reps; ++r)
                Fr::mulBatch(z.data(), x.data(), y.data(), len);
        });
        gSink = z[len - 1].toBigInt().limbs[0];
        res.set("ff.fr_mulbatch_ns", sb / (len * reps) * 1e9, "ns");

        Gl g = Gl::random(rng);
        const Gl h = Gl::random(rng);
        const double sg = timed("ff.gl_mul", 5, [&] {
            for (std::size_t i = 0; i < chain; ++i)
                g = g * h;
        });
        gSink = g.value();
        res.set("ff.gl_mul_ns", sg / chain * 1e9, "ns");
    }

    // --- ec: the serve-sized MSM and fixed-base encoding ------------
    // (The prove-sized MSMs are timed on the Groth16 proving key below.)
    {
        const auto sc = scalars(n, rng);
        const std::size_t ns = opt.serveExpScale;
        const auto p1 = points<G1>(ns);
        res.set("ec.msm_g1_2e12_s", timed("ec.msm_g1_serve", 5, [&] {
                    gSink = zkp::ec::msmCurve<G1>(p1.data(), sc.data(), ns,
                                                  kServeProveThreads)
                                .isInfinity();
                }),
                "s");

        using Jac = G1::Jacobian;
        const zkp::ec::FixedBaseTable<Jac, Fr::Repr> table{
            Jac{G1::generator()}};
        res.set("ec.fixed_base_s", timed("ec.fixed_base", 3, [&] {
                    std::vector<Jac> out(n);
                    zkp::parallelFor(n, t,
                                     [&](std::size_t, std::size_t lo,
                                         std::size_t hi) {
                                         for (std::size_t i = lo; i < hi;
                                              ++i)
                                             out[i] = table.mul(sc[i]);
                                     });
                    gSink = zkp::ec::batchToAffine(out).size();
                }),
                "s");
    }

    // --- poly: Fr NTTs of the Groth16 prover, Goldilocks LDE --------
    {
        zkp::poly::Domain<Fr> dom(n);
        std::vector<Fr> v(n);
        for (auto& e : v)
            e = Fr::random(rng);
        res.set("poly.ntt_s",
                timed("poly.ntt", 5, [&] { dom.ntt(v, t); }), "s");
        res.set("poly.coset_intt_s",
                timed("poly.coset_intt", 5, [&] { dom.cosetIntt(v, t); }),
                "s");

        const std::size_t N = 8 * n; // default StarkParams blowup
        zkp::poly::Domain<Gl> trace(n), lde(N);
        std::vector<Gl> col(n);
        for (auto& e : col)
            e = Gl::random(rng);
        res.set("poly.gl_lde_s", timed("poly.gl_lde", 5, [&] {
                    std::vector<Gl> c = col;
                    trace.intt(c, kThreads);
                    c.resize(N);
                    lde.cosetNtt(c, kThreads);
                    gSink = c[N - 1].value();
                }),
                "s");
    }

    // --- pairing ----------------------------------------------------
    {
        using Engine = zkp::pairing::Bn254Engine;
        const auto p = (G1::Jacobian{G1::generator()}.mulScalar(
                            Fr::random(rng).toBigInt()))
                           .toAffine();
        const auto q = zkp::ec::Bn254G2::generator();
        Engine::Fq12 f;
        res.set("pairing.miller_loop_s", timed("pairing.miller_loop", 20,
                                               [&] {
                                                   f = Engine::millerLoop(
                                                       p, q);
                                               }),
                "s");
        res.set("pairing.final_exp_s", timed("pairing.final_exp", 20, [&] {
                    gSink = Engine::finalExponentiation(f) ==
                            Engine::Fq12::one();
                }),
                "s");
    }

    // --- stark: SHA-256 node hash and Merkle commit -----------------
    {
        const std::size_t chain = 1 << 16;
        zkp::stark::Digest d{}, e{};
        e[0] = 1;
        const double s = timed("stark.hash_node", 3, [&] {
            for (std::size_t i = 0; i < chain; ++i)
                d = zkp::stark::hashPair(d, e);
        });
        gSink = d[0];
        res.set("stark.hash_node_ns", s / chain * 1e9, "ns");

        const std::size_t N = 8 * n;
        std::vector<Gl> rows(N);
        for (auto& r : rows)
            r = Gl::random(rng);
        res.set("stark.merkle_build_s", timed("stark.merkle_build", 3, [&] {
                    gSink = zkp::stark::MerkleTree::fromRows(
                                rows.data(), N, 1, kThreads)
                                .root()[0];
                }),
                "s");
    }

    // --- L3: the batch provers, untraced and traced rounds alternate -
    double overhead[2] = {0, 0};
    {
        Groth16Bench g(opt);
        {
            Scope sp("snark.setup");
            g.setup();
        }
        res.set("r1cs.compile_s", g.compileSeconds(), "s");
        const Alternation alt = alternate(g, res);
        res.set("r1cs.witness_s", alt.witness.median(), "s");
        Samples deser;
        for (int i = 0; i < 20; ++i)
            deser.add(g.deserializeSeconds(res));
        res.set("snark.deserialize_s", deser.median(), "s");

        const ProveMsms msm = g.msmSeconds(3);
        res.set("ec.msm_g1_s", msm.a, "s");
        res.set("ec.msm_g2_s", msm.b2, "s");
        std::snprintf(line, sizeof line,
                      "# prove MSMs: A %.4f  B1 %.4f  L %.4f  H %.4f  B2 "
                      "%.4f s",
                      msm.a, msm.b1, msm.l, msm.h, msm.b2);
        res.note(line);

        // Groth16 prove = witness + 4 G1 MSMs (A, B1, L, H) + 1 G2 MSM
        // + 6 NTTs (3 intt, 3 coset ntt) + 1 coset intt.
        const auto& m = res.metrics;
        const double explained =
            alt.witness.median() + msm.a + msm.b1 + msm.l + msm.h +
            msm.b2 + 6 * m.at("poly.ntt_s").value +
            m.at("poly.coset_intt_s").value;
        res.set("snark.prove_explained_frac",
                explained / alt.plain.median(), "ratio");
        overhead[0] = alt.traced.median() / alt.plain.median() - 1;
        std::snprintf(line, sizeof line,
                      "# groth16 prove %.4f s untraced, %.4f s traced",
                      alt.plain.median(), alt.traced.median());
        res.note(line);
    }
    {
        StarkBench s(opt);
        const Alternation alt = alternate(s, res);
        // STARK prove ~ LDE + Merkle commits of the trace and of the
        // committed FRI layers.
        const auto& m = res.metrics;
        const double explained =
            m.at("poly.gl_lde_s").value +
            m.at("stark.merkle_build_s").value * s.merkleLeavesPerLdeRow();
        res.set("stark.prove_explained_frac",
                explained / alt.plain.median(), "ratio");
        overhead[1] = alt.traced.median() / alt.plain.median() - 1;
        std::snprintf(line, sizeof line,
                      "# stark prove %.4f s untraced, %.4f s traced",
                      alt.plain.median(), alt.traced.median());
        res.note(line);
    }
    res.set("obs.trace_overhead_frac", std::max(overhead[0], overhead[1]),
            "ratio");
    std::snprintf(line, sizeof line,
                  "# trace overhead: groth16 %+.4f, stark %+.4f (reported: "
                  "the larger)",
                  overhead[0], overhead[1]);
    res.note(line);

    // --- L4: a short open-loop burst --------------------------------
    {
        Result e2e; // its end-to-end numbers are not per-layer metrics
        const ServeLayers l =
            runOpenLoop(opt, opt.ladderServeSeconds, 1, e2e);
        res.attempted += e2e.attempted;
        res.failed += e2e.failed;
        for (const auto& note : e2e.notes)
            res.note(note);
        res.set("serve.queue_wait_p50_s", l.queueWaitP50, "s");
        res.set("serve.exec_prove_p50_s", l.execProveP50, "s");
        res.set("serve.serialize_p50_s", l.serializeP50, "s");
        res.set("serve.verify_batch_mean", l.verifyBatchMean, "count");
        res.set("serve.refused", l.refused, "count");
        res.set("serve.key_builds", l.keyBuilds, "count");
        res.set("serve.gen_late_p95_s", l.genLateP95, "s");
    }

    // Self time per layer, from the benchmark's own spans.
    for (const auto& [layer, secs] : Spans::instance().selfSecondsByLayer()) {
        std::snprintf(line, sizeof line, "# self time %-8s %10.4f s",
                      layer.c_str(), secs);
        res.note(line);
    }
    if (!opt.spansOut.empty() && !Spans::instance().write(opt.spansOut)) {
        res.note("# could not write spans to " + opt.spansOut);
        res.check(false);
    }
}

} // namespace zkbench
