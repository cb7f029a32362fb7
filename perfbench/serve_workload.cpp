// serve-groth16-open: an in-process serve::ProofService fed by a
// seeded open-loop (Poisson) generator on the benchmark's own thread.
//
// It runs in-process rather than over zkperfd's socket because the
// daemon serves one request at a time per connection, so a handful of
// connections could never build a queue.

#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "r1cs/zoo.h"
#include "serve/circuit_host.h"
#include "serve/service.h"
#include "snark/curve.h"
#include "snark/serialize.h"
#include "workloads.h"

namespace zkbench {

namespace {

using Curve = zkp::snark::Bn254;
using Scheme = zkp::snark::Groth16<Curve>;
using Fr = Curve::Fr;
using zkp::serve::ProofService;
using zkp::serve::Response;
using zkp::serve::Status;
using Bytes = std::vector<std::uint8_t>;

struct Circuit
{
    std::string name, zoo;
    std::size_t scale = 0;
};

std::vector<Circuit>
circuits(const Options& o)
{
    return {{"exp:" + std::to_string(o.serveExpScale), "exp",
             o.serveExpScale},
            {"poseidon:" + std::to_string(o.servePoseidonScale),
             "poseidon", o.servePoseidonScale}};
}

zkp::serve::CircuitHost
host(const Circuit& c)
{
    // Keys build with the prove width, as zkperfd does.
    return zkp::serve::makeZooHost<Curve>(c.name, c.zoo, c.scale, 2024,
                                          kServeProveThreads);
}

/** Service start until both circuits' keys are built. */
std::unique_ptr<ProofService>
startService(const Options& o, double& seconds)
{
    const auto t0 = Clock::now();
    zkp::serve::ServiceConfig cfg;
    cfg.workers = kServeWorkers;
    cfg.proveThreads = kServeProveThreads;
    auto svc = std::make_unique<ProofService>(cfg);
    for (const auto& c : circuits(o)) {
        svc->registerCircuit(host(c));
        svc->prewarm(c.name);
    }
    seconds = secondsBetween(t0, Clock::now());
    return svc;
}

struct Request
{
    double due = 0; ///< seconds after the schedule's start
    bool prove = true;
    bool tampered = false;
    std::size_t circuit = 0;
    Bytes pub, priv;
};

/** Uniform double in [0, 1) from the top 53 bits. */
double
unit(zkp::Rng& rng)
{
    return double(rng.next() >> 11) * 0x1.0p-53;
}

/** One valid proof per circuit (and its tampered twin) for verifies. */
struct VerifyInputs
{
    Bytes pub, proof, bad;
};

} // namespace

ServeLayers
runOpenLoop(const Options& o, double seconds, std::size_t setupReps,
            Result& res)
{
    const auto cs = circuits(o);
    Samples setup;
    std::unique_ptr<ProofService> svc;
    for (std::size_t i = 0; i < setupReps; ++i) {
        svc.reset();
        double s = 0;
        {
            Scope sp("serve.setup");
            svc = startService(o, s);
        }
        setup.add(s);
    }

    // Schedule: Poisson arrivals; proves and verifies 3:1 in a fixed
    // cycle, circuits drawn uniformly, every tamperEvery-th verify
    // carries a tampered proof.
    zkp::Rng rng(o.seed * 0x2545f4914f6cdd1dULL + 77);
    std::vector<Request> reqs;
    std::size_t verifies = 0;
    for (double t = -std::log1p(-unit(rng)) / o.rate; t < seconds;
         t += -std::log1p(-unit(rng)) / o.rate) {
        Request q;
        q.due = t;
        q.prove = reqs.size() % 4 != 3;
        q.circuit = rng.next() & 1;
        if (q.prove) {
            const auto* e = zkp::r1cs::zoo::find<Fr>(cs[q.circuit].zoo);
            const auto w = e->sample(cs[q.circuit].scale, rng);
            q.pub = zkp::serve::encodeScalars(w.pub);
            q.priv = zkp::serve::encodeScalars(w.priv);
        } else {
            q.tampered = verifies++ % kTamperEvery == kTamperEvery - 1;
        }
        reqs.push_back(std::move(q));
    }

    // Warm-up (not timed): one prove per circuit through the service,
    // whose proofs the verify requests then carry.
    std::vector<VerifyInputs> vin(cs.size());
    for (std::size_t c = 0; c < cs.size(); ++c) {
        const auto* e = zkp::r1cs::zoo::find<Fr>(cs[c].zoo);
        zkp::Rng wr(o.seed + 991 * (c + 1));
        const auto w = e->sample(cs[c].scale, wr);
        vin[c].pub = zkp::serve::encodeScalars(w.pub);
        Response r =
            svc->submitProve(cs[c].name, vin[c].pub,
                             zkp::serve::encodeScalars(w.priv))
                .result.get();
        res.check(r.status == Status::Ok);
        vin[c].proof = r.proof;
        auto p = zkp::snark::deserializeProofAny<Curve>(r.proof);
        res.check(p.has_value());
        if (p) {
            p->c = (Scheme::G1Jac{p->c} +
                    Scheme::G1Jac{Scheme::G1::generator()})
                       .toAffine();
            vin[c].bad = zkp::snark::serializeProofFramed<Curve>(*p);
        }
    }

    // Generator: one thread, sends each request at its due time; all
    // latencies count from the due time.
    Scope loop("serve.open_loop");
    std::vector<ProofService::Ticket> tickets;
    tickets.reserve(reqs.size());
    std::vector<Clock::time_point> due(reqs.size());
    Samples late;
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto& q = reqs[i];
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(q.due));
        std::this_thread::sleep_until(due[i]);
        late.add(secondsBetween(due[i], Clock::now()));
        const auto& c = cs[q.circuit];
        if (q.prove) {
            tickets.push_back(svc->submitProve(c.name, q.pub, q.priv));
        } else {
            zkp::serve::RequestOptions ro;
            ro.priority = zkp::serve::Priority::Batch;
            const auto& v = vin[q.circuit];
            tickets.push_back(svc->submitVerify(
                c.name, v.pub, q.tampered ? v.bad : v.proof, ro));
        }
    }

    Samples prove, verify, tampered, queue, exec, ser, batch;
    std::vector<std::pair<Bytes, Bytes>> outputs; // (pub, proof)
    outputs.reserve(reqs.size());
    std::vector<std::size_t> outputCircuit;
    std::size_t proofSize = 0;
    bool sizesAgree = true;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto& q = reqs[i];
        Response r = tickets[i].result.get();
        const bool answered = r.status == Status::Ok;
        const double lat =
            answered ? secondsBetween(due[i], r.timeline.replied) : 0;
        const int rid = Spans::instance().add(
            q.prove ? "serve.prove" : "serve.verify", due[i],
            answered ? r.timeline.replied : due[i], loop.id());
        if (answered) {
            const auto& tl = r.timeline;
            Spans::instance().add("serve.queue", tl.admitted, tl.dequeued,
                                  rid);
            Spans::instance().add("serve.key", tl.dequeued, tl.keyReady,
                                  rid);
            Spans::instance().add("serve.exec", tl.keyReady, tl.executed,
                                  rid);
            Spans::instance().add("serve.serialize", tl.executed,
                                  tl.serialized, rid);
        }
        if (q.prove) {
            // Correctness of proves is settled after the run.
            if (!answered) {
                res.checkTimed(false, 0, kSloProve);
                continue;
            }
            prove.add(lat);
            queue.add(r.queueSeconds);
            exec.add(r.execSeconds);
            ser.add(r.serializeSeconds);
            if (proofSize && proofSize != r.proof.size())
                sizesAgree = false;
            proofSize = r.proof.size();
            outputs.emplace_back(q.pub, std::move(r.proof));
            outputCircuit.push_back(q.circuit);
        } else {
            const bool ok = answered && r.valid == !q.tampered;
            res.checkTimed(ok, lat, kSloVerify);
            if (answered) {
                (q.tampered ? tampered : verify).add(lat);
                batch.add(r.batchSize);
            }
        }
    }
    const auto stats = svc->stats();
    svc->drain();

    // Every returned proof must verify against keys built here from the
    // same deterministic setup seed.
    for (std::size_t c = 0; c < cs.size(); ++c) {
        const auto h = host(cs[c]);
        const auto built = h.build();
        std::vector<zkp::serve::VerifyItem> items;
        std::vector<std::size_t> idx;
        for (std::size_t k = 0; k < outputs.size(); ++k) {
            if (outputCircuit[k] != c)
                continue;
            zkp::serve::VerifyItem it;
            it.publicInputs = &outputs[k].first;
            it.proof = &outputs[k].second;
            items.push_back(it);
            idx.push_back(k);
        }
        if (!items.empty())
            h.verify(built.value.get(), items);
        for (std::size_t j = 0; j < items.size(); ++j) {
            const bool ok =
                items[j].status == Status::Ok && items[j].valid;
            res.checkTimed(ok, prove.v[idx[j]], kSloProve);
        }
    }
    res.check(sizesAgree && proofSize > 0);

    ServeLayers l;
    l.queueWaitP50 = queue.median();
    l.execProveP50 = exec.median();
    l.serializeP50 = ser.median();
    l.verifyBatchMean = batch.mean();
    l.genLateP95 = late.quantile(0.95);
    l.refused = (double)stats.rejectedQueueFull;
    l.keyBuilds = (double)stats.cache.builds;
    const bool onTime = l.genLateP95 <= kMaxGenLateP95;
    res.check(onTime);
    res.check(stats.cache.builds == cs.size());

    double pct = 0;
    res.set("setup_s", setup.median(), "s");
    res.set("prove_s", prove.median(), "s");
    res.set("prove_tail_s", prove.tail(pct), "s");
    res.set("verify_s", verify.median(), "s");
    res.set("slo_frac", res.sloFrac(), "ratio");
    char line[320];
    std::snprintf(
        line, sizeof line,
        "# open loop %.2f req/s for %.0f s: sent %zu, prove %zu "
        "(tail = p%.1f), verify %zu, tampered %zu; generator late p95 "
        "%.4f s%s",
        o.rate, seconds, reqs.size(), prove.size(), pct, verify.size(),
        tampered.size(), l.genLateP95,
        onTime ? "" : " -- generator fell behind its schedule");
    res.note(line);
    return l;
}

void
runServe(const Options& opt, Result& res)
{
    runOpenLoop(opt, opt.seconds, kSetupReps, res);
}

} // namespace zkbench
