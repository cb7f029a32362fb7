// groth16-exp-2e16: Groth16 on BN254 over the paper's exp circuit.

#include <cstdio>
#include <optional>

#include "common/rng.h"
#include "ec/msm.h"
#include "r1cs/circuits.h"
#include "snark/curve.h"
#include "snark/groth16.h"
#include "snark/serialize.h"
#include "workloads.h"

namespace zkbench {

namespace {

using Curve = zkp::snark::Bn254;
using Scheme = zkp::snark::Groth16<Curve>;
using Fr = Curve::Fr;

/** Seed mixing, so setup, statements and blinding draw apart. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

struct Groth16Bench::State
{
    Options opt;
    std::size_t n = 0;
    std::optional<zkp::r1cs::R1cs<Fr>> cs;
    std::optional<zkp::r1cs::WitnessCalculator<Fr>> calc;
    std::optional<Scheme::Keypair> keys;
    double compile = 0;
    std::vector<std::uint8_t> lastProof;
    std::vector<Fr> lastZ;

    bool
    verifies(const std::vector<std::uint8_t>& bytes, const Fr& y) const
    {
        std::optional<Scheme::Proof> p;
        {
            Scope s("snark.deserialize");
            p = zkp::snark::deserializeProofAny<Curve>(bytes);
        }
        if (!p)
            return false;
        Scope s("snark.verify");
        return Scheme::verify(keys->vk, {y}, *p);
    }

    /** A well-formed wrong proof: C replaced by C + G. */
    bool
    parses(const std::vector<std::uint8_t>& bytes) const
    {
        return zkp::snark::deserializeProofAny<Curve>(bytes).has_value();
    }
};

Groth16Bench::Groth16Bench(const Options& opt) : s_(new State)
{
    s_->opt = opt;
    s_->n = std::size_t(1) << opt.log2;
}

Groth16Bench::~Groth16Bench() = default;

double
Groth16Bench::setup()
{
    // Free the previous artifacts first, so repeated set-ups do not
    // stack up in the peak resident set.
    s_->keys.reset();
    s_->calc.reset();
    s_->cs.reset();

    Scope outer("snark.setup_total");
    const auto t0 = Clock::now();
    std::optional<zkp::r1cs::ExponentiationCircuit<Fr>> circ;
    {
        Scope s("r1cs.build");
        circ.emplace(s_->n);
    }
    const auto t1 = Clock::now();
    {
        Scope s("r1cs.compile");
        s_->cs.emplace(circ->builder.compile(kThreads));
    }
    const auto t2 = Clock::now();
    s_->calc.emplace(circ->builder.witnessProgram());
    {
        Scope s("snark.keygen");
        zkp::Rng rng(mix(s_->opt.seed, 1));
        s_->keys.emplace(Scheme::setup(*s_->cs, rng, kThreads));
    }
    const auto t3 = Clock::now();
    s_->compile = secondsBetween(t1, t2);
    return secondsBetween(t0, t3);
}

double
Groth16Bench::compileSeconds() const
{
    return s_->compile;
}

RoundTimes
Groth16Bench::round(std::uint64_t r, std::size_t checks, Result& res)
{
    State& s = *s_;
    const Options& o = s.opt;
    zkp::Rng in(mix(o.seed, 1000 + r));
    const Fr x = Fr::random(in);
    const Fr y = x.pow(zkp::BigInt<1>((zkp::u64)s.n));

    RoundTimes rt;
    Scope round("snark.round");
    const auto t0 = Clock::now();
    std::vector<Fr> z;
    {
        Scope sp("r1cs.witness");
        z = s.calc->compute({y}, {x}, kThreads);
    }
    const auto t1 = Clock::now();
    Scheme::Proof proof;
    {
        Scope sp("snark.prove");
        zkp::Rng blind(mix(o.seed, 2000 + r));
        proof = Scheme::prove(s.keys->pk, *s.cs, z, blind, kThreads);
    }
    std::vector<std::uint8_t> bytes;
    {
        Scope sp("snark.serialize");
        bytes = zkp::snark::serializeProofFramed<Curve>(proof);
    }
    const auto t2 = Clock::now();
    rt.witness = secondsBetween(t0, t1);
    rt.prove = secondsBetween(t0, t2);

    Scheme::Proof bad = proof;
    bad.c = (Scheme::G1Jac{proof.c} +
             Scheme::G1Jac{Scheme::G1::generator()})
                .toAffine();
    const auto badBytes = zkp::snark::serializeProofFramed<Curve>(bad);
    // The tamper must stay well-formed, or the reject would be caught
    // at parsing and measure nothing.
    const bool badParses = s.parses(badBytes);

    bool proofOk = false;
    for (std::size_t k = 0; k < checks; ++k) {
        auto a = Clock::now();
        const bool ok = s.verifies(bytes, y);
        auto b = Clock::now();
        rt.verify.add(secondsBetween(a, b));
        res.check(ok);
        proofOk = proofOk || ok;

        a = Clock::now();
        const bool rejected = badParses && !s.verifies(badBytes, y);
        b = Clock::now();
        rt.reject.add(secondsBetween(a, b));
        res.check(rejected);
    }
    // The prove itself counts as correct when its bytes verify.
    res.check(proofOk);
    s.lastProof = std::move(bytes);
    s.lastZ = std::move(z);
    return rt;
}

std::size_t
Groth16Bench::proofBytes() const
{
    return s_->lastProof.size();
}

double
Groth16Bench::deserializeSeconds(Result& res) const
{
    const auto a = Clock::now();
    const bool ok =
        zkp::snark::deserializeProofAny<Curve>(s_->lastProof).has_value();
    const auto b = Clock::now();
    res.check(ok);
    return secondsBetween(a, b);
}

ProveMsms
Groth16Bench::msmSeconds(std::size_t reps) const
{
    const State& s = *s_;
    const auto& pk = s.keys->pk;
    const std::size_t t = kThreads;
    std::vector<Fr::Repr> z(s.lastZ.size()), h(pk.hQuery.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = s.lastZ[i].toBigInt();
    zkp::Rng rng(mix(s.opt.seed, 3));
    for (auto& e : h)
        e = Fr::random(rng).toBigInt();
    const std::size_t priv = pk.numPublic + 1;

    using zkp::ec::msmCurve;
    using G1 = Scheme::G1;
    using G2 = Scheme::G2;
    ProveMsms m;
    m.a = timed("ec.msm_a", reps, [&] {
        (void)msmCurve<G1>(pk.aQuery.data(), z.data(), z.size(), t);
    });
    m.b1 = timed("ec.msm_b1", reps, [&] {
        (void)msmCurve<G1>(pk.b1Query.data(), z.data(), z.size(), t);
    });
    m.l = timed("ec.msm_l", reps, [&] {
        (void)msmCurve<G1>(pk.lQuery.data(), z.data() + priv,
                           z.size() - priv, t);
    });
    m.h = timed("ec.msm_h", reps, [&] {
        (void)msmCurve<G1>(pk.hQuery.data(), h.data(), h.size(), t);
    });
    m.b2 = timed("ec.msm_b2", reps, [&] {
        (void)msmCurve<G2>(pk.b2Query.data(), z.data(), z.size(), t);
    });
    return m;
}

void
runGroth16(const Options& opt, Result& res)
{
    Groth16Bench bench(opt);
    Samples setup;
    for (std::size_t i = 0; i < kSetupReps; ++i)
        setup.add(bench.setup());
    res.set("setup_s", setup.median(), "s");
    res.note(setup.describe("setup"));
    runRounds(bench, opt, kGroth16Checks, res);
}

} // namespace zkbench
