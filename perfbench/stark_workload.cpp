// stark-mimc-2e16: STARK on the MiMC AIR (SHA-256 Merkle + Goldilocks
// LDE/FRI); it never touches ec, pairing or the BN254 fields.

#include <array>
#include <cstdio>
#include <optional>

#include "common/rng.h"
#include "stark/air.h"
#include "stark/serialize.h"
#include "stark/stark.h"
#include "workloads.h"

namespace zkbench {

namespace {

using zkp::stark::Gl;

std::size_t
steps(const Options& o)
{
    return std::size_t(1) << o.log2;
}

Gl
statementInput(const Options& o, std::size_t which)
{
    zkp::Rng rng(o.seed * 2 + which + 0x57a4c);
    return Gl::random(rng);
}

std::vector<std::uint8_t>
proveBytes(const zkp::stark::MimcAir& air, std::size_t threads)
{
    zkp::stark::StarkProof proof;
    {
        Scope s("stark.prove");
        proof = zkp::stark::prove(air, zkp::stark::StarkParams{}, threads);
    }
    Scope s("stark.serialize");
    return zkp::stark::serializeProof(proof);
}

bool
verifies(const zkp::stark::MimcAir& air,
         const std::vector<std::uint8_t>& bytes)
{
    std::optional<zkp::stark::StarkProof> p;
    {
        Scope s("stark.deserialize");
        p = zkp::stark::deserializeProof(bytes);
    }
    if (!p)
        return false;
    Scope s("stark.verify");
    return zkp::stark::verify(air, zkp::stark::StarkParams{}, *p);
}

} // namespace

struct StarkBench::State
{
    Options opt;
    std::vector<zkp::stark::MimcAir> airs;
    /// First proof of each statement; later proofs must match it.
    std::array<std::vector<std::uint8_t>, 2> first;
    std::size_t bytes = 0;
};

StarkBench::StarkBench(const Options& opt) : s_(new State)
{
    s_->opt = opt;
    for (std::size_t i = 0; i < 2; ++i)
        s_->airs.emplace_back(steps(opt), statementInput(opt, i));
}

StarkBench::~StarkBench() = default;

RoundTimes
StarkBench::round(std::uint64_t r, std::size_t checks, Result& res)
{
    State& s = *s_;
    const std::size_t which = r % 2;
    const auto& air = s.airs[which];

    RoundTimes rt;
    Scope round("stark.round");
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> bytes = proveBytes(air, kThreads);
    rt.prove = secondsBetween(t0, Clock::now());
    s.bytes = bytes.size();

    // A deterministic prover repeats itself byte for byte.
    bool repeatOk = true;
    if (s.first[which].empty())
        s.first[which] = bytes;
    else
        repeatOk = s.first[which] == bytes;

    // Deep reject: alter the last FRI layer opening of the last query,
    // so the verifier does all the other work before it fails.
    std::vector<std::uint8_t> badBytes;
    {
        auto bad = zkp::stark::deserializeProof(bytes);
        if (bad && !bad->queries.empty() &&
            !bad->queries.back().layers.empty()) {
            auto& l = bad->queries.back().layers.back();
            l.v0 = l.v0 + Gl::one();
            badBytes = zkp::stark::serializeProof(*bad);
        }
    }
    const bool badParses =
        zkp::stark::deserializeProof(badBytes).has_value();

    bool proofOk = false;
    for (std::size_t k = 0; k < checks; ++k) {
        auto a = Clock::now();
        const bool ok = verifies(air, bytes);
        auto b = Clock::now();
        rt.verify.add(secondsBetween(a, b));
        res.check(ok);
        proofOk = proofOk || ok;

        a = Clock::now();
        const bool rejected = badParses && !verifies(air, badBytes);
        b = Clock::now();
        rt.reject.add(secondsBetween(a, b));
        res.check(rejected);
    }
    res.check(proofOk && repeatOk);
    return rt;
}

std::size_t
StarkBench::proofBytes() const
{
    return s_->bytes;
}

double
StarkBench::merkleLeavesPerLdeRow() const
{
    // Layers 1..folds-1 of FRI are committed, halving each time; the
    // trace commit covers all N LDE rows.
    std::size_t folds = 0;
    for (std::size_t bound = 2 * steps(s_->opt);
         bound > zkp::stark::StarkParams::kRemainderCoeffs; bound /= 2)
        ++folds;
    double leaves = 1;
    for (std::size_t k = 1; k < folds; ++k)
        leaves += 1.0 / double(std::size_t(1) << k);
    return leaves;
}

void
runStark(const Options& opt, Result& res)
{
    // A transparent scheme has no keys: set-up is the time to a first
    // proof, statement and lazy tables included (round 0).
    const auto t0 = Clock::now();
    StarkBench bench(opt);
    const double built = secondsBetween(t0, Clock::now());
    const double first = runRounds(bench, opt, kStarkChecks, res);
    res.set("setup_s", built + first, "s");
}

} // namespace zkbench
