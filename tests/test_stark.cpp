/**
 * @file
 * STARK backend unit tests: Goldilocks arithmetic against a
 * widening-multiply reference, NTT round-trips over the small field,
 * Merkle commitments, Fiat-Shamir channel determinism, and full
 * prove/verify round-trips for both shipped AIRs including
 * serialization, and the run-report records of the STARK stages.
 *
 * The negative-path suite (tampered openings, wrong folds, truncated
 * bytes) lives in test_verifier_negative.cpp with the other schemes.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "poly/domain.h"
#include "stark/air.h"
#include "stark/channel.h"
#include "stark/merkle.h"
#include "stark/serialize.h"
#include "stark/stark.h"

namespace zkp::stark {
namespace {

u64 mulRef(u64 a, u64 b)
{
    return (u64)(((unsigned __int128)a * b) % Gl::kP);
}

TEST(StarkField, MatchesWideReference)
{
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const u64 a = rng.next() % Gl::kP;
        const u64 b = rng.next() % Gl::kP;
        const Gl x = Gl::fromU64(a), y = Gl::fromU64(b);
        EXPECT_EQ((x * y).value(), mulRef(a, b));
        EXPECT_EQ((x + y).value(), (a + (unsigned __int128)b) % Gl::kP);
        EXPECT_EQ((x - y).value(),
                  (u64)(((unsigned __int128)a + Gl::kP - b) % Gl::kP));
    }
    // The reduction's edge region: operands near p and near 2^32
    // boundaries, where the EPSILON fixups fire.
    const u64 edges[] = {0,          1,          Gl::kEpsilon,
                         1ULL << 32, Gl::kP - 1, Gl::kP - 2,
                         (1ULL << 32) + 1};
    for (u64 a : edges)
        for (u64 b : edges)
            EXPECT_EQ((Gl::fromU64(a) * Gl::fromU64(b)).value(),
                      mulRef(a % Gl::kP, b % Gl::kP));
}

TEST(StarkField, InverseAndPow)
{
    Rng rng(8);
    for (int i = 0; i < 50; ++i) {
        const Gl x = Gl::random(rng);
        if (x.isZero())
            continue;
        EXPECT_EQ(x * x.inverse(), Gl::one());
    }
    EXPECT_EQ(Gl::fromU64(3).pow((u64)0), Gl::one());
    EXPECT_EQ(Gl::fromU64(3).pow((u64)5), Gl::fromU64(243));
    // Fermat: x^(p-1) = 1.
    EXPECT_EQ(Gl::fromU64(12345).pow(Gl::kP - 1), Gl::one());
}

TEST(StarkField, TwoAdicityMatchesDomainMachinery)
{
    const auto& ta = poly::TwoAdicity<Gl>::get();
    EXPECT_EQ(ta.s, Gl::kTwoAdicity);
    // The derived root really has order 2^32: squaring it 32 times
    // reaches one, 31 times does not.
    Gl r = ta.rootOfUnity;
    for (std::size_t i = 0; i < 31; ++i)
        r = r.squared();
    EXPECT_NE(r, Gl::one());
    EXPECT_EQ(r.squared(), Gl::one());
}

TEST(StarkField, NttRoundTrip)
{
    Rng rng(9);
    const std::size_t n = 256;
    poly::Domain<Gl> dom(n);
    std::vector<Gl> v(n), orig;
    for (auto& x : v)
        x = Gl::random(rng);
    orig = v;
    dom.ntt(v);
    dom.intt(v);
    EXPECT_EQ(v, orig);
    dom.cosetNtt(v);
    dom.cosetIntt(v);
    EXPECT_EQ(v, orig);
}

std::vector<std::uint8_t>
randomBytes(Rng& rng, std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (auto& b : out)
        b = (std::uint8_t)rng.next();
    return out;
}

// FIPS 180-4 appendix B.1: SHA-256("abc").
constexpr const char* kAbcHex =
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";

TEST(StarkHash, ShaNiKernelMatchesPortable)
{
    if (!shaNiSupported())
        GTEST_SKIP() << "SHA-NI kernel not available (CPU or build "
                        "lacks the SHA extensions); portable kernel only";
#ifdef ZKP_STARK_HAVE_SHA_NI
    using S = r1cs::Sha256;
    auto same = [](const S::State& s, const S::Block& b) {
        return shani::compress(s, b) == S::compress(s, b);
    };
    S::State s0{}, s1;
    S::Block b0{}, b1;
    s1.fill(0xffffffffu);
    b1.fill(0xffffffffu);
    EXPECT_TRUE(same(s0, b0));
    EXPECT_TRUE(same(s1, b1));
    EXPECT_TRUE(same(s0, b1));
    EXPECT_TRUE(same(s1, b0));
    EXPECT_TRUE(same(S::kIv, b0));
    Rng rng(15);
    for (int i = 0; i < 100000; ++i) {
        S::State s;
        S::Block b;
        for (auto& w : s)
            w = (std::uint32_t)rng.next();
        for (auto& w : b)
            w = (std::uint32_t)rng.next();
        if (!same(s, b)) {
            ADD_FAILURE() << "kernels differ on random pair " << i;
            break;
        }
    }
#endif
}

TEST(StarkHash, KernelsMatchFipsAbcVector)
{
    using S = r1cs::Sha256;
    const std::vector<std::uint8_t> abc = {'a', 'b', 'c'};
    const auto blocks = S::pad(abc);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(digestHex(detail::stateToDigest(
                  S::compress(S::kIv, blocks[0]))),
              kAbcHex);
#ifdef ZKP_STARK_HAVE_SHA_NI
    if (shaNiSupported()) {
        EXPECT_EQ(digestHex(detail::stateToDigest(
                      shani::compress(S::kIv, blocks[0]))),
                  kAbcHex);
    }
#endif
    EXPECT_EQ(digestHex(hashBytes(abc.data(), abc.size())), kAbcHex);
}

TEST(StarkHash, HashBytesMatchesReferenceAtPaddingBoundaries)
{
    Rng rng(16);
    for (std::size_t n : {0, 1, 55, 56, 63, 64, 119, 120, 200}) {
        const auto msg = randomBytes(rng, n);
        const sim::Counters before = sim::counters();
        const Digest d = hashBytes(msg.data(), msg.size());
        const sim::Counters delta = sim::counters().since(before);
        EXPECT_EQ(d, r1cs::Sha256::hash(msg)) << "length " << n;
        // One counted compression per padded block.
        EXPECT_EQ(delta.prim[(std::size_t)sim::PrimOp::HashCompress],
                  r1cs::Sha256::pad(msg).size())
            << "length " << n;
    }
}

TEST(StarkHash, HashRowMatchesByteVectorConstruction)
{
    Rng rng(17);
    for (std::size_t width = 1; width <= 17; ++width) {
        std::vector<Gl> row(width);
        std::vector<std::uint8_t> bytes;
        for (auto& x : row) {
            x = Gl::random(rng);
            for (std::size_t b = 0; b < 8; ++b)
                bytes.push_back((std::uint8_t)(x.value() >> (8 * b)));
        }
        EXPECT_EQ(hashRow(row.data(), width),
                  r1cs::Sha256::hash(bytes))
            << "width " << width;
    }
}

TEST(StarkMerkle, OpenVerify)
{
    Rng rng(10);
    const std::size_t rows = 64, width = 3;
    std::vector<Gl> table(rows * width);
    for (auto& x : table)
        x = Gl::random(rng);
    MerkleTree tree =
        MerkleTree::fromRows(table.data(), rows, width);
    for (std::size_t i : {std::size_t(0), std::size_t(13),
                          std::size_t(63)}) {
        MerklePath path = tree.open(i);
        const Digest leaf = hashRow(&table[i * width], width);
        EXPECT_TRUE(
            MerkleTree::verify(leaf, i, path, tree.root()));
        // Wrong index fails.
        EXPECT_FALSE(
            MerkleTree::verify(leaf, i ^ 1, path, tree.root()));
        // Tampered sibling fails.
        MerklePath bad = path;
        bad.siblings[0][0] ^= 1;
        EXPECT_FALSE(
            MerkleTree::verify(leaf, i, bad, tree.root()));
    }
}

TEST(StarkChannel, DeterministicAndOrderSensitive)
{
    Channel a(1), b(1), c(2);
    a.absorbU64(42);
    b.absorbU64(42);
    c.absorbU64(42);
    EXPECT_EQ(a.challenge(), b.challenge());
    EXPECT_NE(a.challenge(), c.challenge());
    // Same data, different absorb kind -> different challenge.
    Channel d(1), e(1);
    d.absorbU64(7);
    e.absorbField(Gl::fromU64(7));
    EXPECT_NE(d.challenge(), e.challenge());
}

TEST(StarkChannel, GrindRoundTrip)
{
    Channel p(3), v(3);
    const u64 nonce = p.grind(8);
    EXPECT_TRUE(v.checkGrind(nonce, 8));
    // Both sides advanced identically.
    EXPECT_EQ(p.challenge(), v.challenge());
    Channel w(3);
    EXPECT_FALSE(w.checkGrind(nonce + 1, 20));
}

StarkParams
testParams()
{
    StarkParams p;
    p.queries = 10;
    p.grindBits = 4;
    return p;
}

TEST(Stark, FibonacciRoundTrip)
{
    FibonacciAir air(64, Gl::fromU64(1), Gl::fromU64(1));
    const StarkParams params = testParams();
    StarkProof proof = prove(air, params, 2);
    EXPECT_TRUE(verify(air, params, proof));

    // A different statement rejects the same proof.
    FibonacciAir other(64, Gl::fromU64(2), Gl::fromU64(1));
    EXPECT_FALSE(verify(other, params, proof));
}

TEST(Stark, MimcRoundTrip)
{
    MimcAir air(128, Gl::fromU64(7));
    const StarkParams params = testParams();
    StarkProof proof = prove(air, params, 2);
    EXPECT_TRUE(verify(air, params, proof));

    MimcAir other(128, Gl::fromU64(8));
    EXPECT_FALSE(verify(other, params, proof));
}

TEST(Stark, TraceSatisfiesConstraints)
{
    // The AIR's own trace satisfies its own constraints row by row —
    // the invariant the whole quotient construction rests on.
    MimcAir air(64, Gl::fromU64(3));
    const auto trace = air.buildTrace();
    const auto periodic = air.periodicColumns();
    for (std::size_t r = 0; r + 1 < air.steps(); ++r) {
        Gl pv = periodic[0][r % periodic[0].size()];
        Gl out;
        air.evalTransition(&trace[r], &trace[r + 1], &pv, &out);
        EXPECT_TRUE(out.isZero()) << "row " << r;
    }
}

TEST(Stark, SerializeRoundTrip)
{
    FibonacciAir air(32, Gl::fromU64(3), Gl::fromU64(5));
    const StarkParams params = testParams();
    StarkProof proof = prove(air, params, 1);
    const auto bytes = serializeProof(proof);
    EXPECT_GT(bytes.size(), 0u);
    auto back = deserializeProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(verify(air, params, *back));
    // Round-trip is byte-stable (deterministic prover => golden
    // vectors are meaningful).
    EXPECT_EQ(serializeProof(*back), bytes);
}

TEST(Stark, ProofIsDeterministic)
{
    MimcAir air(64, Gl::fromU64(11));
    const StarkParams params = testParams();
    const auto a = serializeProof(prove(air, params, 1));
    const auto b = serializeProof(prove(air, params, 2));
    EXPECT_EQ(a, b) << "proof depends on thread count";
}

TEST(StarkReport, StagesRecordOnlyWhileReportIsArmed)
{
    MimcAir air(64, Gl::fromU64(5));
    const StarkParams params = testParams();
    const auto proveAndVerify = [&] {
        ASSERT_TRUE(verify(air, params, prove(air, params, 2)));
    };

    // Unarmed (a proof server, a bench without ZKP_REPORT): nothing
    // accumulates however many proofs run.
    obs::stopRunReport();
    obs::clearStageReports();
    proveAndVerify();
    EXPECT_TRUE(obs::stageReports().empty());

    obs::startRunReport();
    obs::startTracing("");
    proveAndVerify();
    obs::stopTracing();
    obs::stopRunReport();

    const auto reports = obs::stageReports();
    const std::vector<std::string> expected{
        "stark_trace_gen", "stark_lde",   "stark_commit",
        "stark_fri",       "stark_query", "stark_verify"};
    ASSERT_EQ(reports.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const obs::StageReport& r = reports[i];
        EXPECT_EQ(r.stage, expected[i]);
        EXPECT_EQ(r.curve, "gl64/" + air.name());
        EXPECT_EQ(r.constraints, air.steps() * air.columns());
        ASSERT_FALSE(r.counters.empty());
        EXPECT_EQ(r.counters[0].first, "instructions");
        EXPECT_GT(r.counters[0].second, 0.0) << r.stage;
        EXPECT_FALSE(r.topSpans.empty()) << r.stage;
    }
    obs::clearStageReports();
}

} // namespace
} // namespace zkp::stark
