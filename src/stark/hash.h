/**
 * @file
 * SHA-256 digests over Goldilocks data: the commitment hash of the
 * STARK backend.
 *
 * The hash function itself is the repo's native SHA-256
 * (r1cs::Sha256 — the reference implementation the SHA circuit gadget
 * is checked against); there is no second hash implementation. What
 * varies is the compression *kernel*: on CPUs with the SHA extensions
 * each block is compressed by the SHA-NI kernel in stark/sha_ni.h,
 * elsewhere by the portable r1cs::Sha256::compress, which stays the
 * reference. The choice is made once per process from CPUID
 * (shaNiSupported()); a differential test in tests/test_stark.cpp
 * pins the two kernels bit-identical. Three fixed-shape entry points
 * cover everything the Merkle tree and the Fiat-Shamir channel need:
 *
 *  - hashBytes: a byte string -> digest (FIPS 180-4 padding, streamed
 *    through one 64-byte stack block, no heap allocation)
 *  - hashRow: a trace/FRI-layer row of field elements (little-endian
 *    8-byte words) -> digest (leaf hashing, same streaming path)
 *  - hashPair: two digests -> digest (interior node; exactly one
 *    compression, since 2 x 32 bytes fills one 512-bit block — the
 *    padding block is deliberately omitted on this fixed-width path,
 *    a standard Merkle-node construction)
 *
 * Every compression reports PrimOp::HashCompress to the sim layer
 * whichever kernel runs it, so the opcode-mix/MPKI analyses see the
 * hash-dominated instruction profile that distinguishes the STARK
 * prover from the Montgomery-multiply-dominated SNARK stages
 * (EXPERIMENTS.md §E14); that model still describes the portable
 * kernel's instruction stream.
 */

#ifndef ZKP_STARK_HASH_H
#define ZKP_STARK_HASH_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "r1cs/gadgets/sha256.h"
#include "sim/counters.h"
#include "sim/memtrace.h"
#include "stark/field.h"
#include "stark/sha_ni.h"

namespace zkp::stark {

/** A 32-byte SHA-256 digest. */
using Digest = std::array<std::uint8_t, 32>;

/**
 * True when this build AND this CPU can run the SHA-NI kernel, which
 * every compression then uses. Decided once per process from CPUID.
 */
inline bool
shaNiSupported()
{
#ifdef ZKP_STARK_HAVE_SHA_NI
    static const bool supported = shani::cpuSupported();
    return supported;
#else
    return false;
#endif
}

/** Diagnostic name of the active compression kernel. */
inline const char*
hashImplName()
{
    return shaNiSupported() ? "sha_ni" : "portable";
}

namespace detail {

inline r1cs::Sha256::State
compressCounted(const r1cs::Sha256::State& s,
                const r1cs::Sha256::Block& b)
{
    sim::count(sim::PrimOp::HashCompress, 1);
#ifdef ZKP_STARK_HAVE_SHA_NI
    if (shaNiSupported())
        return shani::compress(s, b);
#endif
    return r1cs::Sha256::compress(s, b);
}

inline Digest
stateToDigest(const r1cs::Sha256::State& s)
{
    Digest out;
    for (std::size_t i = 0; i < 8; ++i) {
        out[4 * i] = (std::uint8_t)(s[i] >> 24);
        out[4 * i + 1] = (std::uint8_t)(s[i] >> 16);
        out[4 * i + 2] = (std::uint8_t)(s[i] >> 8);
        out[4 * i + 3] = (std::uint8_t)s[i];
    }
    return out;
}

/** The 16 big-endian message words of one 64-byte block. */
inline r1cs::Sha256::Block
blockFromBytes(const std::uint8_t* p)
{
    r1cs::Sha256::Block blk{};
    for (std::size_t i = 0; i < 16; ++i)
        blk[i] = ((std::uint32_t)p[4 * i] << 24) |
                 ((std::uint32_t)p[4 * i + 1] << 16) |
                 ((std::uint32_t)p[4 * i + 2] << 8) |
                 (std::uint32_t)p[4 * i + 3];
    return blk;
}

/**
 * Streaming FIPS 180-4 SHA-256: input is gathered in one 64-byte
 * block and compressed as the block fills; digest(), called once
 * after the last update(), writes the padding into the same block in
 * place.
 */
class Hasher
{
  public:
    void
    update(const std::uint8_t* data, std::size_t n)
    {
        total_ += n;
        while (n > 0) {
            const std::size_t take = std::min(n, sizeof(buf_) - fill_);
            std::memcpy(buf_ + fill_, data, take);
            fill_ += take;
            data += take;
            n -= take;
            if (fill_ == sizeof(buf_))
                compressBlock();
        }
    }

    Digest
    digest()
    {
        const std::uint64_t bits = total_ * 8;
        buf_[fill_++] = 0x80;
        if (fill_ > 56) {
            std::memset(buf_ + fill_, 0, sizeof(buf_) - fill_);
            compressBlock();
        }
        std::memset(buf_ + fill_, 0, 56 - fill_);
        for (std::size_t i = 0; i < 8; ++i)
            buf_[56 + i] = (std::uint8_t)(bits >> (56 - 8 * i));
        compressBlock();
        return stateToDigest(state_);
    }

  private:
    void
    compressBlock()
    {
        state_ = compressCounted(state_, blockFromBytes(buf_));
        fill_ = 0;
    }

    r1cs::Sha256::State state_ = r1cs::Sha256::kIv;
    std::uint8_t buf_[64] = {};
    std::size_t fill_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace detail

/** Full (padded) SHA-256 of a byte string, compression-counted. */
inline Digest
hashBytes(const std::uint8_t* data, std::size_t n)
{
    detail::Hasher h;
    h.update(data, n);
    return h.digest();
}

/**
 * Hash one row of field elements (little-endian 8-byte words).
 * Per-element absorb bookkeeping is counted apart from the
 * compressions, mirroring the sponge instrumentation convention.
 */
inline Digest
hashRow(const Gl* row, std::size_t width)
{
    sim::count(sim::PrimOp::HashAbsorb, 1, width);
    sim::traceLoad(row, 8 * width);
    detail::Hasher h;
    for (std::size_t i = 0; i < width; ++i) {
        const u64 v = row[i].value();
        std::uint8_t le[8];
        for (std::size_t b = 0; b < 8; ++b)
            le[b] = (std::uint8_t)(v >> (8 * b));
        h.update(le, sizeof(le));
    }
    return h.digest();
}

/** One-compression interior-node hash of two child digests. */
inline Digest
hashPair(const Digest& left, const Digest& right)
{
    sim::traceLoad(&left, sizeof(left));
    sim::traceLoad(&right, sizeof(right));
    std::uint8_t buf[2 * sizeof(Digest)];
    std::memcpy(buf, left.data(), sizeof(Digest));
    std::memcpy(buf + sizeof(Digest), right.data(), sizeof(Digest));
    return detail::stateToDigest(detail::compressCounted(
        r1cs::Sha256::kIv, detail::blockFromBytes(buf)));
}

/** Lowercase hex rendering (test diagnostics, golden vectors). */
inline std::string
digestHex(const Digest& d)
{
    static const char* k = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t b : d) {
        out.push_back(k[b >> 4]);
        out.push_back(k[b & 0xf]);
    }
    return out;
}

} // namespace zkp::stark

#endif // ZKP_STARK_HASH_H
