/**
 * @file
 * SHA-256 compression on the x86 SHA extensions (SHA-NI).
 *
 * sha256rnds2 performs two rounds on a state split across two
 * registers ({A,B,E,F} and {C,D,G,H}); sha256msg1/msg2 compute the
 * sigma0/sigma1 halves of the message schedule four words at a time.
 * The kernel takes and returns the same State/Block words as the
 * portable r1cs::Sha256::compress, so it is a drop-in second kernel
 * whose output is bit-identical (tests/test_stark.cpp checks it
 * against the portable one on random and edge-case inputs).
 *
 * This header only defines ZKP_STARK_HAVE_SHA_NI (and the kernel) when
 * the compiler can target the SHA extensions; callers must also check
 * the CPU at runtime with shaNiSupported() before calling in here.
 */

#ifndef ZKP_STARK_SHA_NI_H
#define ZKP_STARK_SHA_NI_H

#include "r1cs/gadgets/sha256.h"

#if defined(__x86_64__) && defined(__GNUC__) && \
    (defined(__clang__) ? (__clang_major__ >= 4) : (__GNUC__ >= 5))
#define ZKP_STARK_HAVE_SHA_NI 1

#include <cpuid.h>
#include <immintrin.h>

namespace zkp::stark::shani {

/** True when this CPU exposes the SHA extensions and SSE4.1. */
inline bool
cpuSupported()
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSE4_1))
        return false;
    if (__get_cpuid_max(0, nullptr) < 7)
        return false;
    __cpuid_count(7, 0, a, b, c, d);
    return (b & (1u << 29)) != 0; // CPUID.(7,0):EBX.SHA
}

/** One compression-function application, bit-identical to the
 *  portable r1cs::Sha256::compress. */
__attribute__((target("sha,sse4.1"))) inline r1cs::Sha256::State
compress(const r1cs::Sha256::State& state, const r1cs::Sha256::Block& blk)
{
    // {A,B,C,D},{E,F,G,H} -> the {A,B,E,F},{C,D,G,H} register pair,
    // lane 3 first, as sha256rnds2 expects.
    __m128i tmp = _mm_loadu_si128((const __m128i*)&state[0]);
    __m128i s1 = _mm_loadu_si128((const __m128i*)&state[4]);
    tmp = _mm_shuffle_epi32(tmp, 0xB1);
    s1 = _mm_shuffle_epi32(s1, 0x1B);
    __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);
    s1 = _mm_blend_epi16(s1, tmp, 0xF0);
    const __m128i abef = s0, cdgh = s1;

    // Block words are already host integers: no byte swap on load.
    __m128i w0 = _mm_loadu_si128((const __m128i*)&blk[0]);
    __m128i w1 = _mm_loadu_si128((const __m128i*)&blk[4]);
    __m128i w2 = _mm_loadu_si128((const __m128i*)&blk[8]);
    __m128i w3 = _mm_loadu_si128((const __m128i*)&blk[12]);
    for (std::size_t r = 0; r < 16; ++r) {
        // Rounds 4r..4r+3 consume w0 = W[4r..4r+3].
        __m128i m = _mm_add_epi32(
            w0,
            _mm_loadu_si128((const __m128i*)&r1cs::Sha256::kK[4 * r]));
        s1 = _mm_sha256rnds2_epu32(s1, s0, m);
        m = _mm_shuffle_epi32(m, 0x0E);
        s0 = _mm_sha256rnds2_epu32(s0, s1, m);
        // W[i..i+3], i = 4r+16: msg1 gives W[i-16] + sigma0(W[i-15]),
        // alignr adds W[i-7], msg2 adds sigma1(W[i-2]). The last four
        // groups are past W[63] and go unused.
        __m128i next = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                     _mm_alignr_epi8(w3, w2, 4));
        next = _mm_sha256msg2_epu32(next, w3);
        w0 = w1;
        w1 = w2;
        w2 = w3;
        w3 = next;
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);

    // Back to {A,B,C,D},{E,F,G,H}.
    tmp = _mm_shuffle_epi32(s0, 0x1B);
    s1 = _mm_shuffle_epi32(s1, 0xB1);
    s0 = _mm_blend_epi16(tmp, s1, 0xF0);
    s1 = _mm_alignr_epi8(s1, tmp, 8);
    r1cs::Sha256::State out;
    _mm_storeu_si128((__m128i*)&out[0], s0);
    _mm_storeu_si128((__m128i*)&out[4], s1);
    return out;
}

} // namespace zkp::stark::shani

#endif // compiler support

#endif // ZKP_STARK_SHA_NI_H
