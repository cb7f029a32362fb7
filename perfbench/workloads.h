/**
 * @file
 * The batch workloads as reusable objects, so that the untraced run
 * (main) and the traced layer ladder drive exactly the same calls.
 */

#ifndef ZKBENCH_WORKLOADS_H
#define ZKBENCH_WORKLOADS_H

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <utility>

#include "harness.h"

namespace zkbench {

/** The five MSMs of one Groth16 prove, in seconds. */
struct ProveMsms
{
    double a = 0, b1 = 0, l = 0, h = 0; ///< G1
    double b2 = 0;                      ///< G2
};

/** Timings of one prove round and its verify/reject checks. */
struct RoundTimes
{
    double witness = 0; ///< Groth16 only
    double prove = 0;   ///< (witness +) prove + serialize
    Samples verify, reject;
};

/**
 * Groth16 on BN254 over the paper's exp circuit at 2^log2
 * constraints. Each round proves a fresh seeded statement, verifies
 * the proof from its serialized bytes and rejects a well-formed wrong
 * proof (valid points, C replaced), interleaved.
 */
class Groth16Bench
{
  public:
    explicit Groth16Bench(const Options& opt);
    ~Groth16Bench();

    /** Build the circuit, compile it and run keygen; seconds taken. */
    double setup();
    /** Seconds of the compile step of the last setup(). */
    double compileSeconds() const;
    /** Round @p r with @p checks verify/reject pairs. */
    RoundTimes round(std::uint64_t r, std::size_t checks, Result& res);
    std::size_t proofBytes() const;
    /** One timed deserialization of the last proof (with checks). */
    double deserializeSeconds(Result& res) const;
    /**
     * The prove's MSMs, each the median of @p reps calls on the
     * proving key with the last round's witness (H with seeded
     * scalars): what prove pays, including the sparsity of the
     * circuit's B queries.
     */
    ProveMsms msmSeconds(std::size_t reps) const;

  private:
    struct State;
    std::unique_ptr<State> s_;
};

/**
 * STARK on the MiMC AIR at 2^log2 steps, default StarkParams. Rounds
 * alternate between two seeded statements, so every proof after the
 * first two must repeat an earlier one byte for byte (the prover is
 * deterministic).
 */
class StarkBench
{
  public:
    explicit StarkBench(const Options& opt);
    ~StarkBench();

    RoundTimes round(std::uint64_t r, std::size_t checks, Result& res);
    std::size_t proofBytes() const;
    /** LDE rows and committed FRI leaves, per 2^(log2+3) LDE rows. */
    double merkleLeavesPerLdeRow() const;

  private:
    struct State;
    std::unique_ptr<State> s_;
};

/**
 * Rounds of @p bench for opt.seconds, then the batch end-to-end
 * metrics other than setup_s, each the minimum of its samples.
 * Round 0 is warm-up (lazy tables, GLV self-test, pool
 * growth), which a long-running prover pays once: it is checked but
 * left out of the statistics. At least two rounds are kept. Returns
 * round 0's prove seconds.
 */
template <typename Bench>
double
runRounds(Bench& bench, const Options& opt, std::size_t checks,
          Result& res)
{
    Samples prove, verify, reject;
    double first = 0;
    const auto start = Clock::now();
    double last = 0;
    for (std::uint64_t r = 0;; ++r) {
        const double elapsed = secondsBetween(start, Clock::now());
        if (r >= 3 && elapsed + last > opt.seconds)
            break;
        const auto a = Clock::now();
        const RoundTimes rt = bench.round(r, checks, res);
        last = secondsBetween(a, Clock::now());
        if (r == 0) {
            first = rt.prove;
            continue;
        }
        prove.add(rt.prove);
        verify.v.insert(verify.v.end(), rt.verify.v.begin(),
                        rt.verify.v.end());
        reject.v.insert(reject.v.end(), rt.reject.v.begin(),
                        rt.reject.v.end());
    }
    // The minimum, not the median or a low quantile: on a shared host
    // the speed of a call drifts with the neighbours' load in periods
    // of a few seconds (a Groth16 verify takes 40 to 80 ms), and the
    // share of slow periods in a run varies from run to run and hour to
    // hour. A quantile moves as soon as fast periods get rarer than its
    // rank; the minimum needs a single fast period in the whole run.
    res.set("prove_s", prove.min(), "s");
    res.set("verify_s", verify.min(), "s");
    res.set("reject_s", reject.min(), "s");
    res.set("proof_bytes", (double)bench.proofBytes(), "B");
    char line[96];
    std::snprintf(line, sizeof line,
                  "# warm-up round (excluded below): prove %.6g s", first);
    res.note(line);
    for (const auto& [name, samples] :
         {std::pair{"prove", &prove}, {"verify", &verify},
          {"reject", &reject}})
        res.note(samples->describe(name));
    return first;
}

/** Per-layer numbers of one open-loop serve run. */
struct ServeLayers
{
    double queueWaitP50 = 0, execProveP50 = 0, serializeP50 = 0;
    double verifyBatchMean = 0, genLateP95 = 0;
    double refused = 0, keyBuilds = 0;
};

/**
 * The open loop for @p seconds after @p setupReps service starts;
 * fills end-to-end metrics into res.
 */
ServeLayers runOpenLoop(const Options& opt, double seconds,
                        std::size_t setupReps, Result& res);

} // namespace zkbench

#endif // ZKBENCH_WORKLOADS_H
