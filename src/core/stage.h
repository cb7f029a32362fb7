/**
 * @file
 * The five zk-SNARK pipeline stages (paper Fig. 1), the observation
 * record one instrumented stage run produces, and core::measure, the
 * measurement bracket every SNARK and STARK stage runs inside.
 */

#ifndef ZKP_CORE_STAGE_H
#define ZKP_CORE_STAGE_H

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/memprof.h"
#include "obs/pmu.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "sim/memtrace.h"

namespace zkp::core {

/** Pipeline stages in execution order. */
enum class Stage : unsigned
{
    Compile,
    Setup,
    Witness,
    Proving,
    Verifying,
    NumStages
};

constexpr std::size_t kNumStages = (std::size_t)Stage::NumStages;

/** All stages, iteration helper. */
constexpr std::array<Stage, kNumStages> kAllStages{
    Stage::Compile, Stage::Setup, Stage::Witness, Stage::Proving,
    Stage::Verifying};

/** Paper-style lowercase stage name. */
const char* stageName(Stage s);

/**
 * Static uop footprint estimate of the stage's hot code, the
 * uop-cache pressure input of the top-down model. Values are
 * order-of-magnitude estimates of the inlined kernel sizes in this
 * library: the constraint builder and allocator paths (compile), the
 * fixed-base encoder (setup), the gate interpreter (witness), the
 * NTT + Pippenger + field kernels (proving) and the fully inlined
 * Fp12 pairing tower (verifying).
 *
 * The witness footprint scales with the circuit: circom's witness
 * calculator emits straight-line generated code per signal, so its
 * instruction working set grows with the constraint count — the
 * mechanism that keeps the witness stage front-end bound on every
 * CPU in the paper.
 */
double stageFootprintUops(Stage s, std::size_t constraints = 4096);

/** Measurement of one stage execution. */
struct StageRun
{
    /// Wall-clock seconds (averaged over repeats by the harness).
    double seconds = 0;
    /// Instrumented event counters for the stage (all threads merged).
    sim::Counters counters;
    /// Measured hardware counters (all threads merged); hw.available
    /// is false when the machine denies perf_event access.
    obs::pmu::HwStats hw;
    /// Memory accounting: RSS/peak-RSS deltas always, allocator
    /// counters when ZKP_MEMPROF=1 (mem.tracked marks validity).
    obs::memprof::StageMem mem;
};

/**
 * Execute @p fn as one instrumented stage (paper §IV: "We run each
 * stage of the zk-SNARK protocol separately"). Captures wall time,
 * sim counters (all threads merged), hardware counters and memory
 * around exactly @p fn, with @p sinks attached to the address/branch
 * trace and the region wrapped in a span named @p stage. While a run
 * report is armed (obs/report.h) it also appends one
 * obs::StageReport, attributing kernel time to the spans executed in
 * the region when tracing is live.
 *
 * @param stage  stage name ("proving", "stark_fri"); must be a string
 *               literal (span aggregation keys on the pointer)
 * @param tag    the report's curve slot: the curve name for SNARK
 *               stages, the field/AIR tag ("gl64/fib") for STARK ones
 * @param work   the report's constraint-count slot (constraints, or
 *               trace cells = steps x columns for the STARK)
 * @param threads worker threads the stage uses
 * @param sinks  trace sinks (cache models, predictors); empty
 *               disables address/branch tracing
 * @param sample_mask memory-trace sampling (see sim::ScopedTrace)
 */
template <typename Fn>
StageRun
measure(const char* stage, const std::string& tag, std::size_t work,
        std::size_t threads, std::vector<sim::TraceSink*> sinks,
        sim::u32 sample_mask, Fn&& fn)
{
    const bool report = obs::runReportArmed();
    // Span totals before the stage, so the report attributes only
    // this run's kernel time.
    const bool spans = report && obs::tracingEnabled();
    std::vector<obs::SpanStat> spans_before;
    if (spans)
        spans_before = obs::spanAggregates();

    sim::drainWorkerCounters();
    const sim::Counters before = sim::counters();
    // Hardware counters: drop any worker deltas accumulated before
    // the region, then sample this thread around it (workers add
    // theirs during the region).
    obs::pmu::Sample hw_before;
    const bool hw_on = obs::pmu::enabled() &&
                       (obs::pmu::drainWorkerDeltas(),
                        obs::pmu::readThread(hw_before));
    // RSS and peak-RSS deltas always; allocator counters and span
    // sites when ZKP_MEMPROF=1.
    const obs::memprof::Snapshot mem_before = obs::memprof::snapshot();
    Timer timer;
    {
        sim::ScopedTrace trace(std::move(sinks), sample_mask);
        ZKP_TRACE_SCOPE(stage);
        fn();
    }
    StageRun out;
    out.seconds = timer.seconds();
    sim::drainWorkerCounters();
    out.counters = sim::counters().since(before);
    out.mem = obs::memprof::stageDelta(mem_before);
    obs::pmu::Sample hw_after;
    if (hw_on && obs::pmu::readThread(hw_after)) {
        obs::pmu::Sample d = obs::pmu::delta(hw_before, hw_after);
        d += obs::pmu::drainWorkerDeltas();
        out.hw = obs::pmu::deriveStats(d, out.seconds);
    }
    if (!report)
        return out;

    obs::StageReport rep;
    rep.stage = stage;
    rep.curve = tag;
    rep.constraints = work;
    rep.threads = threads;
    rep.seconds = out.seconds;
    const sim::Counters& c = out.counters;
    rep.counters = {
        {"instructions", (double)c.instructions()},
        {"compute", (double)c.compute},
        {"control", (double)c.control},
        {"data", (double)c.data},
        {"loads", (double)c.loads},
        {"stores", (double)c.stores},
        {"branches", (double)c.branches},
        {"imuls", (double)c.imuls},
        {"alloc_bytes", (double)c.allocBytes},
        {"memcpy_bytes", (double)c.memcpyBytes},
    };
    rep.hwAvailable = out.hw.available;
    rep.hw = obs::pmu::statPairs(out.hw);
    rep.mem = out.mem;
    if (spans) {
        for (const obs::SpanStat& after : obs::spanAggregates()) {
            obs::SpanStat prev;
            for (const obs::SpanStat& b : spans_before) {
                if (b.name == after.name) {
                    prev = b;
                    break;
                }
            }
            if (after.count <= prev.count)
                continue;
            obs::KernelStat k;
            k.name = after.name;
            k.count = after.count - prev.count;
            k.seconds = (double)(after.totalNs - prev.totalNs) / 1e9;
            k.hwCycles = after.totalCycles - prev.totalCycles;
            k.hwInstructions =
                after.totalInstructions - prev.totalInstructions;
            k.allocBytes = after.totalAllocBytes - prev.totalAllocBytes;
            rep.topSpans.push_back(std::move(k));
        }
    }
    obs::recordStageReport(std::move(rep));
    return out;
}

} // namespace zkp::core

#endif // ZKP_CORE_STAGE_H
