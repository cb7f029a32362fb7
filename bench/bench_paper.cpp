/**
 * @file
 * The paper's results, one analysis per run:
 *
 *   bench_paper <analysis> [--hw]
 *
 * exec_time (E0, Fig. 3), fig4 (E1), fig5 (E2), table2 (E3), table3
 * (E4), table4 (E5), table5 (E6), fig6 (E7), fig7 (E8) and table6
 * (E9); DESIGN.md §5 maps each to its paper figure or table. --hw
 * (fig4, table2 and table3 only) prints the simulated values next to
 * perf_event measurements, or falls back to the simulated tables when
 * the machine has no usable PMU. Sweep knobs are read from the
 * environment (see bench_util.h).
 */

#include <map>

#include "bench_util.h"
#include "core/pipeline.h"
#include "obs/pmu.h"

namespace zkp::bench {
namespace {

/** One stage's measured hardware counters (--hw modes). */
struct HwStageRow
{
    core::Stage stage = core::Stage::Compile;
    obs::pmu::HwStats hw;
};

/**
 * Run every pipeline stage once at size @p n with real PMU counters
 * and return the per-stage hardware statistics. Rows report
 * hw.available=false when the machine denies perf access — callers
 * print the fallback notice and keep the simulated tables.
 */
template <typename Curve>
std::vector<HwStageRow>
measureHwStages(std::size_t n, std::size_t threads)
{
    std::vector<HwStageRow> rows;
    core::StageRunner<Curve> runner(n);
    for (core::Stage s : core::kAllStages) {
        core::StageRun run = runner.run(s, threads);
        rows.push_back({s, run.hw});
    }
    return rows;
}

/**
 * Shared preamble of the --hw modes: reports availability and returns
 * false (after printing the reason) when hardware counters cannot be
 * read, in which case the caller sticks to simulator output.
 */
bool
hwModeUsable(const char* analysis)
{
    if (obs::pmu::enabled())
        return true;
    std::printf("bench_paper %s --hw: hardware counters unavailable "
                "(%s); showing simulated results only\n",
                analysis,
                obs::pmu::unavailableReason().empty()
                    ? "disabled via ZKP_PMU=0"
                    : obs::pmu::unavailableReason().c_str());
    return false;
}

/**
 * E0 — execution-time breakdown (paper §IV-B, "Execution time
 * analysis"): elapsed time of each stage, per constraint count and
 * curve, plus the share of total pipeline time per stage.
 *
 * Paper reference points: setup is the most time-consuming stage
 * (76.1% of the pipeline) followed by proving (13.4%), consistent
 * across constraint sizes.
 */
template <typename Curve>
void
execTimeCurve()
{
    using core::Stage;
    const auto sizes = sweepSizes();
    const unsigned reps = repeats();

    TextTable table;
    table.setHeader({"constraints", "compile", "setup", "witness",
                     "proving", "verifying", "total"});

    std::array<double, core::kNumStages> stage_totals{};
    for (std::size_t n : sizes) {
        core::StageRunner<Curve> runner(n);
        std::array<double, core::kNumStages> secs{};
        for (core::Stage s : core::kAllStages) {
            double sum = 0;
            for (unsigned r = 0; r < reps; ++r)
                sum += runner.run(s).seconds;
            secs[(std::size_t)s] = sum / reps;
            stage_totals[(std::size_t)s] += secs[(std::size_t)s];
        }
        double total = 0;
        for (double v : secs)
            total += v;
        table.addRow({"2^" + std::to_string(log2Of(n)),
                      fmtSeconds(secs[0]), fmtSeconds(secs[1]),
                      fmtSeconds(secs[2]), fmtSeconds(secs[3]),
                      fmtSeconds(secs[4]), fmtSeconds(total)});
    }
    printTable(std::string("E0 execution time per stage, ") +
                   Curve::kName,
               table);

    double grand = 0;
    for (double v : stage_totals)
        grand += v;
    TextTable share;
    share.setHeader({"stage", "share of pipeline",
                     "paper (all sizes)"});
    const char* paper[] = {"-", "76.1%", "-", "13.4%", "-"};
    for (core::Stage s : core::kAllStages) {
        share.addRow({core::stageName(s),
                      fmtPct(stage_totals[(std::size_t)s] / grand, 1),
                      paper[(std::size_t)s]});
    }
    printTable(std::string("E0 stage share of total time, ") +
                   Curve::kName,
               share);
}

void
execTime()
{
    std::printf("mean of %u repeats per stage\n", repeats());
    execTimeCurve<snark::Bn254>();
    execTimeCurve<snark::Bls381>();
}

/**
 * E1 — Fig. 4: top-down microarchitecture analysis. For every stage,
 * constraint size, curve and modelled CPU, the percentage of pipeline
 * slots that are front-end bound / bad speculation / back-end bound /
 * retiring, plus the dominant bucket.
 *
 * Paper reference points: the same stage lands in different buckets on
 * different CPUs (e.g. compile is back-end bound on i5/i9 but
 * front-end bound on the i7; witness is front-end bound everywhere).
 */
template <typename Curve>
void
topDownCurve()
{
    core::SweepConfig cfg;
    cfg.sizes = sweepSizes();
    cfg.sampleMask = sampleMask();

    auto cells = core::runTopDownAnalysis<Curve>(cfg);

    TextTable table;
    table.setHeader({"stage", "n", "cpu", "front-end", "bad-spec",
                     "back-end", "retiring", "bound"});
    for (const auto& c : cells) {
        table.addRow({core::stageName(c.stage),
                      "2^" + std::to_string(log2Of(c.constraints)),
                      c.cpu, fmtPct(c.result.frontend, 1),
                      fmtPct(c.result.badSpeculation, 1),
                      fmtPct(c.result.backend, 1),
                      fmtPct(c.result.retiring, 1),
                      c.result.boundCategory()});
    }
    printTable(std::string("Fig.4 top-down slot classification, ") +
                   Curve::kName,
               table);

    // Dominant bucket summary across sizes (the Fig. 4 story).
    TextTable summary;
    summary.setHeader({"stage", "i7-8650U", "i5-11400", "i9-13900K"});
    for (core::Stage s : core::kAllStages) {
        std::array<std::string, 3> dominant;
        for (const auto& c : cells) {
            if (c.stage != s)
                continue;
            std::size_t idx = c.cpu == "i7-8650U"  ? 0
                              : c.cpu == "i5-11400" ? 1
                                                    : 2;
            dominant[idx] = c.result.boundCategory(); // last size wins
        }
        summary.addRow({core::stageName(s), dominant[0], dominant[1],
                        dominant[2]});
    }
    printTable(std::string("Fig.4 dominant bucket per CPU (largest n), ") +
                   Curve::kName,
               summary);
}

/**
 * fig4 --hw: simulated vs measured top-down level-1 classification.
 * The measured fractions come from the PERF_METRICS top-down events
 * (Intel Ice Lake and newer); on CPUs without them the mode still
 * prints measured IPC next to the simulated slot split so the
 * calibration gap stays visible.
 */
template <typename Curve>
void
topDownHwCurve(std::size_t n)
{
    core::SweepConfig cfg;
    cfg.sizes = {n};
    cfg.sampleMask = sampleMask();
    auto cells = core::runTopDownAnalysis<Curve>(cfg);

    auto rows = measureHwStages<Curve>(n, 1);

    TextTable table;
    table.setHeader({"stage", "source", "front-end", "bad-spec",
                     "back-end", "retiring", "IPC"});
    for (core::Stage s : core::kAllStages) {
        for (const auto& c : cells) {
            if (c.stage != s || c.cpu != "i9-13900K")
                continue;
            table.addRow({core::stageName(s), "sim i9",
                          fmtPct(c.result.frontend, 1),
                          fmtPct(c.result.badSpeculation, 1),
                          fmtPct(c.result.backend, 1),
                          fmtPct(c.result.retiring, 1), "-"});
        }
        for (const auto& r : rows) {
            if (r.stage != s)
                continue;
            if (r.hw.available && r.hw.topdownValid) {
                table.addRow({"", "measured",
                              fmtPct(r.hw.tdFeBound, 1),
                              fmtPct(r.hw.tdBadSpec, 1),
                              fmtPct(r.hw.tdBeBound, 1),
                              fmtPct(r.hw.tdRetiring, 1),
                              fmtF(r.hw.ipc, 2)});
            } else if (r.hw.available) {
                table.addRow({"", "measured", "n/a", "n/a", "n/a",
                              "n/a", fmtF(r.hw.ipc, 2)});
            } else {
                table.addRow({"", "measured", "n/a", "n/a", "n/a",
                              "n/a", "n/a"});
            }
        }
    }
    printTable(std::string("Fig.4 --hw: top-down L1 slots, sim vs "
                           "perf_event, n=2^") +
                   std::to_string(log2Of(n)) + ", " + Curve::kName,
               table);
}

void
topDown()
{
    topDownCurve<snark::Bn254>();
    topDownCurve<snark::Bls381>();
}

void
topDownHw(std::size_t n)
{
    topDownHwCurve<snark::Bn254>(n);
    topDownHwCurve<snark::Bls381>(n);
}

/**
 * E2 — Fig. 5: loads and stores per stage as the constraint count
 * grows, with the min/avg/max band over the two curves.
 *
 * Paper reference points: setup needs ~1000x the loads of witness and
 * verifying; proving ~100x; setup has ~10x more loads than stores;
 * witness and verifying stay flat in n.
 */
struct Series
{
    // [stage][size index] -> counts per curve.
    std::vector<double> loads[core::kNumStages];
    std::vector<double> stores[core::kNumStages];
};

template <typename Curve>
void
collect(Series& series, const std::vector<std::size_t>& sizes)
{
    core::SweepConfig cfg;
    cfg.sizes = sizes;
    cfg.sampleMask = sampleMask();
    auto cells = core::runMemoryAnalysis<Curve>(cfg);
    for (const auto& c : cells) {
        series.loads[(std::size_t)c.stage].push_back(c.loads);
        series.stores[(std::size_t)c.stage].push_back(c.stores);
    }
}

void
loadsStores()
{
    const auto sizes = sweepSizes();
    Series bn, bls;
    collect<snark::Bn254>(bn, sizes);
    collect<snark::Bls381>(bls, sizes);

    for (const char* what : {"loads", "stores"}) {
        const bool is_loads = std::string(what) == "loads";
        TextTable table;
        table.setHeader({"stage", "n", "BN128", "BLS12-381", "avg"});
        for (core::Stage s : core::kAllStages) {
            const auto& a = is_loads ? bn.loads[(std::size_t)s]
                                     : bn.stores[(std::size_t)s];
            const auto& b = is_loads ? bls.loads[(std::size_t)s]
                                     : bls.stores[(std::size_t)s];
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                table.addRow(
                    {core::stageName(s),
                     "2^" + std::to_string(log2Of(sizes[i])),
                     fmtCount((unsigned long long)a[i]),
                     fmtCount((unsigned long long)b[i]),
                     fmtCount((unsigned long long)((a[i] + b[i]) / 2))});
            }
        }
        printTable(std::string("Fig.5 ") + what + " per stage", table);
    }

    // Ratio summary at the largest size (the paper's headline shape).
    const std::size_t last = sizes.size() - 1;
    auto avg_loads = [&](core::Stage s) {
        return (bn.loads[(std::size_t)s][last] +
                bls.loads[(std::size_t)s][last]) /
               2.0;
    };
    auto avg_stores = [&](core::Stage s) {
        return (bn.stores[(std::size_t)s][last] +
                bls.stores[(std::size_t)s][last]) /
               2.0;
    };
    TextTable ratios;
    ratios.setHeader({"ratio", "measured", "paper"});
    ratios.addRow({"setup loads / witness loads",
                   fmtF(avg_loads(core::Stage::Setup) /
                            avg_loads(core::Stage::Witness),
                        0),
                   "~1000x"});
    ratios.addRow({"proving loads / witness loads",
                   fmtF(avg_loads(core::Stage::Proving) /
                            avg_loads(core::Stage::Witness),
                        0),
                   "~100x"});
    ratios.addRow({"setup loads / setup stores",
                   fmtF(avg_loads(core::Stage::Setup) /
                            avg_stores(core::Stage::Setup),
                        1),
                   "~10x"});
    printTable("Fig.5 headline ratios at largest n", ratios);
}

/**
 * E3 — Table II: LLC load MPKI for the five stages, per CPU and curve,
 * reporting the maximum across the constraint-size sweep (the paper's
 * worst-case convention).
 *
 * Paper reference points (max MPKI): witness and proving are the
 * cache-unfriendly stages (1.03 and 0.48); setup is the friendliest
 * (0.03-0.08) despite moving the most data — streaming + prefetch.
 */
using Key = std::pair<core::Stage, std::string>; // stage, cpu

template <typename Curve>
std::map<Key, double>
maxMpki()
{
    core::SweepConfig cfg;
    cfg.sizes = sweepSizes();
    cfg.sampleMask = sampleMask();
    auto cells = core::runMemoryAnalysis<Curve>(cfg);
    std::map<Key, double> out;
    for (const auto& c : cells) {
        for (const auto& pc : c.perCpu) {
            double& slot = out[{c.stage, pc.cpu}];
            slot = std::max(slot, pc.mpki);
        }
    }
    return out;
}

/**
 * table2 --hw: simulated vs measured LLC load MPKI at one size, so the
 * simulator's calibration error is a printed number instead of an
 * article of faith. Simulated values come from the modelled i9
 * hierarchy (the newest of the three); measured values from
 * perf_event LLC-load/LLC-load-miss counters on this machine.
 */
template <typename Curve>
void
mpkiHwCurve(std::size_t n)
{
    core::SweepConfig cfg;
    cfg.sizes = {n};
    cfg.sampleMask = sampleMask();
    auto cells = core::runMemoryAnalysis<Curve>(cfg);

    auto rows = measureHwStages<Curve>(n, 1);

    TextTable table;
    table.setHeader({"stage", "sim i7", "sim i5", "sim i9",
                     "measured", "i9/hw"});
    for (core::Stage s : core::kAllStages) {
        double i7 = 0, i5 = 0, i9 = 0;
        for (const auto& c : cells) {
            if (c.stage != s)
                continue;
            for (const auto& pc : c.perCpu) {
                if (pc.cpu == "i7-8650U")
                    i7 = pc.mpki;
                else if (pc.cpu == "i5-11400")
                    i5 = pc.mpki;
                else if (pc.cpu == "i9-13900K")
                    i9 = pc.mpki;
            }
        }
        double hw_mpki = 0;
        bool hw_ok = false;
        for (const auto& r : rows)
            if (r.stage == s) {
                hw_ok = r.hw.available;
                hw_mpki = r.hw.llcLoadMpki;
            }
        table.addRow({core::stageName(s), fmtF(i7, 3), fmtF(i5, 3),
                      fmtF(i9, 3), hw_ok ? fmtF(hw_mpki, 3) : "n/a",
                      hw_ok && hw_mpki > 0 ? fmtF(i9 / hw_mpki, 2)
                                           : "n/a"});
    }
    printTable(std::string("Table II --hw: LLC load MPKI, "
                           "sim vs perf_event, n=2^") +
                   std::to_string(log2Of(n)) + ", " + Curve::kName,
               table);
}

void
mpki()
{
    auto bn = maxMpki<snark::Bn254>();
    auto bls = maxMpki<snark::Bls381>();

    TextTable table;
    table.setHeader({"stage", "i7-BN", "i7-BLS", "i5-BN", "i5-BLS",
                     "i9-BN", "i9-BLS"});
    for (core::Stage s : core::kAllStages) {
        table.addRow({core::stageName(s),
                      fmtF(bn[{s, "i7-8650U"}], 3),
                      fmtF(bls[{s, "i7-8650U"}], 3),
                      fmtF(bn[{s, "i5-11400"}], 3),
                      fmtF(bls[{s, "i5-11400"}], 3),
                      fmtF(bn[{s, "i9-13900K"}], 3),
                      fmtF(bls[{s, "i9-13900K"}], 3)});
    }
    printTable("Table II: LLC load MPKI (simulated hierarchies)", table);

    TextTable paper;
    paper.setHeader({"stage", "i7-BN", "i7-BLS", "i5-BN", "i5-BLS",
                     "i9-BN", "i9-BLS"});
    paper.addRow({"compile", "0.32", "0.34", "0.32", "0.22", "0.18",
                  "0.22"});
    paper.addRow({"setup", "0.04", "0.03", "0.08", "0.06", "0.05",
                  "0.03"});
    paper.addRow({"witness", "0.62", "0.47", "0.28", "0.40", "0.29",
                  "1.03"});
    paper.addRow({"proving", "0.17", "0.14", "0.48", "0.34", "0.45",
                  "0.28"});
    paper.addRow({"verifying", "0.15", "0.10", "0.20", "0.16", "0.15",
                  "0.15"});
    printTable("Table II (paper, for comparison)", paper);
}

void
mpkiHw(std::size_t n)
{
    mpkiHwCurve<snark::Bn254>(n);
    mpkiHwCurve<snark::Bls381>(n);
}

/**
 * E4 — Table III: maximum DRAM bandwidth per stage, averaged over the
 * three modelled CPUs, per curve.
 *
 * Paper reference points: proving (25.0 GB/s) and setup (23.4 GB/s)
 * demand the highest bandwidth, about 2x compile; witness (~2.7 GB/s)
 * and verifying (~5 GB/s) barely touch DRAM.
 */
template <typename Curve>
std::array<double, core::kNumStages>
avgMaxBandwidth()
{
    core::SweepConfig cfg;
    cfg.sizes = sweepSizes();
    cfg.sampleMask = sampleMask();
    auto cells = core::runMemoryAnalysis<Curve>(cfg);

    // Per stage: max over sizes of the per-CPU max bandwidth, then
    // average over the CPUs (the paper's Table III convention).
    std::map<std::string, std::array<double, core::kNumStages>> per_cpu;
    for (const auto& c : cells)
        for (const auto& pc : c.perCpu) {
            auto& arr = per_cpu[pc.cpu];
            arr[(std::size_t)c.stage] = std::max(
                arr[(std::size_t)c.stage], pc.maxBandwidthGBps);
        }

    std::array<double, core::kNumStages> avg{};
    for (const auto& [cpu, arr] : per_cpu)
        for (std::size_t s = 0; s < core::kNumStages; ++s)
            avg[s] += arr[s] / per_cpu.size();
    return avg;
}

/**
 * table3 --hw: simulated vs measured DRAM bandwidth demand. The
 * measured side is estimated as LLC-load-misses x 64B over the
 * stage's wall time — a lower bound (stores and prefetch fills are
 * not counted) that still ranks the stages the way Table III does.
 */
template <typename Curve>
void
bandwidthHwCurve(std::size_t n)
{
    core::SweepConfig cfg;
    cfg.sizes = {n};
    cfg.sampleMask = sampleMask();
    auto cells = core::runMemoryAnalysis<Curve>(cfg);

    auto rows = measureHwStages<Curve>(n, 1);

    TextTable table;
    table.setHeader({"stage", "sim i9 max GB/s", "measured GB/s",
                     "hw LLC MB", "hw seconds"});
    for (core::Stage s : core::kAllStages) {
        double sim = 0;
        for (const auto& c : cells) {
            if (c.stage != s)
                continue;
            for (const auto& pc : c.perCpu)
                if (pc.cpu == "i9-13900K")
                    sim = pc.maxBandwidthGBps;
        }
        for (const auto& r : rows) {
            if (r.stage != s)
                continue;
            const bool ok = r.hw.available;
            table.addRow(
                {core::stageName(s), fmtF(sim, 2),
                 ok ? fmtF(r.hw.bandwidthGBps, 3) : "n/a",
                 ok ? fmtF(r.hw.dramBytesEst / 1e6, 2) : "n/a",
                 ok ? fmtF(r.hw.seconds, 4) : "n/a"});
        }
    }
    printTable(std::string("Table III --hw: DRAM bandwidth, sim vs "
                           "perf_event estimate, n=2^") +
                   std::to_string(log2Of(n)) + ", " + Curve::kName,
               table);
}

void
bandwidth()
{
    auto bn = avgMaxBandwidth<snark::Bn254>();
    auto bls = avgMaxBandwidth<snark::Bls381>();

    TextTable table;
    table.setHeader({"EC", "compile", "setup", "witness", "proving",
                     "verifying"});
    auto row = [&](const char* name,
                   const std::array<double, core::kNumStages>& a) {
        table.addRow({name, fmtF(a[0], 2), fmtF(a[1], 2), fmtF(a[2], 2),
                      fmtF(a[3], 2), fmtF(a[4], 2)});
    };
    row("BN (GB/s)", bn);
    row("BLS (GB/s)", bls);
    table.addRow({"paper BN", "10.30", "23.40", "2.70", "25.00", "5.20"});
    table.addRow({"paper BLS", "11.50", "20.20", "2.80", "22.90",
                  "4.40"});
    printTable("Table III: maximum memory bandwidth", table);
}

void
bandwidthHw(std::size_t n)
{
    bandwidthHwCurve<snark::Bn254>(n);
    bandwidthHwCurve<snark::Bls381>(n);
}

/**
 * E5 — Table IV: the function families that dominate CPU time per
 * stage (the paper's VTune hotspot list: memcpy, bigint, heap
 * allocation/malloc, plus the interpreter dispatch that stands in for
 * the WASM host).
 *
 * Paper reference points: compile spends ~12% in malloc, ~8% in
 * memcpy, ~5% in bigint; proving ~10% in memcpy; verifying ~10% in
 * bigint.
 */
template <typename Curve>
void
functionsCurve()
{
    core::SweepConfig cfg;
    cfg.sizes = {sweepSizes().back()};
    auto cells = core::runCodeAnalysis<Curve>(cfg);

    TextTable table;
    table.setHeader(
        {"stage", "function", "share of stage CPU time"});
    for (const auto& c : cells) {
        for (const auto& f : c.functions) {
            if (f.pct < 0.5)
                continue; // hotspot list, like the profiler's cut-off
            table.addRow({core::stageName(c.stage), f.function,
                          fmtF(f.pct, 1) + "%"});
        }
    }
    printTable(std::string("Table IV: time-consuming functions, ") +
                   Curve::kName,
               table);
}

void
functions()
{
    functionsCurve<snark::Bn254>();
    functionsCurve<snark::Bls381>();
    std::printf("\npaper reference: compile ~12%% malloc, ~8%% memcpy, "
                "~5%% bigint; proving ~10%% memcpy; verifying ~10%% "
                "bigint\n");
}

/**
 * E6 — Table V: the compute / control-flow / data-flow instruction
 * mix of each stage (the DynamoRIO opcode-mix profile), averaged over
 * the size sweep, per curve.
 *
 * Paper reference points: setup/proving/verifying are
 * compute-intensive (42.6 / 47.3 / 48.2% average); compile is
 * data-flow intensive (39.6%); witness is the control-flow-intensive
 * stage.
 */
template <typename Curve>
std::array<core::OpcodeMix, core::kNumStages>
averageMix()
{
    core::SweepConfig cfg;
    cfg.sizes = sweepSizes();
    auto cells = core::runCodeAnalysis<Curve>(cfg);
    std::array<core::OpcodeMix, core::kNumStages> avg{};
    std::array<unsigned, core::kNumStages> count{};
    for (const auto& c : cells) {
        auto& a = avg[(std::size_t)c.stage];
        a.computePct += c.mix.computePct;
        a.controlPct += c.mix.controlPct;
        a.dataPct += c.mix.dataPct;
        ++count[(std::size_t)c.stage];
    }
    for (std::size_t s = 0; s < core::kNumStages; ++s) {
        if (!count[s])
            continue;
        avg[s].computePct /= count[s];
        avg[s].controlPct /= count[s];
        avg[s].dataPct /= count[s];
    }
    return avg;
}

void
opcodeMix()
{
    auto bn = averageMix<snark::Bn254>();
    auto bls = averageMix<snark::Bls381>();

    TextTable table;
    table.setHeader({"stage", "BN Comp%", "BN Ctrl%", "BN Data%",
                     "BLS Comp%", "BLS Ctrl%", "BLS Data%",
                     "dominant"});
    for (core::Stage s : core::kAllStages) {
        const auto& a = bn[(std::size_t)s];
        const auto& b = bls[(std::size_t)s];
        const char* dom = "compute";
        double c_avg = (a.computePct + b.computePct) / 2;
        double t_avg = (a.controlPct + b.controlPct) / 2;
        double d_avg = (a.dataPct + b.dataPct) / 2;
        if (t_avg > c_avg && t_avg > d_avg)
            dom = "control-flow";
        else if (d_avg > c_avg && d_avg > t_avg)
            dom = "data-flow";
        table.addRow({core::stageName(s), fmtF(a.computePct, 2),
                      fmtF(a.controlPct, 2), fmtF(a.dataPct, 2),
                      fmtF(b.computePct, 2), fmtF(b.controlPct, 2),
                      fmtF(b.dataPct, 2), dom});
    }
    printTable("Table V: opcode-type percentages", table);

    TextTable paper;
    paper.setHeader({"stage", "BN Comp%", "BN Ctrl%", "BN Data%",
                     "BLS Comp%", "BLS Ctrl%", "BLS Data%"});
    paper.addRow({"compile", "32.68", "28.99", "38.33", "38.68",
                  "20.42", "40.89"});
    paper.addRow({"setup", "42.60", "20.16", "37.24", "42.53", "20.36",
                  "37.10"});
    paper.addRow({"witness", "35.96", "29.49", "34.55", "39.16",
                  "28.26", "32.57"});
    paper.addRow({"proving", "40.96", "22.69", "36.35", "53.66",
                  "16.27", "30.07"});
    paper.addRow({"verifying", "46.66", "24.81", "28.53", "49.75",
                  "23.04", "27.21"});
    printTable("Table V (paper, for comparison)", paper);
}

/**
 * E7 — Fig. 6: strong scaling. Speedup of each stage on the modelled
 * i9-13900K as the thread count grows 1..32 at fixed constraint
 * counts.
 *
 * The parallelizable share of every stage is *measured* (wall time
 * inside parallel regions); the projection to k threads applies the
 * work/span model with the i9's P/E/SMT capacity curve (the host the
 * benches run on may not have 32 hardware threads — see
 * EXPERIMENTS.md).
 *
 * Paper reference points: at 2^18 constraints setup reaches ~5.3x and
 * proving ~3.5x; compile and witness saturate around 2x; verifying is
 * flat; tiny tasks degrade beyond ~18 threads.
 */
template <typename Curve>
void
strongScalingCurve()
{
    const std::vector<unsigned> threads{1, 2, 4, 8, 12, 18, 24, 32};
    core::SweepConfig cfg;
    cfg.sizes = sweepSizes();
    auto curves = core::runStrongScaling<Curve>(cfg, threads,
                                                sim::cpuI9_13900K());

    TextTable table;
    std::vector<std::string> header{"stage", "n", "par%"};
    for (unsigned t : threads)
        header.push_back("x" + std::to_string(t));
    table.setHeader(header);
    for (const auto& c : curves) {
        std::vector<std::string> row{
            core::stageName(c.stage),
            "2^" + std::to_string(log2Of(c.constraints)),
            fmtF(100 * c.measuredParallelFraction, 1)};
        for (const auto& [t, sp] : c.speedups)
            row.push_back(fmtF(sp, 2));
        table.addRow(row);
    }
    printTable(std::string("Fig.6 strong-scaling speedup on the i9 "
                           "model, ") +
                   Curve::kName,
               table);
}

void
strongScaling()
{
    strongScalingCurve<snark::Bn254>();
    strongScalingCurve<snark::Bls381>();
    std::printf("\npaper reference (2^18): setup ~5.26x, proving "
                "~3.51x; compile/witness saturate ~2x; verifying "
                "flat\n");
}

/**
 * E8 — Fig. 7: weak scaling on the modelled i9. Threads double from
 * 1 to 32 while the constraint count doubles with them, starting from
 * ZKP_WS_BASE_LOG_N (default 2^10; the paper starts at 2^13).
 *
 * Paper reference points: proving keeps scaling as the problem grows;
 * witness and verifying show near-linear WS speedup because their
 * absolute time is (nearly) independent of the constraint count.
 */
// The thread lists are built on use, not as globals: a heap block
// allocated before main shifts the heap layout the cache model sees,
// and with it the MPKI, bandwidth and top-down cells of fig4, table2
// and table3.
std::vector<unsigned>
doublingThreads()
{
    return {1, 2, 4, 8, 16, 32};
}

std::size_t
weakScalingBase()
{
    return std::size_t(1) << envLong("ZKP_WS_BASE_LOG_N", 10);
}

template <typename Curve>
void
weakScalingCurve(std::size_t base)
{
    const auto threads = doublingThreads();
    auto curves = core::runWeakScaling<Curve>(base, threads,
                                              sim::cpuI9_13900K());

    TextTable table;
    std::vector<std::string> header{"stage"};
    for (unsigned t : threads) {
        header.push_back("x" + std::to_string(t) + " (n=2^" +
                         std::to_string(log2Of(base * t)) + ")");
    }
    header.push_back("Gustafson serial%");
    table.setHeader(header);
    for (const auto& c : curves) {
        std::vector<std::string> row{core::stageName(c.stage)};
        for (const auto& [t, sp] : c.speedups)
            row.push_back(fmtF(sp, 2));
        row.push_back(fmtF(100 * c.fittedSerial, 1));
        table.addRow(row);
    }
    printTable(std::string("Fig.7 weak-scaling speedup on the i9 "
                           "model, ") +
                   Curve::kName,
               table);
}

void
weakScaling()
{
    const std::size_t base = weakScalingBase();
    weakScalingCurve<snark::Bn254>(base);
    weakScalingCurve<snark::Bls381>(base);
    std::printf("\npaper reference: witness/verifying near-linear WS "
                "speedup; proving the most scalable compute stage\n");
}

/**
 * E9 — Table VI: serial/parallel percentage per stage from fitting
 * the strong-scaling curves to Amdahl's law and the weak-scaling
 * curves to Gustafson's law, on the modelled i9, for both curves.
 *
 * Paper reference points (SS-i9-BN): proving is the most parallel
 * stage (72.7% parallel); compile 41.9%, setup 58.6%. WS shows >90%
 * parallelism for witness and verifying (their runtimes are ~constant
 * in n, so the scaled workload is "free").
 */
struct Fits
{
    std::array<double, core::kNumStages> ssSerial{};
    std::array<double, core::kNumStages> wsSerial{};
};

template <typename Curve>
Fits
fitCurve()
{
    Fits fits;
    core::SweepConfig cfg;
    cfg.sizes = sweepSizes();

    const auto threads = doublingThreads();
    auto ss = core::runStrongScaling<Curve>(cfg, threads,
                                            sim::cpuI9_13900K());
    std::array<double, core::kNumStages> sum{};
    std::array<unsigned, core::kNumStages> cnt{};
    for (const auto& c : ss) {
        sum[(std::size_t)c.stage] += c.fittedSerial;
        ++cnt[(std::size_t)c.stage];
    }
    for (std::size_t s = 0; s < core::kNumStages; ++s)
        fits.ssSerial[s] = cnt[s] ? sum[s] / cnt[s] : 1.0;

    auto ws = core::runWeakScaling<Curve>(
        weakScalingBase(), threads, sim::cpuI9_13900K());
    for (const auto& c : ws)
        fits.wsSerial[(std::size_t)c.stage] = c.fittedSerial;
    return fits;
}

void
parallelism()
{
    auto bn = fitCurve<snark::Bn254>();
    auto bls = fitCurve<snark::Bls381>();

    TextTable table;
    table.setHeader({"stage", "SS-BN ser%", "SS-BN par%", "SS-BLS ser%",
                     "SS-BLS par%", "WS-BN ser%", "WS-BN par%",
                     "WS-BLS ser%", "WS-BLS par%"});
    for (core::Stage s : core::kAllStages) {
        const std::size_t i = (std::size_t)s;
        table.addRow({core::stageName(s),
                      fmtF(100 * bn.ssSerial[i], 2),
                      fmtF(100 * (1 - bn.ssSerial[i]), 2),
                      fmtF(100 * bls.ssSerial[i], 2),
                      fmtF(100 * (1 - bls.ssSerial[i]), 2),
                      fmtF(100 * bn.wsSerial[i], 2),
                      fmtF(100 * (1 - bn.wsSerial[i]), 2),
                      fmtF(100 * bls.wsSerial[i], 2),
                      fmtF(100 * (1 - bls.wsSerial[i]), 2)});
    }
    printTable("Table VI: serial/parallel percentages", table);

    TextTable paper;
    paper.setHeader({"stage", "SS-BN ser%", "SS-BN par%", "SS-BLS ser%",
                     "SS-BLS par%", "WS-BN ser%", "WS-BN par%",
                     "WS-BLS ser%", "WS-BLS par%"});
    paper.addRow({"compile", "58.09", "41.90", "62.50", "37.49",
                  "69.65", "30.35", "71.98", "28.02"});
    paper.addRow({"setup", "41.35", "58.64", "68.30", "31.69", "73.59",
                  "26.41", "75.11", "24.89"});
    paper.addRow({"witness", "31.73", "68.26", "50.17", "49.82", "3.59",
                  "96.41", "7.75", "92.25"});
    paper.addRow({"proving", "27.28", "72.71", "31.06", "68.93",
                  "29.57", "70.43", "25.38", "74.62"});
    paper.addRow({"verifying", "43.68", "56.31", "57.56", "42.43",
                  "1.00", "99.00", "1.00", "99.00"});
    printTable("Table VI (paper, for comparison)", paper);
}

/** One paper result: its banner, its tables, and an optional --hw
 *  comparison run at the largest swept size. */
struct Analysis
{
    const char* name;
    const char* banner;
    void (*run)();
    const char* hwBanner = nullptr;
    void (*hw)(std::size_t n) = nullptr;
};

const Analysis kAnalyses[] = {
    {"exec_time", "stage elapsed times", execTime},
    {"fig4", "top-down analysis across the three modelled CPUs", topDown,
     "simulated vs measured top-down classification", topDownHw},
    {"fig5", "memory reference volume per stage", loadsStores},
    {"fig6", "speedup vs threads (fixed problem size)", strongScaling},
    {"fig7", "threads and constraints double together", weakScaling},
    {"table2", "max LLC load MPKI per stage (max over the size sweep)",
     mpki, "simulated vs measured LLC load MPKI", mpkiHw},
    {"table3", "max DRAM bandwidth per stage (avg of the 3 modelled CPUs)",
     bandwidth, "simulated vs measured DRAM bandwidth", bandwidthHw},
    {"table4", "function-level code analysis (calibrated attribution)",
     functions},
    {"table5", "instruction-class mix per stage (avg over sizes)",
     opcodeMix},
    {"table6", "Amdahl/Gustafson serial-parallel split (i9 model)",
     parallelism},
};

int
usage()
{
    std::fprintf(stderr, "usage: bench_paper <analysis> [--hw]\n"
                         "analyses:");
    for (const Analysis& a : kAnalyses)
        std::fprintf(stderr, " %s", a.name);
    std::fprintf(stderr, "\n--hw is accepted by:");
    for (const Analysis& a : kAnalyses)
        if (a.hw)
            std::fprintf(stderr, " %s", a.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace
} // namespace zkp::bench

int
main(int argc, char** argv)
{
    using namespace zkp::bench;

    const Analysis* a = nullptr;
    if (argc > 1)
        for (const Analysis& cand : kAnalyses)
            if (std::strcmp(argv[1], cand.name) == 0)
                a = &cand;
    const bool hw = argc == 3 && std::strcmp(argv[2], "--hw") == 0;
    if (!a || argc > 3 || (argc == 3 && !hw) || (hw && !a->hw))
        return usage();

    if (hw) {
        std::printf("bench_paper %s --hw: %s\n", a->name, a->hwBanner);
        if (hwModeUsable(a->name)) {
            a->hw(sweepSizes().back());
            return 0;
        }
        // Fall through to the simulated tables.
    }
    std::printf("bench_paper %s: %s\n", a->name, a->banner);
    a->run();
    return 0;
}
