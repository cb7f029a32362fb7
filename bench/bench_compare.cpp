/**
 * @file
 * Perf regression gate: load a kernel baseline (BENCH_kernels.json),
 * rerun the same kernel set, and fail when any kernel slowed down
 * beyond the threshold. The fresh measurements are written next to
 * the baseline (<baseline>.new.json) so promoting them is a file
 * rename and the repo accumulates a perf trajectory.
 *
 * Run: ./build/bench/bench_compare [baseline.json]
 *          [--threshold <pct>] [--mem-threshold <pct>] [--out <path>]
 *          [--update] [--against <results.json>] [--require-all]
 *
 *   --threshold      allowed slowdown in percent (default 10; also
 *                    ZKP_BENCH_THRESHOLD)
 *   --mem-threshold  allowed growth in percent for the memory fields
 *                    (peak_rss_bytes, alloc_bytes); independent of
 *                    the time gate because footprint noise differs
 *                    from timing noise (default 25; also
 *                    ZKP_BENCH_MEM_THRESHOLD). Gated only when both
 *                    sides carry a nonzero measurement, so pre-mem
 *                    baselines keep passing.
 *   --out            where to write the fresh results
 *                    (default <baseline>.new.json)
 *   --update         overwrite the baseline itself with the fresh
 *                    results after a passing run
 *   --against        compare the baseline to an already-written
 *                    results file instead of rerunning the kernel
 *                    set. Accepts any document with the
 *                    BENCH_kernels.json "results" entry schema —
 *                    including BENCH_serve.json from bench_serve — so
 *                    two serving runs can be diffed without
 *                    re-measuring.
 *   --require-all    baseline entries missing from the current run
 *                    fail the gate instead of being ignored. CI uses
 *                    this so a kernel silently dropped from the set
 *                    (a renamed entry, a crashed measurement) cannot
 *                    masquerade as a pass.
 *
 * Comparison uses min-of-repeats seconds (noise-robust); entries are
 * matched by (name, n, threads). Without --require-all, entries
 * present on only one side are reported but never fail the gate, so
 * adding or retiring kernels does not break local runs. Exit code:
 * 0 pass, 1 regression/missing, 2 usage/I-O.
 */

#include "kernels_common.h"

int
main(int argc, char** argv)
{
    using namespace zkp;
    std::string baseline_path = "BENCH_kernels.json";
    std::string out_path;
    std::string against_path;
    double threshold_pct =
        (double)bench::envLong("ZKP_BENCH_THRESHOLD", 10);
    double mem_threshold_pct =
        (double)bench::envLong("ZKP_BENCH_MEM_THRESHOLD", 25);
    bool update = false;
    bool require_all = false;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
            threshold_pct = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--mem-threshold") == 0 &&
                   i + 1 < argc) {
            mem_threshold_pct = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--against") == 0 &&
                   i + 1 < argc) {
            against_path = argv[++i];
        } else if (std::strcmp(argv[i], "--update") == 0) {
            update = true;
        } else if (std::strcmp(argv[i], "--require-all") == 0) {
            require_all = true;
        } else if (positional == 0) {
            baseline_path = argv[i];
            ++positional;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }
    if (out_path.empty())
        out_path = baseline_path + ".new.json";

    std::string text;
    if (!bench::readFileText(baseline_path, text)) {
        std::fprintf(stderr, "cannot read baseline %s\n",
                     baseline_path.c_str());
        return 2;
    }
    const auto baseline = bench::parseKernelBaseline(text);
    if (baseline.empty()) {
        std::fprintf(stderr, "no kernel entries in %s\n",
                     baseline_path.c_str());
        return 2;
    }

    std::vector<bench::KernelEntry> fresh;
    if (!against_path.empty()) {
        std::string against_text;
        if (!bench::readFileText(against_path, against_text)) {
            std::fprintf(stderr, "cannot read results %s\n",
                         against_path.c_str());
            return 2;
        }
        fresh = bench::parseKernelBaseline(against_text);
        if (fresh.empty()) {
            std::fprintf(stderr, "no kernel entries in %s\n",
                         against_path.c_str());
            return 2;
        }
        std::printf("bench_compare: baseline %s (%zu entries) vs "
                    "%s (%zu entries), threshold %.1f%%\n\n",
                    baseline_path.c_str(), baseline.size(),
                    against_path.c_str(), fresh.size(),
                    threshold_pct);
    } else {
        const std::size_t log_n =
            (std::size_t)bench::envLong("ZKP_KERNEL_LOG_N", 16);
        const std::size_t threads =
            (std::size_t)bench::envLong("ZKP_KERNEL_THREADS", 8);
        std::printf("bench_compare: baseline %s (%zu entries), "
                    "threshold %.1f%%\n\n",
                    baseline_path.c_str(), baseline.size(),
                    threshold_pct);
        fresh = bench::runKernelEntries(log_n, threads);
    }

    TextTable table;
    table.setHeader({"kernel", "n", "threads", "baseline s",
                     "current s", "delta", "verdict"});
    TextTable memTable;
    memTable.setHeader({"kernel", "metric", "baseline", "current",
                        "delta", "verdict"});
    unsigned regressions = 0, improvements = 0, matched = 0;
    unsigned missing = 0, memRegressions = 0, memMatched = 0;

    // Gate one memory field of one matched kernel pair. Only pairs
    // where both sides measured (nonzero) participate, so baselines
    // written before the mem fields existed — or on machines without
    // /proc — neither fail nor silently anchor a zero baseline.
    auto gateMem = [&](const bench::KernelEntry& b, std::uint64_t base,
                       std::uint64_t cur, const char* metric) {
        if (base == 0 || cur == 0)
            return;
        ++memMatched;
        const double delta_pct =
            100.0 * ((double)cur - (double)base) / (double)base;
        const bool regressed = delta_pct > mem_threshold_pct;
        if (regressed)
            ++memRegressions;
        char delta_buf[32];
        std::snprintf(delta_buf, sizeof(delta_buf), "%+.1f%%",
                      delta_pct);
        memTable.addRow({b.name, metric, std::to_string(base),
                         std::to_string(cur), delta_buf,
                         regressed ? "REGRESSED" : "ok"});
    };

    for (const auto& b : baseline) {
        const bench::KernelEntry* cur = nullptr;
        for (const auto& f : fresh)
            if (f.name == b.name && f.n == b.n &&
                f.threads == b.threads)
                cur = &f;
        if (!cur) {
            ++missing;
            table.addRow({b.name, std::to_string(b.n),
                          std::to_string(b.threads),
                          fmtF(b.secondsMin, 6), "-", "-",
                          require_all ? "MISSING"
                                      : "missing (ignored)"});
            continue;
        }
        ++matched;
        gateMem(b, b.peakRssBytes, cur->peakRssBytes,
                "peak_rss_bytes");
        gateMem(b, b.allocBytes, cur->allocBytes, "alloc_bytes");
        const double delta_pct =
            b.secondsMin > 0
                ? 100.0 * (cur->secondsMin - b.secondsMin) /
                      b.secondsMin
                : 0.0;
        const bool regressed = delta_pct > threshold_pct;
        const bool improved = delta_pct < -threshold_pct;
        if (regressed)
            ++regressions;
        if (improved)
            ++improvements;
        char delta_buf[32];
        std::snprintf(delta_buf, sizeof(delta_buf), "%+.1f%%",
                      delta_pct);
        table.addRow({b.name, std::to_string(b.n),
                      std::to_string(b.threads),
                      fmtF(b.secondsMin, 6),
                      fmtF(cur->secondsMin, 6), delta_buf,
                      regressed   ? "REGRESSED"
                      : improved  ? "improved"
                                  : "ok"});
    }
    for (const auto& f : fresh) {
        bool known = false;
        for (const auto& b : baseline)
            if (f.name == b.name && f.n == b.n &&
                f.threads == b.threads)
                known = true;
        if (!known)
            table.addRow({f.name, std::to_string(f.n),
                          std::to_string(f.threads), "-",
                          fmtF(f.secondsMin, 6), "-",
                          "new (ignored)"});
    }
    bench::printTable("bench_compare: baseline vs current (min "
                      "seconds)", table);
    if (memMatched > 0)
        bench::printTable("bench_compare: memory footprint gate "
                          "(bytes)", memTable);

    if (against_path.empty()) {
        std::vector<std::pair<std::string, std::string>> notes;
        notes.emplace_back("baseline", baseline_path);
        if (!bench::writeKernelJson(
                out_path,
                bench::kernelEntriesJson("bench_kernels", fresh, notes)))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         out_path.c_str());
        else
            std::printf("current results written to %s\n",
                        out_path.c_str());
    }

    if (regressions > 0 || memRegressions > 0 ||
        (require_all && missing > 0)) {
        if (regressions > 0)
            std::printf("\nFAIL: %u of %u matched kernels regressed "
                        "beyond %.1f%%\n",
                        regressions, matched, threshold_pct);
        if (memRegressions > 0)
            std::printf("\nFAIL: %u of %u memory measurements grew "
                        "beyond %.1f%%\n",
                        memRegressions, memMatched,
                        mem_threshold_pct);
        if (require_all && missing > 0)
            std::printf("\nFAIL: %u baseline entries missing from "
                        "the current run (--require-all)\n",
                        missing);
        return 1;
    }
    if (update) {
        if (bench::writeKernelJson(
                baseline_path,
                bench::kernelEntriesJson("bench_kernels", fresh, {})))
            std::printf("baseline %s updated\n",
                        baseline_path.c_str());
        else
            std::fprintf(stderr, "warning: cannot update %s\n",
                         baseline_path.c_str());
    }
    std::printf("\nPASS: %u kernels within %.1f%% of baseline "
                "(%u improved); %u memory measurements within "
                "%.1f%%\n",
                matched, threshold_pct, improvements, memMatched,
                mem_threshold_pct);
    return 0;
}
