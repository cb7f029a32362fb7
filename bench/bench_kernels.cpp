/**
 * @file
 * Kernel baseline emitter: times the hot kernels (parallel region
 * entry, NTT, MSM, Groth16 prove) with plain chrono and writes a
 * machine-readable JSON baseline. CI and PRs commit the output as
 * BENCH_kernels.json so kernel-level regressions show up in review
 * (see docs/PERFORMANCE.md for the schema). bench_compare reruns the
 * same kernel set against a stored baseline and fails on regression.
 *
 * Run: ./build/bench/bench_kernels [out.json] [--note key=value]...
 *
 * Environment knobs:
 *   ZKP_KERNEL_LOG_N    prove size as log2 constraints (default 16)
 *   ZKP_KERNEL_THREADS  thread count for threaded entries (default 8)
 *   ZKP_REPEATS         timing repeats per entry (default 3)
 */

#include "kernels_common.h"

int
main(int argc, char** argv)
{
    using namespace zkp;
    std::string out_path = "BENCH_kernels.json";
    std::vector<std::pair<std::string, std::string>> notes;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--note") == 0 && i + 1 < argc) {
            const std::string kv = argv[++i];
            const auto eq = kv.find('=');
            notes.emplace_back(kv.substr(0, eq),
                               eq == std::string::npos
                                   ? std::string()
                                   : kv.substr(eq + 1));
        } else if (argv[i][0] != '-' && positional++ == 0) {
            out_path = argv[i];
        } else {
            std::fprintf(stderr,
                         "unknown argument: %s\n"
                         "usage: %s [out.json] [--note key=value]...\n",
                         argv[i], argv[0]);
            return 2;
        }
    }

    const std::size_t log_n =
        (std::size_t)bench::envLong("ZKP_KERNEL_LOG_N", 16);
    const std::size_t threads =
        (std::size_t)bench::envLong("ZKP_KERNEL_THREADS", 8);

    std::printf("bench_kernels: prove at 2^%zu constraints, %zu "
                "threads\n\n", log_n, threads);

    const auto entries = bench::runKernelEntries(log_n, threads);

    if (!bench::writeKernelJson(
            out_path,
            bench::kernelEntriesJson("bench_kernels", entries, notes))) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::printf("\nbaseline written to %s\n", out_path.c_str());
    return 0;
}
