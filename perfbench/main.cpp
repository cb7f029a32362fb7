// zkbench: the benchmark binary behind perfbench/run.py.
//
//   zkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--log2 --serve-exp --serve-poseidon --rate
//            --ladder-serve-seconds --spans-out; see perfbench/spec.json]
//
// Prints the host fingerprint, notes, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics of the named workload; traced runs
// climb the layer ladder and report the per-layer metrics. Exits 1
// when any output was wrong, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using zkbench::Options;

int
usage(const char* msg)
{
    std::fprintf(stderr, "zkbench: %s\n", msg);
    return 2;
}

bool
parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const char* v = argv[++i];
        auto num = [&] { return std::strtod(v, nullptr); };
        auto size = [&] { return (std::size_t)std::strtoull(v, nullptr, 10); };
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            o.seconds = num();
        else if (k == "--trace")
            o.trace = std::strcmp(v, "1") == 0;
        else if (k == "--log2")
            o.log2 = size();
        else if (k == "--serve-exp")
            o.serveExpScale = size();
        else if (k == "--serve-poseidon")
            o.servePoseidonScale = size();
        else if (k == "--rate")
            o.rate = num();
        else if (k == "--ladder-serve-seconds")
            o.ladderServeSeconds = num();
        else if (k == "--spans-out")
            o.spansOut = v;
        else
            return false;
    }
    return o.seconds > 0 && o.rate > 0 && o.log2 >= 4 && o.log2 <= 20;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return usage("bad arguments");
    const bool known = o.workload == "groth16-exp-2e16" ||
                       o.workload == "stark-mimc-2e16" ||
                       o.workload == "serve-groth16-open";
    if (!known)
        return usage("unknown workload");

    std::printf("%s\n", zkbench::hostFingerprint().c_str());
    zkbench::Result res;
    if (o.trace) {
        zkbench::runLadder(o, res);
    } else {
        if (o.workload == "groth16-exp-2e16")
            zkbench::runGroth16(o, res);
        else if (o.workload == "stark-mimc-2e16")
            zkbench::runStark(o, res);
        else
            zkbench::runServe(o, res);
        res.set("peak_rss_mb", zkbench::peakRssMiB(), "MiB");
        res.set("ok_frac", res.okFrac(), "ratio");
    }
    zkbench::printResult(res);
    return res.failed == 0 ? 0 : 1;
}
