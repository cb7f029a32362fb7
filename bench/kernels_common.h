/**
 * @file
 * Shared machinery of the kernel-baseline benches: the timed kernel
 * set (region entry, NTT, MSM, Groth16 prove), the BENCH_*.json
 * schema writer, and a small tolerant reader for existing baselines.
 *
 * bench_kernels emits a fresh baseline; bench_compare reruns the same
 * kernels against a stored baseline and fails on regression, so the
 * repo accumulates a perf trajectory instead of single snapshots
 * (docs/PERFORMANCE.md describes the workflow).
 */

#ifndef ZKP_BENCH_KERNELS_COMMON_H
#define ZKP_BENCH_KERNELS_COMMON_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "ec/msm.h"
#include "obs/json.h"
#include "obs/memprof.h"
#include "poly/domain.h"

namespace zkp::bench {

/**
 * One timed kernel: identity plus mean/min-of-repeats seconds and the
 * memory footprint fields the mem gate compares (docs/PERFORMANCE.md).
 * peakRssBytes is the process high-water mark (VmHWM) after the
 * kernel ran — monotonic, so it reads as "footprint ceiling once this
 * point of the canonical kernel sequence is reached". allocBytes is
 * the mean per-repeat bytes allocated on the timing thread, nonzero
 * only under ZKP_MEMPROF=1 (parallelFor worker allocations are not
 * attributed — same caveat as the serve lanes).
 */
struct KernelEntry
{
    std::string name;
    std::size_t n = 0;
    std::size_t threads = 1;
    unsigned repeats = 1;
    double secondsMean = 0;
    double secondsMin = 0;
    std::uint64_t peakRssBytes = 0;
    std::uint64_t allocBytes = 0;
};

inline double
kernelNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Time fn() `repeats` times; record mean and min. */
template <typename Fn>
KernelEntry
timeKernel(const std::string& name, std::size_t n, std::size_t threads,
           Fn&& fn)
{
    KernelEntry e;
    e.name = name;
    e.n = n;
    e.threads = threads;
    e.repeats = repeats();
    const bool mem = obs::memprof::tracking();
    const std::uint64_t alloc0 =
        mem ? obs::memprof::threadStats().allocBytes : 0;
    double sum = 0, best = 0;
    for (unsigned r = 0; r < e.repeats; ++r) {
        const double t0 = kernelNow();
        fn();
        const double dt = kernelNow() - t0;
        sum += dt;
        if (r == 0 || dt < best)
            best = dt;
    }
    e.secondsMean = sum / e.repeats;
    e.secondsMin = best;
    e.peakRssBytes = obs::memprof::peakRssBytes();
    if (mem)
        e.allocBytes = (obs::memprof::threadStats().allocBytes -
                        alloc0) /
                       e.repeats;
    std::printf("  %-28s n=%-8zu threads=%zu  %.6fs (min %.6fs)\n",
                e.name.c_str(), e.n, e.threads, e.secondsMean,
                e.secondsMin);
    std::fflush(stdout);
    return e;
}

/**
 * Run the canonical kernel set (the entries BENCH_kernels.json pins):
 * pool vs spawn region entry, single/multi-thread NTT and MSM, and
 * the end-to-end Groth16 proving stage.
 */
inline std::vector<KernelEntry>
runKernelEntries(std::size_t log_n, std::size_t threads)
{
    std::vector<KernelEntry> entries;

    // Region-entry overhead: pool vs per-region thread spawn. 1000
    // near-empty regions isolate the fork-join cost itself.
    {
        const std::size_t regions = 1000;
        std::vector<u64> sink(threads, 0);
        parallelFor(1024, threads,
                    [](std::size_t, std::size_t, std::size_t) {});
        entries.push_back(timeKernel(
            "region_overhead_pool", regions, threads, [&] {
                for (std::size_t r = 0; r < regions; ++r)
                    parallelFor(1024, threads,
                                [&](std::size_t slot, std::size_t b,
                                    std::size_t e) {
                                    sink[slot] += e - b;
                                });
            }));
        entries.push_back(timeKernel(
            "region_overhead_spawn", regions, threads, [&] {
                for (std::size_t r = 0; r < regions; ++r) {
                    const std::size_t n = 1024;
                    const std::size_t per =
                        (n + threads - 1) / threads;
                    std::vector<std::thread> ts;
                    for (std::size_t t = 0; t < threads; ++t) {
                        const std::size_t b = t * per;
                        const std::size_t e =
                            b + per < n ? b + per : n;
                        ts.emplace_back(
                            [&, t, b, e] { sink[t] += e - b; });
                    }
                    for (auto& t : ts)
                        t.join();
                }
            }));
    }

    // NTT: one forward transform per timing (twiddles cached after
    // the first, which is the steady state a prove sees).
    {
        using Fr = ff::bn254::Fr;
        const std::size_t n = std::size_t(1) << 14;
        poly::Domain<Fr> dom(n);
        Rng rng(11);
        std::vector<Fr> v(n);
        for (auto& x : v)
            x = Fr::random(rng);
        dom.ntt(v, 1); // build the twiddle cache outside the clock
        for (std::size_t t : {std::size_t(1), threads})
            entries.push_back(
                timeKernel("ntt_forward", n, t, [&] { dom.ntt(v, t); }));
    }

    // MSM: signed-window Pippenger at a mid sweep size.
    {
        using G1 = ec::Bn254G1;
        using Fr = G1::Scalar;
        const std::size_t n = std::size_t(1) << 13;
        Rng rng(12);
        G1::Jacobian g{G1::generator()};
        std::vector<G1::Affine> pts;
        std::vector<Fr::Repr> scalars;
        for (std::size_t i = 0; i < n; ++i) {
            pts.push_back(
                g.mulScalar(rng.nextBelow(1 << 20) + 1).toAffine());
            scalars.push_back(Fr::random(rng).toBigInt());
        }
        for (std::size_t t : {std::size_t(1), threads})
            entries.push_back(timeKernel("msm_pippenger", n, t, [&] {
                auto p = ec::msmCurve<G1>(pts.data(), scalars.data(),
                                          n, t);
                (void)p;
            }));
    }

    // End-to-end proving stage (the acceptance gate: prove at 2^16
    // with 8 threads). StageRunner caches prerequisites, so repeats
    // time only the proving stage.
    {
        core::StageRunner<snark::Bn254> runner(std::size_t(1) << log_n);
        runner.run(core::Stage::Witness, threads); // warm prerequisites
        entries.push_back(timeKernel(
            "groth16_prove", std::size_t(1) << log_n, threads, [&] {
                auto r = runner.run(core::Stage::Proving, threads);
                (void)r;
            }));
    }

    return entries;
}

/**
 * Render entries in the BENCH_kernels.json schema, labelled with the
 * emitting binary @p bench ("bench_kernels", "bench_stark").
 */
inline std::string
kernelEntriesJson(
    const std::string& bench, const std::vector<KernelEntry>& entries,
    const std::vector<std::pair<std::string, std::string>>& notes)
{
    auto quote = [](const std::string& s) {
        return obs::JsonWriter().value(s).take();
    };
    std::string json = "{\n  \"bench\": " + quote(bench) +
                       ",\n  \"notes\": {";
    for (std::size_t i = 0; i < notes.size(); ++i) {
        json += i ? ", " : "";
        json += quote(notes[i].first) + ": " + quote(notes[i].second);
    }
    json += "},\n  \"results\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        char buf[384];
        std::snprintf(buf, sizeof(buf),
                      ", \"n\": %zu, \"threads\": %zu, "
                      "\"repeats\": %u, \"seconds_mean\": %.6f, "
                      "\"seconds_min\": %.6f",
                      e.n, e.threads, e.repeats, e.secondsMean,
                      e.secondsMin);
        json += "    {\"name\": " + quote(e.name) + buf;
        // Memory fields are emitted only when measured so baselines
        // from machines without /proc (or pre-mem baselines) stay
        // byte-identical to the old schema.
        if (e.peakRssBytes || e.allocBytes) {
            std::snprintf(buf, sizeof(buf),
                          ", \"peak_rss_bytes\": %llu, "
                          "\"alloc_bytes\": %llu",
                          (unsigned long long)e.peakRssBytes,
                          (unsigned long long)e.allocBytes);
            json += buf;
        }
        json += i + 1 < entries.size() ? "},\n" : "}\n";
    }
    json += "  ]\n}\n";
    return json;
}

/** Write @p json to @p path; false on I/O failure. */
inline bool
writeKernelJson(const std::string& path, const std::string& json)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

/**
 * Parse a BENCH_kernels.json document previously written by
 * kernelEntriesJson. Tolerant of whitespace but keyed to this schema:
 * scans the "results" array for the known fields of each object.
 * Returns empty on anything unrecognizable.
 */
inline std::vector<KernelEntry>
parseKernelBaseline(const std::string& text)
{
    std::vector<KernelEntry> out;
    const std::size_t results = text.find("\"results\"");
    if (results == std::string::npos)
        return out;
    std::size_t pos = results;
    while (true) {
        const std::size_t open = text.find('{', pos);
        if (open == std::string::npos)
            break;
        const std::size_t close = text.find('}', open);
        if (close == std::string::npos)
            break;
        const std::string obj = text.substr(open, close - open);

        auto field = [&](const char* key) -> std::string {
            const std::string needle =
                std::string("\"") + key + "\":";
            std::size_t k = obj.find(needle);
            if (k == std::string::npos)
                return {};
            k += needle.size();
            while (k < obj.size() && obj[k] == ' ')
                ++k;
            std::size_t end = k;
            if (end < obj.size() && obj[end] == '"') {
                ++end;
                const std::size_t q = obj.find('"', end);
                return q == std::string::npos
                           ? std::string()
                           : obj.substr(k + 1, q - k - 1);
            }
            while (end < obj.size() && obj[end] != ',' &&
                   obj[end] != '\n')
                ++end;
            return obj.substr(k, end - k);
        };

        KernelEntry e;
        e.name = field("name");
        e.n = (std::size_t)std::atoll(field("n").c_str());
        e.threads =
            (std::size_t)std::atoll(field("threads").c_str());
        e.repeats = (unsigned)std::atoi(field("repeats").c_str());
        e.secondsMean = std::atof(field("seconds_mean").c_str());
        e.secondsMin = std::atof(field("seconds_min").c_str());
        // Absent in pre-mem baselines: parse to 0, which the mem gate
        // treats as "no data" rather than a regression from zero.
        e.peakRssBytes = (std::uint64_t)std::strtoull(
            field("peak_rss_bytes").c_str(), nullptr, 10);
        e.allocBytes = (std::uint64_t)std::strtoull(
            field("alloc_bytes").c_str(), nullptr, 10);
        if (!e.name.empty())
            out.push_back(std::move(e));
        pos = close + 1;
    }
    return out;
}

/** Read a whole file; false when it cannot be opened. */
inline bool
readFileText(const std::string& path, std::string& out)
{
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, got);
    std::fclose(f);
    return true;
}

} // namespace zkp::bench

#endif // ZKP_BENCH_KERNELS_COMMON_H
