#include "obs/report.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/pmu.h"

namespace zkp::obs {

namespace {

std::mutex& reportMutex()
{
    static std::mutex& m = *new std::mutex;
    return m;
}

std::vector<StageReport>& reports()
{
    // Leaked on purpose: the ZKP_REPORT atexit hook may run after
    // ordinary static destructors, so this storage must never die.
    static std::vector<StageReport>& r = *new std::vector<StageReport>;
    return r;
}

std::atomic<bool> gArmed{false};

} // namespace

void
startRunReport()
{
    clearStageReports();
    gArmed.store(true, std::memory_order_release);
}

void
stopRunReport()
{
    gArmed.store(false, std::memory_order_release);
}

bool
runReportArmed()
{
    return gArmed.load(std::memory_order_acquire);
}

void
recordStageReport(StageReport report)
{
    std::lock_guard<std::mutex> g(reportMutex());
    reports().push_back(std::move(report));
}

std::vector<StageReport>
stageReports()
{
    std::lock_guard<std::mutex> g(reportMutex());
    return reports();
}

void
clearStageReports()
{
    std::lock_guard<std::mutex> g(reportMutex());
    reports().clear();
}

std::string
runReportJson()
{
    const std::vector<StageReport> snapshot = stageReports();

    JsonWriter w;
    w.beginObject();
    // Schema /3: adds the per-stage "mem" object and the top-level
    // "mem" availability block (consumers of /2 keep working: no
    // field was removed or retyped).
    w.key("schema").value("zkperf-run-report/3");

    w.key("stages").beginArray();
    for (const StageReport& r : snapshot) {
        w.beginObject();
        w.key("stage").value(r.stage);
        w.key("curve").value(r.curve);
        w.key("constraints").value((std::uint64_t)r.constraints);
        w.key("threads").value((std::uint64_t)r.threads);
        w.key("seconds").value(r.seconds);
        w.key("counters").beginObject();
        for (const auto& [name, value] : r.counters)
            w.key(name).value(value);
        w.endObject();
        w.key("hw").beginObject();
        w.key("available").value(r.hwAvailable);
        for (const auto& [name, value] : r.hw)
            w.key(name).value(value);
        w.endObject();
        w.key("top_spans").beginArray();
        for (const KernelStat& k : r.topSpans) {
            w.beginObject();
            w.key("name").value(k.name);
            w.key("count").value(k.count);
            w.key("seconds").value(k.seconds);
            if (k.hwCycles > 0 || k.hwInstructions > 0) {
                w.key("hw_cycles").value(k.hwCycles);
                w.key("hw_instructions").value(k.hwInstructions);
            }
            if (k.allocBytes > 0)
                w.key("alloc_bytes").value(k.allocBytes);
            w.endObject();
        }
        w.endArray();
        w.key("mem").beginObject();
        w.key("tracked").value(r.mem.tracked);
        w.key("rss_bytes").value(r.mem.rssBytes);
        w.key("rss_delta").value((double)r.mem.rssDelta);
        w.key("peak_rss_bytes").value(r.mem.peakRssBytes);
        w.key("peak_rss_delta").value(r.mem.peakRssDelta);
        if (r.mem.tracked) {
            w.key("alloc_bytes").value(r.mem.allocBytes);
            w.key("alloc_count").value(r.mem.allocCount);
            w.key("free_bytes").value(r.mem.freeBytes);
            w.key("live_delta").value((double)r.mem.liveDelta);
            w.key("tracked_bytes").value(r.mem.trackedBytes);
            w.key("top_sites").beginArray();
            for (const auto& site : r.mem.topSites) {
                w.beginObject();
                w.key("span").value(site.name);
                w.key("alloc_bytes").value(site.allocBytes);
                w.key("alloc_count").value(site.allocCount);
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();

    // Hardware-counter availability for the whole process: consumers
    // check hw.available before trusting any per-stage hw section.
    w.key("hw").beginObject();
    w.key("available").value(pmu::enabled());
    if (!pmu::enabled())
        w.key("reason").value(pmu::unavailableReason().empty()
                                  ? "disabled via ZKP_PMU=0"
                                  : pmu::unavailableReason());
    w.endObject();

    // Allocation-profiler availability: per-stage alloc_* fields are
    // only present when mem.enabled here is true.
    w.key("mem").beginObject();
    w.key("enabled").value(memprof::tracking());
    if (!memprof::tracking())
        w.key("reason").value(memprof::available()
                                  ? "disabled (set ZKP_MEMPROF=1)"
                                  : memprof::unavailableReason());
    w.endObject();

    // Registry snapshot: cumulative, not per stage — the per-stage
    // deltas live in the counters of each record above.
    w.key("metrics");
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto& [name, value] : counterSnapshot())
        w.key(name).value(value);
    w.endObject();
    w.endObject();

    w.endObject();
    return w.take();
}

bool
writeRunReport(const std::string& path)
{
    const std::string json = runReportJson();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace zkp::obs
