#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "ff/dispatch.h"
#include "ff/params.h"
#include "sim/counters.h"

namespace zkbench {

double
Samples::quantile(double q) const
{
    if (v.empty())
        return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const double pos = q * double(s.size() - 1);
    const std::size_t lo = (std::size_t)std::floor(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - double(lo)) * (s[hi] - s[lo]);
}

double
Samples::median() const
{
    return quantile(0.5);
}

double
Samples::mean() const
{
    return v.empty() ? 0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           double(v.size());
}

double
Samples::min() const
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double
Samples::max() const
{
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double
Samples::tail(double& pct) const
{
    if (v.size() < 11) {
        pct = 100;
        return max();
    }
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t i = s.size() - 11;
    pct = 100.0 * double(i + 1) / double(s.size());
    return s[i];
}

std::string
Samples::describe(const char* name) const
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "# %-8s n=%-4zu min %.6g  p10 %.6g  q1 %.6g  median %.6g  "
                  "q3 %.6g  max %.6g",
                  name, v.size(), quantile(0), quantile(0.1),
                  quantile(0.25), median(), quantile(0.75), quantile(1));
    return buf;
}

// --- spans ---------------------------------------------------------

namespace {

std::uint64_t
nsOf(Clock::time_point t)
{
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::nanoseconds>(t.time_since_epoch())
        .count();
}

std::string
layerOf(const std::string& name)
{
    const auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

Spans&
Spans::instance()
{
    static Spans s;
    return s;
}

int
Spans::open(const std::string& name)
{
    Span s;
    s.name = name;
    s.startNs = nsOf(Clock::now());
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back((int)spans_.size() - 1);
    return stack_.back();
}

void
Spans::close(int id)
{
    spans_[id].endNs = nsOf(Clock::now());
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

int
Spans::add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int parent)
{
    if (!on_)
        return -1;
    spans_.push_back(Span{name, nsOf(start), nsOf(end), parent});
    return (int)spans_.size() - 1;
}

std::map<std::string, double>
Spans::selfSecondsByLayer() const
{
    // Self time = own duration minus the union of the children's
    // intervals (children of one parent never overlap here except for
    // concurrent serve requests, so the union is taken explicitly).
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        kids(spans_.size());
    for (const auto& s : spans_)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.startNs, s.endNs);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        auto& k = kids[i];
        std::sort(k.begin(), k.end());
        std::uint64_t covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : k) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        const std::uint64_t dur =
            s.endNs > s.startNs ? s.endNs - s.startNs : 0;
        out[layerOf(s.name)] +=
            double(dur - std::min(dur, covered)) * 1e-9;
    }
    return out;
}

bool
Spans::write(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"schema\": \"zkbench-spans/1\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        f << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_ns\": " << s.startNs
          << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
          << "}";
    }
    f << "\n]}\n";
    return bool(f);
}

// --- host ----------------------------------------------------------

namespace {

std::string
cpuinfoField(const std::string& key)
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.compare(0, key.size(), key) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
    }
    return "";
}

bool
hasFlag(const std::string& flags, const std::string& flag)
{
    std::istringstream in(flags);
    std::string f;
    while (in >> f)
        if (f == flag)
            return true;
    return false;
}

/** Sim counting is compiled in iff a multiply moves the counters. */
bool
simCountingCompiledIn()
{
    using Fr = zkp::ff::bn254::Fr;
    const auto before = zkp::sim::counters().imuls;
    volatile std::uint64_t sink = 0;
    const Fr a = Fr::fromU64(3), b = Fr::fromU64(5);
    sink = (a * b).toBigInt().limbs[0];
    (void)sink;
    return zkp::sim::counters().imuls != before;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if ((unsigned char)c >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

std::string
hostFingerprint()
{
    const std::string flags = cpuinfoField("flags");
    std::ostringstream o;
    o << "{\"host\": {\"cpu\": \""
      << jsonEscape(cpuinfoField("model name"))
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"ff_tier\": \"" << zkp::ff::mulImplName()
      << "\", \"avx512ifma\": "
      << (hasFlag(flags, "avx512ifma") ? "true" : "false")
      << ", \"sha_ni\": " << (hasFlag(flags, "sha_ni") ? "true" : "false")
      << ", \"build_type\": \"" << ZKBENCH_BUILD_TYPE
      << "\", \"sim_counting\": "
      << (simCountingCompiledIn() ? "true" : "false")
      << ", \"threads\": {\"batch_prove\": " << kThreads
      << ", \"serve_workers\": " << kServeWorkers
      << ", \"serve_prove\": " << kServeProveThreads << "}}}";
    return o.str();
}

double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0;
}

void
printResult(const Result& r)
{
    for (const auto& n : r.notes)
        std::printf("%s\n", n.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 && r.attempted > 0 ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed);
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace zkbench
