/**
 * @file
 * Shared pieces of the zkbench benchmark: options, sample statistics,
 * the result line, the benchmark's own span recorder and the host
 * fingerprint.
 *
 * The benchmark sits outside the library: it times calls into the
 * modules' public functions and adds nothing inside src/.
 */

#ifndef ZKBENCH_HARNESS_H
#define ZKBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zkbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// Fixed settings of the workloads (spec.json "fixed" lists them).

/// Prove threads of the batch workloads.
inline constexpr std::size_t kThreads = 4;
/// Verify + reject pairs per round of a batch workload.
inline constexpr std::size_t kGroth16Checks = 4;
inline constexpr std::size_t kStarkChecks = 16;
/// Set-up repetitions whose median is setup_s.
inline constexpr std::size_t kSetupReps = 3;
/// Open loop: service shape, latency limits and tampering.
inline constexpr std::size_t kServeWorkers = 2;
inline constexpr std::size_t kServeProveThreads = 2;
inline constexpr double kSloProve = 1.5;
inline constexpr double kSloVerify = 1.0;
/// A generator that falls further behind than this fails the run.
inline constexpr double kMaxGenLateP95 = 0.02;
/// Every Nth verify request carries a tampered proof.
inline constexpr std::size_t kTamperEvery = 3;

/** What varies between runs; run.py fills it from perfbench/spec.json. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /// log2 of the batch workloads' size (constraints / STARK steps).
    std::size_t log2 = 16;
    /// Open loop: circuit scales (exp, poseidon) and arrival rate.
    std::size_t serveExpScale = 4096;
    std::size_t servePoseidonScale = 16;
    double rate = 1.5;
    /// Length of the open-loop burst inside the traced ladder.
    double ladderServeSeconds = 8;

    /// Where the traced run writes its spans ("" = nowhere).
    std::string spansOut;
};

/** Sorted-sample statistics. */
struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }
    std::size_t size() const { return v.size(); }
    double median() const;
    /// Linear-interpolated quantile, q in [0, 1].
    double quantile(double q) const;
    double mean() const;
    double min() const;
    double max() const;
    /**
     * The highest percentile with at least ten samples beyond it
     * (sorted[n - 11]); @p pct receives that percentile. With fewer
     * than eleven samples it is the maximum and @p pct is 100.
     */
    double tail(double& pct) const;
    /// "name n=.. min p10 q1 median q3 max" for the note lines.
    std::string describe(const char* name) const;
};

/** One metric of the result line. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** The run's result: the last line of standard output. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Operations with a latency limit, and those answered correctly
    /// within it.
    std::uint64_t timed = 0;
    std::uint64_t inSlo = 0;
    std::map<std::string, Metric> metrics;
    /// Human-readable lines printed above the result line.
    std::vector<std::string> notes;

    void check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
    /// An operation with a latency limit: correct, and how long.
    void checkTimed(bool ok, double seconds, double limit)
    {
        check(ok);
        ++timed;
        if (ok && seconds <= limit)
            ++inSlo;
    }
    void set(const std::string& name, double value, const char* unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void note(const std::string& line) { notes.push_back(line); }
    double okFrac() const
    {
        return attempted ? double(attempted - failed) / attempted : 0;
    }
    double sloFrac() const
    {
        return timed ? double(inSlo) / timed : 0;
    }
};

/**
 * The benchmark's span recorder: name, start, end and parent of each
 * benchmark-side call, kept in memory and written when the run ends.
 * Off (and free) unless the run is traced. Single-threaded: spans are
 * opened only on the benchmark's driving thread.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0, endNs = 0;
        int parent = -1;
    };

    static Spans& instance();

    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    int open(const std::string& name);
    void close(int id);
    /// Record a finished span (request lifecycles stamped elsewhere).
    int add(const std::string& name, Clock::time_point start,
            Clock::time_point end, int parent);

    /// Self time per layer ("ec" for "ec.msm_g1"), in seconds.
    std::map<std::string, double> selfSecondsByLayer() const;
    bool write(const std::string& path) const;

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when tracing is off. */
class Scope
{
  public:
    explicit Scope(const char* name)
        : id_(Spans::instance().enabled() ? Spans::instance().open(name)
                                          : -1)
    {}
    ~Scope()
    {
        if (id_ >= 0)
            Spans::instance().close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Span id, to parent spans recorded later; -1 when off.
    int id() const { return id_; }

  private:
    int id_;
};

/**
 * Median seconds of @p reps calls of @p fn, each in a span named
 * @p span, after one untimed warm-up call.
 */
template <typename Fn>
double
timed(const char* span, std::size_t reps, Fn&& fn)
{
    fn();
    Samples s;
    for (std::size_t i = 0; i < reps; ++i) {
        Scope sp(span);
        const auto a = Clock::now();
        fn();
        s.add(secondsBetween(a, Clock::now()));
    }
    return s.median();
}

/** Host fingerprint as one JSON object. */
std::string hostFingerprint();

/** Process peak resident set (VmHWM) in MiB. */
double peakRssMiB();

/** Print notes, then the contract's result line. */
void printResult(const Result& r);

/** Workload entry points (one per workload file). */
void runGroth16(const Options& opt, Result& out);
void runStark(const Options& opt, Result& out);
void runServe(const Options& opt, Result& out);
void runLadder(const Options& opt, Result& out);

} // namespace zkbench

#endif // ZKBENCH_HARNESS_H
