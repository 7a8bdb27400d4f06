#ifndef IMC_PERFBENCH_BENCH_HPP
#define IMC_PERFBENCH_BENCH_HPP

/**
 * @file
 * Shared plumbing of the repository benchmark: run options, the
 * per-run report, the rep loop, and the in-memory span recorder of the
 * traced run.
 *
 * A run repeats its workload's (set-up, timed phase) pair until the
 * requested seconds have elapsed. End-to-end metrics are medians over
 * the untraced reps. With tracing on, untraced and traced reps
 * alternate: the traced reps give the per-layer metrics, the untraced
 * ones the workload's headline numbers and the tracing overhead.
 *
 * The end-to-end times are host-speed normalised: CPU seconds of the
 * phase, times kReferenceNominal_s over the run's median time of a
 * fixed reference kernel. On a shared virtual machine, neighbours
 * slowed every workload, in CPU time as much as in wall time, by up to
 * 1.75x for minutes at a time; the reference kernel slows with them,
 * so the ratio stays put while the raw times do not. See NOTES.md.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double seconds_since(Clock::time_point t0);

/**
 * CPU seconds used so far by every thread of this process. It leaves
 * out the time the host runs something else on the guest's CPU (steal
 * time). On the single-threaded workloads it is a phase's wall time
 * without such stalls; on paper_pipeline it sums the caller and the two
 * pool workers.
 */
double cpu_seconds();

/**
 * The reference kernel: CPU seconds to std::sort one million
 * pseudo-random 64-bit keys (8 MB, the same keys every call). Of the
 * kernels tried, its time tracked the three workloads' times best as
 * the host's speed drifted (NOTES.md). It uses no code of the
 * repository's libraries, so no change to them can move it.
 */
double reference_seconds();

/**
 * About the reference kernel's time on the benchmark's reference host
 * (NOTES.md) when that host is not slowed by its neighbours, s. Only
 * the scale of the normalised times depends on it.
 */
constexpr double kReferenceNominal_s = 0.1;

/** What the command line asked for. */
struct RunOptions {
    std::uint64_t seed = 0;
    /** Minimum measuring time of the run. */
    double seconds = 10.0;
    /** Alternate traced reps with untraced ones. */
    bool trace = false;
};

/**
 * In-memory span recorder for one traced rep.
 *
 * Coarse calls get a Span each (name, start, end, parent). Calls that
 * run into the millions are aggregated per name instead: a count and
 * a total time. Nothing is written until the run ends.
 */
class Tracer {
  public:
    /** Count and total time of one aggregated call site. */
    struct Aggregate {
        std::uint64_t calls = 0;
        double seconds = 0.0;
    };

    /**
     * RAII span. A null tracer makes it a no-op, so untraced code
     * paths can share the call sites.
     */
    class Span {
      public:
        Span(Tracer* tracer, std::string name);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        Tracer* tracer_;
        std::size_t index_ = 0;
    };

    Tracer();

    /** The aggregate named @p name; the reference stays valid. */
    Aggregate& aggregate(const std::string& name);

    /** Total seconds of every span named @p name. */
    double span_seconds(const std::string& name) const;

    /** Spans and aggregates as one JSON object. */
    void write_json(std::ostream& os) const;

  private:
    struct Record {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        /** Index of the enclosing span, -1 at the top level. */
        long parent = -1;
    };

    Clock::time_point origin_;
    std::vector<Record> spans_;
    std::vector<std::size_t> open_;
    std::map<std::string, Aggregate> aggregates_;
};

/** Time one call into @p agg. */
template <class F>
decltype(auto)
timed(Tracer::Aggregate& agg, F&& f)
{
    struct Stop {
        Tracer::Aggregate& agg;
        Clock::time_point t0 = Clock::now();
        ~Stop()
        {
            agg.seconds += seconds_since(t0);
            ++agg.calls;
        }
    } stop{agg};
    return f();
}

/** One named metric value with its unit. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Everything one run reports back to run.py. */
struct Report {
    /** Untraced reps, traced reps. */
    int reps = 0;
    int traced_reps = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /**
     * Deterministic outputs of the rep, as exact strings (hexfloats for
     * doubles). run.py compares them with perfbench/pinned.json when
     * the run uses the workload's default seed.
     */
    std::map<std::string, std::string> outputs;
    /** Invariant violations and rep-to-rep output differences. */
    std::vector<std::string> problems;
    /** End-to-end metrics (untraced reps). */
    Metrics end_to_end;
    /** Per-layer metrics (traced reps; workload headline numbers from
     *  the untraced reps of the same run). */
    Metrics per_layer;
    /** Human-readable summary lines. */
    std::vector<std::string> notes;
    /** Span records of the traced reps. */
    std::vector<std::unique_ptr<Tracer>> tracers;
    /** reference_seconds() before every rep and after the last. */
    std::vector<double> reference_s;
    /** Highest peak resident set size of any rep, MiB. */
    double peak_rss_mb = 0.0;
};

/**
 * Call @p rep(index, traced) until @p opts.seconds have elapsed and at
 * least @p min_reps reps ran. With tracing on, even reps are untraced
 * and odd reps traced, and at least one of each runs. Around the reps
 * it samples the reference kernel and each rep's peak RSS into
 * @p report.
 */
void repeat_for(const RunOptions& opts, int min_reps, Report& report,
                const std::function<void(int, bool)>& rep);

/**
 * Time extra set-ups (objects built and dropped, no timed phase) on the
 * CPU clock until @p setup_s holds @p count samples, so that setup_s
 * stays a median of several however few reps fit in the run. They are
 * the reps' own set-ups, so they do not sample peak RSS.
 */
void top_up_setups(std::vector<double>& setup_s, std::size_t count,
                   const std::function<void()>& setup);

/** For every metric of the first rep, its median over @p reps. */
void put_medians(Metrics& out, const std::vector<Metrics>& reps);

/**
 * Give every per-layer metric that @p workload does not measure an
 * explicit 0, so that run.py can refuse a report that lacks any
 * metric. A metric the workload measures is left alone: if the
 * workload failed to set it, it stays missing.
 */
void zero_unmeasured(const std::string& workload, Metrics& per_layer);

/** @p s as a quoted JSON string. */
std::string json_string(const std::string& s);

/** Exact text of a double: C99 hexfloat. */
std::string hexfloat(double x);

/**
 * Start a new peak-RSS window: the kernel's high-water mark drops to
 * the current resident size. Each rep gets its own window, so memory
 * the reference kernel touched between reps never counts.
 */
void reset_peak_rss();

/** Peak resident set size since the last reset_peak_rss(), MiB. */
double peak_rss_mb();

/** Compare a rep's outputs with the first rep's; record differences. */
void check_same_outputs(Report& report,
                        const std::map<std::string, std::string>& rep);

/**
 * Fill the end-to-end metrics every workload reports, from CPU-clock
 * samples scaled to the reference kernel's nominal speed; the raw
 * samples and @p wall_clock_s, the same timed phases on the wall
 * clock, go to the notes.
 */
void set_common_metrics(Report& report,
                        const std::vector<double>& setup_s,
                        const std::vector<double>& wall_s,
                        const std::vector<double>& wall_clock_s);

/** The workloads. */
Report run_sim_churn(const RunOptions& opts);
Report run_sched_replay(const RunOptions& opts);
Report run_paper_pipeline(const RunOptions& opts);

} // namespace perfbench

#endif // IMC_PERFBENCH_BENCH_HPP
