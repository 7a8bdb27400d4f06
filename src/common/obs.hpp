#ifndef IMC_COMMON_OBS_HPP
#define IMC_COMMON_OBS_HPP

/**
 * @file
 * imc::obs — a low-overhead, thread-safe observability layer: named
 * counters, gauges, and value histograms, plus scoped timing spans
 * that export as Chrome-trace JSON ("chrome://tracing" / Perfetto
 * format: a JSON array of complete events) and as a flat metrics
 * text/JSON dump.
 *
 * The layer is *disabled by default* and every recording entry point
 * starts with one relaxed atomic load; nothing is allocated, locked,
 * or timed until set_enabled(true) (which the obs::Session RAII
 * helper calls when a --metrics/--metrics-out/--trace-out flag is
 * present). Recording never changes a measured value, an RNG stream,
 * or any program output, so figure/table reproductions are
 * byte-identical with the layer off — and bit-identical (just
 * chattier) with it on. Defining IMC_OBS_DISABLED at compile time
 * additionally compiles every entry point down to an empty inline
 * (the zero-cost escape hatch for perf-paranoid builds).
 *
 * Naming convention: dotted lowercase paths, "<subsystem>.<what>"
 * (e.g. "runservice.cache_hits", "anneal.accepted"). A Span named
 * "x" also feeds a histogram named "x.us" with its duration in
 * microseconds.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace imc {
class Cli;
}

namespace imc::obs {

/**
 * Registered metric names — the single source of truth the imc-lint
 * obs-name / obs-name-dead passes cross-check every IMC_OBS_* name
 * literal in src/ against, so dashboards and EXPERIMENTS.md recipes
 * can never reference a name that silently drifted. Entries are
 * either exact names or patterns with one '*' per dynamic fragment,
 * exactly as the analyzer derives them from the call site (e.g.
 * `"fault.injected." + site` indexes as "fault.injected.*"). A Span
 * named "x" additionally feeds an "x.us" histogram; the registry
 * records the span's base name. Adding a recording site means
 * extending this array in the same change.
 */
inline constexpr const char* kObsNames[] = {
    // placement annealer
    "anneal.accepted",
    "anneal.best_total",
    "anneal.chain",
    "anneal.chains",
    "anneal.proposals",
    // fault engine ("fault.injected." + site)
    "fault.injected",
    "fault.injected.*",
    // CountingMeasure
    "measure.cache_hits",
    "measure.measured",
    "measure.prefetched",
    // profilers: spans per algorithm plus per-algorithm cost
    // counters, all under one "profiler.<algo>" prefix so a single
    // grep over a metrics dump finds a whole algorithm's row
    "profiler.binary-brute",
    "profiler.binary-optimized",
    "profiler.exhaustive",
    "profiler.random",
    "*.runs",
    "*.measured",
    "*.interpolated",
    "*.degraded_cells",
    // model registry ("registry.build:" + app abbrev)
    "registry.build:*",
    "registry.builds",
    "registry.disk_cache_hits",
    "registry.quarantined",
    "registry.requests",
    // RunService execution + cache
    "run.failed",
    "run.retries",
    "run.timeouts",
    "runservice.batch_size",
    "runservice.batches",
    "runservice.cache_hits",
    "runservice.execute",
    "runservice.executed",
    "runservice.queue_depth.max",
    "runservice.submitted",
    // event-driven scheduler
    "sched.admitted",
    "sched.apps",
    "sched.crashes",
    "sched.departed",
    "sched.event",
    // sched.event's top-level phases (they never overlap)
    "sched.event.choose",
    "sched.event.evict",
    "sched.event.polish",
    "sched.event.remove",
    "sched.event.repair",
    "sched.fault_rejected",
    "sched.joins",
    "sched.polish.filter_fallbacks",
    "sched.polish.proposals",
    "sched.quality_vs_oracle_pct",
    "sched.rejected",
    // bubble scorer ("scorer.score:" + app abbrev)
    "scorer.calibrate",
    "scorer.calibration_runs",
    "scorer.probe_runs",
    "scorer.score:*",
    // delay-wave study captures (workload/delaywave.cpp)
    "wave.captures",
    "wave.crashed_ranks",
    // sim engine
    "sim.computes",
    "sim.contention_solves",
    "sim.events",
    "sim.node_crashes",
    "sim.proc_reschedules",
    "sim.runs",
    // the obs layer's own health counter (recorded by obs.cpp)
    "obs.rejected_samples",
};

#ifndef IMC_OBS_DISABLED

/** Globally enable/disable collection (off at startup). */
void set_enabled(bool on);

/** True when collection is on (one relaxed atomic load). */
bool enabled();

/** Add @p delta to the named monotonic counter. */
void count(const std::string& name, std::uint64_t delta = 1);

/** Set the named gauge to @p value (last write wins). */
void gauge_set(const std::string& name, double value);

/** Raise the named gauge to @p value if it is the new maximum. */
void gauge_max(const std::string& name, double value);

/**
 * Record one sample into the named histogram, a LatencyRecorder:
 * exact count/sum/min/max plus the 2^(1/8) buckets its p50/p90/p99
 * estimates come from. Each estimate lies in the bucket of one sample,
 * the order statistic at rank floor(q/100 * (n-1)); with few samples
 * that can sit far from a percentile interpolated between neighbours
 * (see LatencyRecorder::quantile). Non-finite or negative samples are
 * counted in the "obs.rejected_samples" counter instead.
 */
void observe(const std::string& name, double value);

/**
 * Emit one Chrome-trace counter sample (ph "C") — a time series the
 * trace viewer plots, e.g. the annealer's best-energy trajectory.
 */
void trace_counter(const std::string& name, double value);

/**
 * Scoped timing span. While collection is enabled, construction
 * stamps a start time and destruction records a Chrome-trace
 * complete event (ph "X") on this thread's track plus a "<name>.us"
 * histogram sample. When disabled, construction is a relaxed load
 * and destruction a branch: the name is copied only while enabled,
 * so a disabled span allocates nothing, whatever its length.
 */
class Span {
  public:
    explicit Span(std::string_view name);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    std::string name_;
    std::uint64_t start_us_ = 0;
    bool active_ = false;
};

// --- Snapshots (tests and ad-hoc introspection) -----------------------

/** Current value of a counter (0 when never touched). */
std::uint64_t counter_value(const std::string& name);

/** Current value of a gauge (0 when never touched). */
double gauge_value(const std::string& name);

/** Copy of one histogram (empty when never observed). */
LatencyRecorder histogram_snapshot(const std::string& name);

/** Trace events recorded so far (complete + counter events). */
std::size_t trace_event_count();

// --- Export -----------------------------------------------------------

/** Flat text dump: one sorted "counter|gauge|hist name ..." line each. */
void write_metrics_text(std::ostream& os);

/** The same dump as one JSON object. */
void write_metrics_json(std::ostream& os);

/**
 * Chrome-trace dump: a valid JSON array of event objects
 * ("chrome://tracing" loads it directly).
 */
void write_trace_json(std::ostream& os);

/** Drop every metric and trace event (test isolation). */
void reset();

/**
 * RAII wiring of the standard CLI surface. The constructor enables
 * collection when any of --metrics (print a text dump to stdout at
 * scope exit), --metrics-out FILE (write the dump to FILE; JSON when
 * FILE ends in ".json"), or --trace-out FILE (write the Chrome-trace
 * JSON to FILE) is present; the destructor performs the requested
 * exports. With none of the flags the whole object is inert. A scope
 * left by an exception prints nothing on stdout, so a tool that
 * fails keeps stdout empty; the file exports still happen.
 */
class Session {
  public:
    explicit Session(const Cli& cli);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

  private:
    bool metrics_stdout_ = false;
    std::string metrics_path_;
    std::string trace_path_;
    /** std::uncaught_exceptions() at construction. */
    int uncaught_ = 0;
};

#else // IMC_OBS_DISABLED: compile every entry point to nothing.

inline void set_enabled(bool) {}
inline bool enabled() { return false; }
inline void count(const std::string&, std::uint64_t = 1) {}
inline void gauge_set(const std::string&, double) {}
inline void gauge_max(const std::string&, double) {}
inline void observe(const std::string&, double) {}
inline void trace_counter(const std::string&, double) {}

class Span {
  public:
    explicit Span(std::string_view) {}
};

inline std::uint64_t counter_value(const std::string&) { return 0; }
inline double gauge_value(const std::string&) { return 0.0; }
inline LatencyRecorder histogram_snapshot(const std::string&)
{
    return {};
}
inline std::size_t trace_event_count() { return 0; }
inline void write_metrics_text(std::ostream&) {}
inline void write_metrics_json(std::ostream&) {}
inline void write_trace_json(std::ostream&) {}
inline void reset() {}

class Session {
  public:
    explicit Session(const Cli&) {}
};

#endif // IMC_OBS_DISABLED

} // namespace imc::obs

/**
 * Gated recording macros — the ONLY way library code may record.
 *
 * Each macro forwards to the matching imc::obs function in normal
 * builds and expands to nothing under IMC_OBS_DISABLED, so argument
 * expressions (string concatenations, arithmetic) are never even
 * evaluated: the disabled build is zero-cost by construction, not by
 * optimizer goodwill. imc-lint's obs-gate rule enforces that src/
 * code outside this header's own implementation calls these macros
 * rather than the functions directly.
 *
 * Control-plane entry points (obs::enabled via IMC_OBS_ENABLED,
 * obs::Session, snapshots, exports, reset) are not recording and may
 * be used directly where gating is not needed.
 */
#ifndef IMC_OBS_DISABLED
#define IMC_OBS_ENABLED() ::imc::obs::enabled()
#define IMC_OBS_COUNT(...) ::imc::obs::count(__VA_ARGS__)
#define IMC_OBS_GAUGE_SET(name, value) ::imc::obs::gauge_set(name, value)
#define IMC_OBS_GAUGE_MAX(name, value) ::imc::obs::gauge_max(name, value)
#define IMC_OBS_OBSERVE(name, value) ::imc::obs::observe(name, value)
#define IMC_OBS_TRACE_COUNTER(name, value)                              \
    ::imc::obs::trace_counter(name, value)
/** Declares a scoped timing span named @p var in enabled builds. */
#define IMC_OBS_SPAN(var, ...) const ::imc::obs::Span var(__VA_ARGS__)
#else
#define IMC_OBS_ENABLED() (false)
#define IMC_OBS_COUNT(...) ((void)0)
#define IMC_OBS_GAUGE_SET(name, value) ((void)0)
#define IMC_OBS_GAUGE_MAX(name, value) ((void)0)
#define IMC_OBS_OBSERVE(name, value) ((void)0)
#define IMC_OBS_TRACE_COUNTER(name, value) ((void)0)
#define IMC_OBS_SPAN(var, ...) ((void)0)
#endif // IMC_OBS_DISABLED

#endif // IMC_COMMON_OBS_HPP
