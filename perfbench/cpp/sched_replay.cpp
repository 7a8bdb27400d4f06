/**
 * @file
 * sched_replay_2k5: a synthetic trace replayed through sched::replay on
 * 2,500 nodes x 2 slots, with bench/micro_sched's generator and
 * scheduler settings (1-4 units, 30% SLO apps, lifetimes sized for 0.8
 * occupancy, crash/repair on, 16 candidates, 128 polish proposals) and
 * one final batch-anneal oracle.
 *
 * Arrivals come at 10/s for 1000 s (micro_sched's default arrival
 * count), which saturates the cluster: admission, eviction and crash
 * repair all run. The replay is a closed loop with one caller — trace
 * timestamps order the events, but nothing waits for them.
 *
 * Set-up generates the trace and profiles the six default archetypes
 * at 1-4 units on a single-threaded RunService; no simulation runs
 * after it. The timed phase is the replay, oracle included.
 */

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/stats.hpp"
#include "core/registry.hpp"
#include "placement/evaluator.hpp"
#include "sched/replay.hpp"
#include "sched/trace.hpp"
#include "workload/run_service.hpp"

namespace perfbench {

namespace {

constexpr int kNodes = 2500;
constexpr int kSlots = 2;
constexpr double kDuration = 1000.0;
constexpr double kArrivalRate = 10.0;
constexpr double kOccupancy = 0.8;
constexpr std::uint64_t kProfileSeed = 42;

/** Live apps at the target occupancy (mean units of 1..4 is 2.5). */
constexpr double kTargetApps = kOccupancy * kNodes * kSlots / 2.5;

imc::sched::TraceGenOptions
trace_options(std::uint64_t seed)
{
    imc::sched::TraceGenOptions g;
    g.num_nodes = kNodes;
    g.slots_per_node = kSlots;
    g.duration = kDuration;
    g.arrival_rate = kArrivalRate;
    g.mean_lifetime = kTargetApps / kArrivalRate;
    g.max_units = 4;
    g.slo_fraction = 0.3;
    g.crash_rate = 0.02;
    g.mean_repair = 100.0;
    g.seed = seed;
    return g;
}

imc::sched::ReplayOptions
replay_options(std::uint64_t seed)
{
    imc::sched::ReplayOptions r;
    r.sched.candidate_nodes = 16;
    r.sched.polish_proposals = 128;
    r.sched.seed = seed;
    r.oracle_every = 0;
    r.oracle_iterations =
        std::max(4000, 20 * static_cast<int>(kTargetApps));
    r.oracle_seed = seed + 1;
    return r;
}

/**
 * Forwarding evaluator that times every prediction the scheduler asks
 * of the wrapped one.
 */
class TimedEvaluator final : public imc::placement::Evaluator {
  public:
    TimedEvaluator(imc::placement::Evaluator& inner,
                   Tracer::Aggregate& predict)
        : inner_(inner), predict_(predict)
    {
    }

    std::vector<double>
    predict(const imc::placement::Placement& placement) const override
    {
        return timed(predict_, [&] { return inner_.predict(placement); });
    }

    bool supports_delta() const override
    {
        return inner_.supports_delta();
    }

    const std::vector<double>& scores() const override
    {
        return inner_.scores();
    }

    double
    predict_instance(int instance,
                     const std::vector<double>& pressures) const override
    {
        return timed(predict_, [&] {
            return inner_.predict_instance(instance, pressures);
        });
    }

    bool supports_dynamic() const override
    {
        return inner_.supports_dynamic();
    }

    void push_instance(const imc::placement::Instance& inst) override
    {
        inner_.push_instance(inst);
    }

    void pop_instance_swap(int instance) override
    {
        inner_.pop_instance_swap(instance);
    }

  private:
    imc::placement::Evaluator& inner_;
    Tracer::Aggregate& predict_;
};

/** The set-up: the trace and the profiled models behind it. */
struct Inputs {
    Inputs(std::uint64_t seed, Tracer* tracer)
        : service(1), registry(profile_config(), {}, &service)
    {
        const Tracer::Span span(tracer, "setup");
        trace = imc::sched::generate_trace(trace_options(seed));
        // A plain loop: ModelRegistry::prefetch would start one
        // builder thread per app.
        for (int units = 1; units <= 4; ++units) {
            for (const auto& app : imc::sched::default_trace_apps()) {
                const Tracer::Span build_span(tracer, "core.model_build");
                registry.model(app, units);
            }
        }
    }

    static imc::workload::RunConfig profile_config()
    {
        imc::workload::RunConfig cfg;
        cfg.seed = kProfileSeed;
        cfg.reps = 2;
        return cfg;
    }

    imc::sched::Trace trace;
    imc::workload::RunService service;
    imc::core::ModelRegistry registry;
};

/** Seconds spent deciding: the sum of the replay's per-event latencies. */
double
deciding_seconds(const imc::sched::ReplayResult& r)
{
    return std::accumulate(r.latencies_ms.begin(), r.latencies_ms.end(),
                           0.0) /
           1000.0;
}

} // namespace

Report
run_sched_replay(const RunOptions& opts)
{
    Report report;
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> wall_clock_s;
    std::vector<double> deciding_s;
    std::vector<double> oracle_s;
    std::vector<double> traced_deciding_s;
    std::vector<double> all_ms;
    std::map<imc::sched::EventKind, std::vector<double>> by_kind_ms;
    std::vector<Metrics> traced;
    /** The latest untraced rep (every untraced rep is identical). */
    imc::sched::ReplayResult last;
    const imc::sched::ReplayOptions ropts = replay_options(opts.seed);

    repeat_for(opts, 1, report, [&](int, bool trace) {
        std::unique_ptr<Tracer> tracer;
        if (trace)
            tracer = std::make_unique<Tracer>();

        const double c0 = cpu_seconds();
        Inputs in(opts.seed, tracer.get());
        const double setup = cpu_seconds() - c0;
        const imc::sched::Trace& sched_trace = in.trace;

        imc::placement::ModelEvaluator model_eval(in.registry, {});
        imc::sched::ReplayResult r;
        if (!trace) {
            const double c1 = cpu_seconds();
            const Clock::time_point t1 = Clock::now();
            r = imc::sched::replay(sched_trace, model_eval, ropts);
            const double wall_clock = seconds_since(t1);
            const double timed = cpu_seconds() - c1;
            // The per-event latencies are wall-clock, so the oracle's
            // share is taken on the wall clock too.
            const double deciding = deciding_seconds(r);
            setup_s.push_back(setup);
            wall_s.push_back(timed);
            wall_clock_s.push_back(wall_clock);
            deciding_s.push_back(deciding);
            oracle_s.push_back(wall_clock - deciding);
            for (std::size_t i = 0; i < r.latencies_ms.size(); ++i) {
                all_ms.push_back(r.latencies_ms[i]);
                by_kind_ms[sched_trace.events[i].kind].push_back(
                    r.latencies_ms[i]);
            }
            ++report.reps;
        } else {
            // The oracle would call the same evaluator after the last
            // event; replay without it so every timed prediction is a
            // scheduling decision's.
            imc::sched::ReplayOptions no_oracle = ropts;
            no_oracle.oracle_iterations = 0;
            Tracer::Aggregate& predict =
                tracer->aggregate("placement.predict");
            TimedEvaluator timed_eval(model_eval, predict);
            {
                const Tracer::Span span(tracer.get(), "sched.replay");
                r = imc::sched::replay(sched_trace, timed_eval,
                                       no_oracle);
            }
            const double deciding = deciding_seconds(r);
            traced_deciding_s.push_back(deciding);
            Metrics m;
            m["placement.predict_calls"] = {
                static_cast<double>(predict.calls), "count"};
            m["placement.predict_s"] = {predict.seconds, "s"};
            m["sched.non_predict_s"] = {deciding - predict.seconds, "s"};
            m["core.model_build_s"] = {
                tracer->span_seconds("core.model_build"), "s"};
            m["core.model_build_runs"] = {
                static_cast<double>(in.service.stats().executed), "count"};
            traced.push_back(std::move(m));
            report.tracers.push_back(std::move(tracer));
            ++report.traced_reps;
        }

        std::map<std::string, std::string> out;
        out["admitted"] = std::to_string(r.admitted);
        out["rejected"] = std::to_string(r.rejected);
        out["evictions"] = std::to_string(r.evictions);
        out["final_objective"] = hexfloat(r.final_objective);
        if (!trace)
            out["oracle_total"] =
                r.oracle.empty() ? "none"
                                 : hexfloat(r.oracle.back().oracle_total);
        check_same_outputs(report, out);

        int arrivals = 0;
        for (const auto& e : sched_trace.events)
            arrivals += e.kind == imc::sched::EventKind::kArrive;
        if (r.arrivals != arrivals ||
            r.admitted + r.rejected + r.fault_rejected != r.arrivals)
            report.problems.push_back(
                "admitted + rejected + fault-rejected != arrivals");
        if (r.events != sched_trace.events.size())
            report.problems.push_back("events replayed != trace events");
        if (r.final_apps > kNodes * kSlots)
            report.problems.push_back("more apps than slots");
        // The oracle anneal rejects an invalid starting placement, so
        // a sample proves the scheduler's final placement valid.
        if (!trace && r.final_apps >= 2 && r.oracle.empty())
            report.problems.push_back("no oracle sample");
        report.attempted += r.events;
        if (!trace)
            last = std::move(r);
    });

    top_up_setups(setup_s, 5,
                  [&] { const Inputs in(opts.seed, nullptr); });
    set_common_metrics(report, setup_s, wall_s, wall_clock_s);
    const double events = static_cast<double>(last.events);
    std::vector<double> decisions_per_s;
    for (const double d : deciding_s)
        decisions_per_s.push_back(events / d);
    const double gap_pct =
        last.oracle.empty() ? 0.0 : 100.0 * last.oracle.back().gap();

    Metrics headline;
    headline["decisions_per_s"] = {imc::median(decisions_per_s), "1/s"};
    headline["decision_p50_ms"] = {imc::percentile(all_ms, 50.0), "ms"};
    headline["decision_p99_ms"] = {imc::percentile(all_ms, 99.0), "ms"};
    headline["sched_objective"] = {last.final_objective, "1"};
    headline["oracle_gap_pct"] = {gap_pct, "%"};
    for (const auto& [name, m] : headline)
        report.notes.push_back(name + " " + std::to_string(m.value) +
                               " " + m.unit);
    report.notes.push_back(
        "decision latency samples: " + std::to_string(all_ms.size()) +
        " events over " + std::to_string(report.reps) + " reps");
    report.notes.push_back(
        "arrivals not admitted: " +
        std::to_string(last.rejected + last.fault_rejected) + " of " +
        std::to_string(last.arrivals) + "; evictions " +
        std::to_string(last.evictions) + "; crashes " +
        std::to_string(last.crashes));

    if (opts.trace) {
        report.per_layer = headline;
        using imc::sched::EventKind;
        const auto& arrive = by_kind_ms[EventKind::kArrive];
        const auto& depart = by_kind_ms[EventKind::kDepart];
        const auto& crash = by_kind_ms[EventKind::kCrash];
        report.per_layer["sched.arrive_ms.p50"] = {
            imc::percentile(arrive, 50.0), "ms"};
        report.per_layer["sched.arrive_ms.p99"] = {
            imc::percentile(arrive, 99.0), "ms"};
        report.per_layer["sched.depart_ms.p50"] = {
            imc::percentile(depart, 50.0), "ms"};
        report.per_layer["sched.depart_ms.p99"] = {
            imc::percentile(depart, 99.0), "ms"};
        // A seed whose trace draws no crash has no crash latencies.
        report.per_layer["sched.crash_ms.p50"] = {
            crash.empty() ? 0.0 : imc::percentile(crash, 50.0), "ms"};
        put_medians(report.per_layer, traced);
        report.per_layer["sched.admitted"] = {
            static_cast<double>(last.admitted), "count"};
        report.per_layer["sched.rejected"] = {
            static_cast<double>(last.rejected), "count"};
        report.per_layer["sched.evictions"] = {
            static_cast<double>(last.evictions), "count"};
        report.per_layer["sched.moved_units"] = {
            static_cast<double>(last.moved_units), "count"};
        const double oracle = imc::median(oracle_s);
        report.per_layer["placement.oracle_s"] = {oracle, "s"};
        report.per_layer["placement.oracle_proposals_per_s"] = {
            ropts.oracle_iterations / oracle, "1/s"};
        report.per_layer["trace_overhead_pct"] = {
            100.0 * (imc::median(traced_deciding_s) /
                         imc::median(deciding_s) -
                     1.0),
            "%"};
        zero_unmeasured("sched_replay_2k5", report.per_layer);
    }
    return report;
}

} // namespace perfbench
