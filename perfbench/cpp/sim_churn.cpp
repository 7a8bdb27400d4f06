/**
 * @file
 * sim_churn_10k: bench/micro_scale's churn scenario at 10,000 nodes.
 *
 * Every node hosts 10 single-proc tenants; every proc runs 10 jittered
 * compute segments, and after each segment its tenant re-rolls its
 * demand with probability 0.3 (a phase change that re-solves the node
 * and re-rates its other procs). That is 1M events, about 100k of them
 * pending at any time, over engine state far larger than L2. Only the
 * sim layer runs. The RNG streams match micro_scale's, so the default
 * seed reproduces its 10k-node row.
 *
 * Set-up builds the cluster and registers the tenants and procs; the
 * timed phase starts every tenant's first segment and runs the queue
 * dry.
 */

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

constexpr int kNodes = 10'000;
constexpr int kTenantsPerNode = 10;
constexpr int kSegments = 10;
constexpr double kChurn = 0.3;

imc::sim::TenantDemand
roll_demand(imc::Rng& rng)
{
    imc::sim::TenantDemand d;
    d.gen_mb = rng.uniform(0.5, 12.0);
    d.need_mb = rng.uniform(0.5, 16.0);
    d.bw_gbps = rng.uniform(0.2, 6.0);
    d.mem_intensity = rng.uniform(0.1, 0.9);
    d.cache_gamma = rng.uniform(0.3, 1.2);
    return d;
}

/** Time spent in the sim layer's public calls (traced reps only). */
struct SimProbes {
    Tracer::Aggregate& add_tenant;
    Tracer::Aggregate& compute;
    Tracer::Aggregate& set_demand;
    Tracer::Aggregate& callback;
    /** compute()/set_demand() time spent inside callbacks. */
    double nested_in_callbacks = 0.0;
};

/**
 * The churn driver. kTraced wraps every call into the engine (and
 * every callback the engine makes back) with a timer; the untraced
 * instantiation compiles to exactly micro_scale's driver.
 */
template <bool kTraced>
class Churn {
  public:
    Churn(imc::sim::Simulation& sim, std::uint64_t seed,
          SimProbes* probes)
        : sim_(sim), probes_(probes)
    {
        tenants_.reserve(static_cast<std::size_t>(kNodes) *
                         kTenantsPerNode);
        for (int node = 0; node < kNodes; ++node) {
            for (int k = 0; k < kTenantsPerNode; ++k) {
                Tenant t;
                t.rng = imc::Rng(seed ^ (0x9E3779B97F4A7C15ULL *
                                         (tenants_.size() + 1)));
                const imc::sim::TenantDemand demand = roll_demand(t.rng);
                if constexpr (kTraced) {
                    timed(probes_->add_tenant, [&] {
                        t.tenant = sim_.add_tenant(node, demand);
                        t.proc = sim_.add_proc(t.tenant);
                    });
                } else {
                    t.tenant = sim_.add_tenant(node, demand);
                    t.proc = sim_.add_proc(t.tenant);
                }
                t.left = kSegments;
                tenants_.push_back(std::move(t));
            }
        }
    }

    /** Issue every tenant's first segment. */
    void start()
    {
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            start_segment(i);
    }

    std::size_t tenants() const { return tenants_.size(); }

    /** Sum of the tenants' final slowdowns (micro_scale's fingerprint). */
    double slowdown_sum() const
    {
        double sum = 0.0;
        for (const auto& t : tenants_)
            sum += sim_.tenant_slowdown(t.tenant);
        return sum;
    }

  private:
    struct Tenant {
        imc::sim::TenantId tenant = 0;
        imc::sim::ProcId proc = 0;
        int left = 0;
        imc::Rng rng;
    };

    void start_segment(std::size_t i)
    {
        auto& t = tenants_[i];
        const double work = t.rng.uniform(0.5, 1.5);
        if constexpr (kTraced) {
            timed(probes_->compute, [&] {
                sim_.compute(t.proc, work, [this, i] {
                    timed(probes_->callback,
                          [&] { finish_segment(i); });
                });
            });
        } else {
            sim_.compute(t.proc, work, [this, i] { finish_segment(i); });
        }
    }

    void finish_segment(std::size_t i)
    {
        auto& t = tenants_[i];
        if (--t.left <= 0)
            return;
        if (t.rng.uniform() < kChurn) {
            const imc::sim::TenantDemand demand = roll_demand(t.rng);
            if constexpr (kTraced) {
                const double before = probes_->set_demand.seconds;
                timed(probes_->set_demand,
                      [&] { sim_.set_demand(t.tenant, demand); });
                probes_->nested_in_callbacks +=
                    probes_->set_demand.seconds - before;
            } else {
                sim_.set_demand(t.tenant, demand);
            }
        }
        if constexpr (kTraced) {
            const double before = probes_->compute.seconds;
            start_segment(i);
            probes_->nested_in_callbacks +=
                probes_->compute.seconds - before;
        } else {
            start_segment(i);
        }
    }

    imc::sim::Simulation& sim_;
    SimProbes* probes_;
    std::vector<Tenant> tenants_;
};

/** Deterministic outputs and counters of one rep. */
struct ChurnResult {
    std::uint64_t events = 0;
    double final_time = 0.0;
    double slowdown_sum = 0.0;
    std::size_t tenants = 0;
    imc::sim::SimStats stats;
    std::size_t bytes = 0;
};

/** Set-up and timed phase of one rep: CPU seconds, and wall seconds. */
struct RepTimes {
    double setup_s = 0.0;
    double timed_s = 0.0;
    double timed_wall_s = 0.0;
};

template <bool kTraced>
ChurnResult
churn_rep(std::uint64_t seed, RepTimes& times, Tracer* tracer,
          SimProbes* probes)
{
    ChurnResult r;
    const double c0 = cpu_seconds();
    std::optional<Tracer::Span> setup_span;
    setup_span.emplace(tracer, "setup");
    imc::sim::Simulation sim(imc::sim::ClusterSpec::scaled(kNodes));
    Churn<kTraced> churn(sim, seed, probes);
    setup_span.reset();
    times.setup_s = cpu_seconds() - c0;

    const double c1 = cpu_seconds();
    const Clock::time_point t1 = Clock::now();
    {
        const Tracer::Span timed_span(tracer, "timed");
        {
            const Tracer::Span start_span(tracer, "sim.start");
            churn.start();
        }
        const Tracer::Span run_span(tracer, "sim.run");
        sim.run();
    }
    times.timed_wall_s = seconds_since(t1);
    times.timed_s = cpu_seconds() - c1;

    r.events = sim.events_executed();
    r.final_time = sim.now();
    r.slowdown_sum = churn.slowdown_sum();
    r.tenants = churn.tenants();
    r.stats = sim.stats();
    r.bytes = sim.approx_bytes();
    return r;
}

} // namespace

Report
run_sim_churn(const RunOptions& opts)
{
    Report report;
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> wall_clock_s;
    std::vector<double> events_per_s;
    Metrics counts; // repeat exactly from rep to rep
    std::vector<Metrics> traced;
    std::vector<double> traced_wall;

    repeat_for(opts, 3, report, [&](int, bool trace) {
        RepTimes times;
        ChurnResult r;
        if (!trace) {
            r = churn_rep<false>(opts.seed, times, nullptr, nullptr);
            setup_s.push_back(times.setup_s);
            wall_s.push_back(times.timed_s);
            wall_clock_s.push_back(times.timed_wall_s);
            events_per_s.push_back(static_cast<double>(r.events) /
                                   times.timed_s);
            ++report.reps;
        } else {
            auto tracer = std::make_unique<Tracer>();
            SimProbes probes{tracer->aggregate("sim.add_tenant"),
                             tracer->aggregate("sim.compute"),
                             tracer->aggregate("sim.set_demand"),
                             tracer->aggregate("sim.callback")};
            r = churn_rep<true>(opts.seed, times, tracer.get(), &probes);
            const double run_s = tracer->span_seconds("sim.run");
            Metrics m;
            m["sim.set_demand_s"] = {probes.set_demand.seconds, "s"};
            m["sim.compute_s"] = {probes.compute.seconds, "s"};
            m["sim.dispatch_s"] = {run_s - probes.callback.seconds, "s"};
            m["sim.callback_s"] = {probes.callback.seconds -
                                       probes.nested_in_callbacks,
                                   "s"};
            m["sim.add_tenant_s"] = {probes.add_tenant.seconds, "s"};
            traced.push_back(std::move(m));
            traced_wall.push_back(times.timed_s);
            report.tracers.push_back(std::move(tracer));
            ++report.traced_reps;
        }

        std::map<std::string, std::string> out;
        out["events"] = std::to_string(r.events);
        out["final_time"] = hexfloat(r.final_time);
        out["slowdown_sum"] = hexfloat(r.slowdown_sum);
        check_same_outputs(report, out);

        const std::uint64_t expected =
            static_cast<std::uint64_t>(r.tenants) * kSegments;
        if (r.events != expected)
            report.problems.push_back(
                "events " + std::to_string(r.events) +
                " != tenants x segments " + std::to_string(expected));
        if (!std::isfinite(r.final_time) || r.final_time <= 0.0 ||
            !std::isfinite(r.slowdown_sum) || r.slowdown_sum <= 0.0)
            report.problems.push_back("non-finite or empty result");
        report.attempted += r.events;

        Metrics& c = counts;
        c["sim.events"] = {static_cast<double>(r.events), "count"};
        c["sim.contention_solves"] = {
            static_cast<double>(r.stats.contention_solves), "count"};
        c["sim.proc_reschedules"] = {
            static_cast<double>(r.stats.proc_reschedules), "count"};
        c["sim.computes"] = {static_cast<double>(r.stats.computes),
                             "count"};
        c["sim.bytes_per_node"] = {
            static_cast<double>(r.bytes) / kNodes, "B"};
    });
    top_up_setups(setup_s, 10, [&] {
        imc::sim::Simulation sim(imc::sim::ClusterSpec::scaled(kNodes));
        const Churn<false> churn(sim, opts.seed, nullptr);
    });

    set_common_metrics(report, setup_s, wall_s, wall_clock_s);
    const double eps = imc::median(events_per_s);
    report.notes.push_back(
        "sim_churn_10k: " + std::to_string(report.reps) +
        " untraced reps of " + report.outputs["events"] +
        " events; events_per_s " + std::to_string(eps) + " 1/s");

    if (opts.trace) {
        report.per_layer = counts;
        put_medians(report.per_layer, traced);
        report.per_layer["events_per_s"] = {eps, "1/s"};
        report.per_layer["trace_overhead_pct"] = {
            100.0 * (imc::median(traced_wall) / imc::median(wall_s) - 1.0),
            "%"};
        zero_unmeasured("sim_churn_10k", report.per_layer);
    }
    return report;
}

} // namespace perfbench
