#include "workload/delaywave.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "workload/app.hpp"
#include "workload/bsp_app.hpp"

namespace imc::workload::delaywave {

int
ranks(const Scenario& s)
{
    return s.nodes * s.procs_per_node;
}

AppSpec
scenario_spec(const Scenario& s)
{
    // A quiet cluster: zero shared-resource demand (slowdown stays
    // 1.0 everywhere) and no imbalance or node-correlated jitter, so
    // the only stochastic term is the iid per-iteration noise the
    // analytic model describes.
    AppSpec spec;
    spec.name = "delay-wave probe";
    spec.abbrev = "DW";
    spec.suite = "study";
    spec.kind = AppKind::Bsp;
    spec.noise_sigma = s.noise_sigma;
    spec.bsp.iterations = s.iterations;
    spec.bsp.work_per_iter = s.work;
    spec.bsp.imbalance_cv = 0.0;
    spec.bsp.collective_cost = s.sync_cost;
    spec.bsp.iters_per_collective = s.period;
    spec.bsp.node_noise_base = 0.0;
    spec.bsp.node_noise_slope = 0.0;
    spec.bsp.neighbor_halo = s.halo;
    spec.bsp.injections = s.injections;
    return spec;
}

void
validate(const Scenario& s)
{
    require(s.nodes >= 1, "delaywave: nodes must be >= 1");
    require(s.procs_per_node >= 1,
            "delaywave: procs_per_node must be >= 1");
    require(s.iterations >= 1, "delaywave: iterations must be >= 1");
    require(s.work > 0.0, "delaywave: work must be > 0");
    require(s.period >= 1, "delaywave: period must be >= 1");
    check_injections(s.injections, ranks(s), s.iterations);
}

Capture
capture(const Scenario& s)
{
    validate(s);

    sim::Simulation sim(sim::ClusterSpec::scaled(s.nodes));

    // Chaos resilience: an armed sim.crash clause may take nodes down
    // mid-run. The decision and the crash time are pure functions of
    // the scenario, so a crashing sweep is as reproducible as a clean
    // one; crashed ranks are marked absent for the wave analysis.
    std::vector<int> crashed_nodes;
    if (IMC_FAULT_ARMED()) {
        for (int n = 0; n < s.nodes; ++n) {
            const auto outcome = IMC_FAULT_PROBE(
                "sim.crash", "delaywave:node#" + std::to_string(n), 0);
            if (outcome.crash)
                crashed_nodes.push_back(n);
        }
    }

    sim::TimelineRecorder recorder;
    LaunchOptions opts;
    opts.nodes.reserve(static_cast<std::size_t>(s.nodes));
    for (int n = 0; n < s.nodes; ++n)
        opts.nodes.push_back(n);
    opts.procs_per_node = s.procs_per_node;
    opts.rng = Rng(s.seed).fork("delaywave");
    opts.timeline = &recorder;
    const auto app = launch(sim, scenario_spec(s), std::move(opts));

    const double crash_time =
        0.5 * static_cast<double>(s.iterations) *
        (s.work + s.sync_cost / static_cast<double>(s.period));
    for (int n : crashed_nodes)
        sim.schedule(crash_time, [&sim, n] { sim.crash_node(n); });

    sim.run();

    Capture cap;
    for (int n : crashed_nodes)
        for (int v = 0; v < s.procs_per_node; ++v)
            recorder.mark_absent(n * s.procs_per_node + v);
    cap.crashed_ranks =
        static_cast<int>(crashed_nodes.size()) * s.procs_per_node;
    cap.finished = app->done();
    cap.timeline = recorder.take();
    IMC_OBS_COUNT("wave.captures");
    if (cap.crashed_ranks > 0)
        IMC_OBS_COUNT("wave.crashed_ranks",
                      static_cast<std::uint64_t>(cap.crashed_ranks));
    return cap;
}

std::vector<Capture>
capture_sweep(const std::vector<Scenario>& batch, int threads)
{
    // Each capture is a pure function of its scenario (and of an
    // armed sim.crash clause, itself pure in content keys), so any
    // thread count yields the serial loop's results.
    std::vector<Capture> out(batch.size());
    parallel_for(batch.size(), threads,
                 [&](std::size_t i) { out[i] = capture(batch[i]); });
    return out;
}

sim::wave::Model
analytic_model(const Scenario& s, double delay)
{
    sim::wave::Model m;
    m.halo = std::max(1, s.halo);
    m.work = s.work;
    m.sync_cost = s.sync_cost;
    m.period = s.period;
    m.noise_sigma = s.noise_sigma;
    m.delay = delay;
    return m;
}

} // namespace imc::workload::delaywave
