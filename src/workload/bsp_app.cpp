#include "workload/bsp_app.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace imc::workload {

void
check_injections(const std::vector<BspInjection>& injections, int ranks,
                 int iterations)
{
    for (const auto& inj : injections) {
        require(inj.rank >= 0 && inj.rank < ranks,
                "BspApp: injection rank out of range");
        require(inj.iter >= 0 && inj.iter < iterations,
                "BspApp: injection iteration out of range");
        require(inj.delay > 0.0 && std::isfinite(inj.delay),
                "BspApp: injection delay must be positive and finite");
    }
}

BspApp::BspApp(sim::Simulation& sim, AppSpec spec, LaunchOptions opts)
    : RunningApp(sim, std::move(spec), std::move(opts)),
      // Base members (spec_, total_procs_) are initialized before the
      // derived member-init list runs, so they are safe to use here.
      barrier_(sim_, total_procs_, spec_.bsp.collective_cost),
      neighbor_(sim_, total_procs_,
                std::max(1, spec_.bsp.neighbor_halo),
                spec_.bsp.collective_cost)
{
    const auto& params = spec_.bsp;
    require(params.iterations >= 1, "BspApp: iterations must be >= 1");
    require(params.iters_per_collective >= 1,
            "BspApp: iters_per_collective must be >= 1");
    require(params.neighbor_halo >= 0,
            "BspApp: neighbor_halo must be >= 0");
    check_injections(params.injections, total_procs_, params.iterations);

    register_tenants();
    node_seed_ = opts_.rng.fork("node-noise").seed();
    node_draws_.resize(tenants_.size());
    if (opts_.timeline)
        opts_.timeline->reset(total_procs_, params.iterations);

    procs_.resize(static_cast<std::size_t>(total_procs_));
    std::size_t idx = 0;
    for (std::size_t n = 0; n < tenants_.size(); ++n) {
        for (int v = 0; v < opts_.procs_per_node; ++v, ++idx) {
            procs_[idx].proc = sim_.add_proc(tenants_[n]);
            procs_[idx].rng = opts_.rng.fork(idx);
        }
    }
    for (std::size_t i = 0; i < procs_.size(); ++i)
        step(i);
}

void
BspApp::halt_procs()
{
    for (const auto& ps : procs_)
        sim_.abort_proc(ps.proc);
}

void
BspApp::step(std::size_t idx)
{
    if (detached())
        return; // a barrier release may fire after detach
    auto& ps = procs_[idx];
    if (ps.iter >= spec_.bsp.iterations) {
        proc_finished();
        return;
    }
    const double imbalance =
        ps.rng.lognormal_factor(spec_.bsp.imbalance_cv);
    const double noise = ps.rng.lognormal_factor(noise_sigma());

    // Node-correlated contention jitter: every process of this node
    // draws the same per-iteration factor, with a sigma that grows
    // with the node's current slowdown (contention makes nodes
    // erratic, not just slow).
    const auto node_idx =
        idx / static_cast<std::size_t>(opts_.procs_per_node);
    const sim::TenantId tenant = tenants_[node_idx];
    // A sync may still release a process after its node crashed; the
    // work is lost with the node, so the process stops here.
    if (!sim_.tenant_live(tenant))
        return;
    const double slow = sim_.tenant_slowdown(tenant);
    const double node_sigma =
        spec_.bsp.node_noise_base +
        spec_.bsp.node_noise_slope * std::max(0.0, slow - 1.0);
    // Rng::lognormal_factor over the node's shared normal.
    const double node_factor =
        node_sigma <= 0.0
            ? 1.0
            : std::exp(node_sigma * node_normal(node_idx, ps.iter));

    const double work = spec_.bsp.work_per_iter * imbalance * noise *
                        node_factor * dom0_factor(node_idx);
    if (opts_.timeline)
        opts_.timeline->compute_start(static_cast<int>(idx), ps.iter,
                                      sim_.now());
    sim_.compute(ps.proc, work, [this, idx] { segment_done(idx); });
}

double
BspApp::node_normal(std::size_t node_idx, int iter)
{
    NodeDraw& draw = node_draws_[node_idx];
    if (draw.iter != iter) {
        Rng node_rng(hash_combine(
            node_seed_,
            hash_combine(node_idx, static_cast<std::uint64_t>(iter))));
        draw = {iter, node_rng.normal()};
    }
    return draw.z;
}

void
BspApp::segment_done(std::size_t idx)
{
    if (detached())
        return;
    // An injected one-off delay extends *this* compute segment — pure
    // simulated time, no extra RNG draws, so the same seed replays the
    // identical noise field with and without the injection and their
    // timelines subtract into an exact lateness field. Injections on
    // one segment add up.
    double delay = 0.0;
    for (const auto& inj : spec_.bsp.injections) {
        if (inj.rank == static_cast<int>(idx) &&
            inj.iter == procs_[idx].iter)
            delay += inj.delay;
    }
    if (delay > 0.0) {
        sim_.schedule(delay, [this, idx] { finish_segment(idx); });
        return;
    }
    finish_segment(idx);
}

void
BspApp::finish_segment(std::size_t idx)
{
    if (detached())
        return;
    auto& ps = procs_[idx];
    const int iter_done = ps.iter;
    if (opts_.timeline)
        opts_.timeline->compute_end(static_cast<int>(idx), iter_done,
                                    sim_.now());
    ++ps.iter;
    ++ps.since_collective;
    const bool at_collective =
        ps.since_collective >= spec_.bsp.iters_per_collective ||
        ps.iter >= spec_.bsp.iterations; // final sync before exit
    if (at_collective) {
        ps.since_collective = 0;
        auto release = [this, idx] { resume(idx); };
        if (spec_.bsp.neighbor_halo >= 1)
            neighbor_.arrive(static_cast<int>(idx), release);
        else
            barrier_.arrive(release);
    } else {
        if (opts_.timeline)
            opts_.timeline->release(static_cast<int>(idx), iter_done,
                                    sim_.now());
        step(idx);
    }
}

void
BspApp::resume(std::size_t idx)
{
    if (detached())
        return;
    // finish_segment advanced iter past the iteration that synced.
    if (opts_.timeline)
        opts_.timeline->release(static_cast<int>(idx),
                                procs_[idx].iter - 1, sim_.now());
    step(idx);
}

} // namespace imc::workload
