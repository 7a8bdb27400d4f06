#include "workload/batch_app.hpp"

#include "common/error.hpp"

namespace imc::workload {

BatchApp::BatchApp(sim::Simulation& sim, AppSpec spec, LaunchOptions opts)
    : RunningApp(sim, std::move(spec), std::move(opts))
{
    require(spec_.batch.total_work > 0.0,
            "BatchApp: total_work must be positive");
    require(spec_.batch.segments >= 1,
            "BatchApp: segments must be >= 1");

    register_tenants();

    instances_.resize(static_cast<std::size_t>(total_procs_));
    std::size_t idx = 0;
    for (std::size_t n = 0; n < tenants_.size(); ++n) {
        for (int v = 0; v < opts_.procs_per_node; ++v, ++idx) {
            instances_[idx].proc = sim_.add_proc(tenants_[n]);
            instances_[idx].segments_left = spec_.batch.segments;
            instances_[idx].rng = opts_.rng.fork(idx);
        }
    }
    for (std::size_t i = 0; i < instances_.size(); ++i)
        step(i);
}

void
BatchApp::halt_procs()
{
    for (const auto& inst : instances_)
        sim_.abort_proc(inst.proc);
}

void
BatchApp::step(std::size_t idx)
{
    if (detached())
        return;
    auto& inst = instances_[idx];
    if (inst.segments_left == 0) {
        proc_finished();
        return;
    }
    --inst.segments_left;
    const double segment =
        spec_.batch.total_work / spec_.batch.segments;
    const std::size_t node_idx =
        idx / static_cast<std::size_t>(opts_.procs_per_node);
    const double work = segment *
                        inst.rng.lognormal_factor(noise_sigma()) *
                        dom0_factor(node_idx);
    sim_.compute(inst.proc, work, [this, idx] { step(idx); });
}

} // namespace imc::workload
