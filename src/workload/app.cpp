#include "workload/app.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "workload/batch_app.hpp"
#include "workload/bsp_app.hpp"
#include "workload/service_app.hpp"
#include "workload/taskpool_app.hpp"

namespace imc::workload {

RunningApp::RunningApp(sim::Simulation& sim, AppSpec spec,
                       LaunchOptions opts)
    : sim_(sim), spec_(std::move(spec)), opts_(std::move(opts))
{
    require(!opts_.nodes.empty(), "launch: app needs at least one node");
    require(opts_.procs_per_node >= 1,
            "launch: procs_per_node must be >= 1");
    for (std::size_t i = 0; i < opts_.nodes.size(); ++i) {
        for (std::size_t j = i + 1; j < opts_.nodes.size(); ++j) {
            require(opts_.nodes[i] != opts_.nodes[j],
                    "launch: duplicate node in deployment");
        }
    }
    total_procs_ =
        static_cast<int>(opts_.nodes.size()) * opts_.procs_per_node;
    noise_sigma_ = std::sqrt(
        spec_.noise_sigma * spec_.noise_sigma +
        opts_.extra_noise_sigma * opts_.extra_noise_sigma);
}

double
RunningApp::finish_time() const
{
    invariant(done_, "finish_time: app not done yet");
    return finish_time_;
}

double
RunningApp::dom0_factor(std::size_t node_idx) const
{
    if (spec_.dom0_cotenancy_penalty <= 0.0)
        return 1.0;
    const sim::TenantId tenant = tenants_.at(node_idx);
    const bool shared = sim_.tenants_on(sim_.node_of(tenant)) > 1;
    return shared ? 1.0 + spec_.dom0_cotenancy_penalty : 1.0;
}

void
RunningApp::register_tenants()
{
    const bool master = spec_.kind == AppKind::TaskPool &&
                        spec_.pool.idle_master;
    for (std::size_t i = 0; i < opts_.nodes.size(); ++i) {
        sim::TenantDemand d = spec_.demand;
        if (master && i == 0 && opts_.procs_per_node > 1) {
            // The master VM performs no tasks (Section 3.4), so the
            // master node's unit generates proportionally less
            // pressure.
            const double scale =
                static_cast<double>(opts_.procs_per_node - 1) /
                static_cast<double>(opts_.procs_per_node);
            d.gen_mb *= scale;
            d.need_mb *= scale;
            d.bw_gbps *= scale;
        }
        tenants_.push_back(sim_.add_tenant(opts_.nodes[i], d));
    }
}

void
RunningApp::detach()
{
    if (done_ || detached_)
        return;
    detached_ = true;
    halt_procs();
    // Crashed nodes already killed their tenants; remove the rest.
    // Each node holds one of them (launch rejects duplicate nodes), so
    // co-runners on each node see a single contention change.
    for (sim::TenantId t : tenants_) {
        if (sim_.tenant_live(t))
            sim_.remove_tenant(t);
    }
    tenants_.clear();
}

void
RunningApp::proc_finished()
{
    if (detached_)
        return; // dormant callbacks after detach are no-ops
    invariant(finished_procs_ < total_procs_,
              "proc_finished: too many completions");
    ++finished_procs_;
    finish_metric_sum_ += sim_.now();
    if (finished_procs_ == total_procs_)
        finalize();
}

void
RunningApp::finalize()
{
    invariant(!done_, "finalize: already done");
    done_ = true;
    if (spec_.kind == AppKind::Batch) {
        finish_time_ = finish_metric_sum_ / total_procs_;
    } else {
        finish_time_ = sim_.now();
    }
    for (sim::TenantId t : tenants_)
        sim_.remove_tenant(t);
    tenants_.clear();
    if (opts_.on_complete)
        opts_.on_complete();
}

std::unique_ptr<RunningApp>
launch(sim::Simulation& sim, const AppSpec& spec, LaunchOptions opts)
{
    switch (spec.kind) {
      case AppKind::Bsp:
        return std::make_unique<BspApp>(sim, spec, std::move(opts));
      case AppKind::TaskPool:
        return std::make_unique<TaskPoolApp>(sim, spec, std::move(opts));
      case AppKind::Batch:
        return std::make_unique<BatchApp>(sim, spec, std::move(opts));
      case AppKind::Service:
        return std::make_unique<ServiceApp>(sim, spec, std::move(opts));
    }
    throw LogicBug("launch: unknown AppKind");
}

} // namespace imc::workload
