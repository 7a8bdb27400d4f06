#include "workload/taskpool_app.hpp"

#include "common/error.hpp"

namespace imc::workload {

namespace {

/** Pre-generate per-stage task work lists, deterministically. */
std::vector<std::vector<double>>
generate_stages(const AppSpec& spec, int workers, const Rng& base)
{
    Rng rng = base.fork("taskpool-stages");
    const auto& p = spec.pool;
    std::vector<std::vector<double>> stages(
        static_cast<std::size_t>(p.stages));
    for (auto& stage : stages) {
        const int tasks = p.tasks_per_wave * workers;
        stage.reserve(static_cast<std::size_t>(tasks));
        for (int t = 0; t < tasks; ++t) {
            stage.push_back(p.task_work_mean *
                            rng.fork(t).lognormal_factor(p.task_work_cv));
        }
    }
    return stages;
}

} // namespace

TaskPoolApp::TaskPoolApp(sim::Simulation& sim, AppSpec spec,
                         LaunchOptions opts)
    : RunningApp(sim, std::move(spec), std::move(opts)),
      pool_(sim_,
            generate_stages(spec_,
                            spec_.pool.idle_master && total_procs_ > 1
                                ? total_procs_ - 1
                                : total_procs_,
                            opts_.rng),
            spec_.pool.shuffle_cost)
{
    require(spec_.pool.stages >= 1, "TaskPoolApp: stages must be >= 1");
    require(spec_.pool.tasks_per_wave >= 1,
            "TaskPoolApp: tasks_per_wave must be >= 1");

    register_tenants();

    const bool master = spec_.pool.idle_master && total_procs_ > 1;
    const int workers = master ? total_procs_ - 1 : total_procs_;
    workers_.resize(static_cast<std::size_t>(workers));

    std::size_t idx = 0;
    int vm = 0;
    for (std::size_t n = 0; n < tenants_.size(); ++n) {
        for (int v = 0; v < opts_.procs_per_node; ++v, ++vm) {
            if (master && n == 0 && v == 0) {
                // The master VM schedules tasks but performs none; it
                // "finishes" immediately for accounting purposes.
                sim_.schedule(0.0, [this] { proc_finished(); });
                continue;
            }
            workers_[idx].proc = sim_.add_proc(tenants_[n]);
            workers_[idx].node_idx = n;
            workers_[idx].rng = opts_.rng.fork(1000 + vm);
            ++idx;
        }
    }
    invariant(idx == workers_.size(),
              "TaskPoolApp: worker bookkeeping mismatch");
    for (std::size_t i = 0; i < workers_.size(); ++i)
        pull(i);
}

void
TaskPoolApp::halt_procs()
{
    for (const auto& w : workers_)
        sim_.abort_proc(w.proc);
}

void
TaskPoolApp::pull(std::size_t idx)
{
    if (detached())
        return;
    pool_.request([this, idx](sim::TaskPool::Grant grant) {
        if (detached())
            return; // a grant may arrive after detach
        if (grant.finished) {
            proc_finished();
            return;
        }
        auto& w = workers_[idx];
        const double work = grant.work *
                            w.rng.lognormal_factor(noise_sigma()) *
                            dom0_factor(w.node_idx);
        sim_.compute(w.proc, work, [this, idx] {
            pool_.complete_task();
            pull(idx);
        });
    });
}

} // namespace imc::workload
