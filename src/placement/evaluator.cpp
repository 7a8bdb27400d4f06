#include "placement/evaluator.hpp"

#include <map>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace imc::placement {

double
Evaluator::total_time(const Placement& placement) const
{
    const auto times = predict(placement);
    double total = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        total += times[i] *
                 placement.instances()[i].units;
    }
    return total;
}

const std::vector<double>&
Evaluator::scores() const
{
    throw LogicBug("Evaluator::scores: delta path not supported");
}

double
Evaluator::predict_instance(int, const std::vector<double>&) const
{
    throw LogicBug(
        "Evaluator::predict_instance: delta path not supported");
}

void
Evaluator::push_instance(const Instance&)
{
    throw LogicBug(
        "Evaluator::push_instance: dynamic path not supported");
}

void
Evaluator::pop_instance_swap(int)
{
    throw LogicBug(
        "Evaluator::pop_instance_swap: dynamic path not supported");
}

ModelEvaluator::ModelEvaluator(core::ModelRegistry& registry,
                               const std::vector<Instance>& instances,
                               Predictor predictor)
    : registry_(&registry), predictor_(predictor)
{
    for (const auto& inst : instances)
        ModelEvaluator::push_instance(inst);
}

void
ModelEvaluator::push_instance(const Instance& inst)
{
    models_.push_back(&registry_->model(inst.app, inst.units));
    scores_.push_back(models_.back()->model.bubble_score());
}

void
ModelEvaluator::pop_instance_swap(int instance)
{
    const auto idx = static_cast<std::size_t>(instance);
    require(idx < models_.size(),
            "ModelEvaluator::pop_instance_swap: instance out of range");
    models_[idx] = models_.back();
    models_.pop_back();
    scores_[idx] = scores_.back();
    scores_.pop_back();
}

std::vector<double>
ModelEvaluator::predict(const Placement& placement) const
{
    require(placement.num_instances() ==
                static_cast<int>(models_.size()),
            "ModelEvaluator: instance count mismatch");
    const auto lists = placement.pressure_lists(scores_);
    std::vector<double> out;
    out.reserve(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i)
        out.push_back(predict_instance(static_cast<int>(i), lists[i]));
    return out;
}

double
ModelEvaluator::predict_instance(
    int instance, const std::vector<double>& pressures) const
{
    const core::InterferenceModel& model =
        models_.at(static_cast<std::size_t>(instance))->model;
    return predictor_ == Predictor::kModel
               ? model.predict(pressures)
               : core::predict_naive(model.matrix(), pressures);
}

std::vector<double>
measure_actual(const Placement& placement, const workload::RunConfig& cfg)
{
    require(placement.valid(), "measure_actual: invalid placement");
    const int k = placement.num_instances();

    // Solo baselines at each instance's deployment size, cached per
    // (app, size): the same app can appear twice in a mix (HM3).
    std::map<std::pair<std::string, int>, double> solo;
    for (int i = 0; i < k; ++i) {
        const auto& inst =
            placement.instances()[static_cast<std::size_t>(i)];
        const auto key = std::make_pair(inst.app.abbrev, inst.units);
        if (solo.count(key))
            continue;
        std::vector<sim::NodeId> nodes(
            static_cast<std::size_t>(inst.units));
        for (int u = 0; u < inst.units; ++u)
            nodes[static_cast<std::size_t>(u)] = u;
        workload::RunConfig solo_cfg = cfg;
        solo_cfg.salt =
            hash_combine(cfg.salt, hash_string("pl-solo:" +
                                               inst.app.abbrev));
        solo[key] =
            workload::run_solo_time(inst.app, nodes, solo_cfg);
    }

    std::vector<OnlineStats> norm(static_cast<std::size_t>(k));
    const Rng master(cfg.seed);
    for (int rep = 0; rep < cfg.reps; ++rep) {
        Rng rep_rng = master.fork("measure_actual")
                          .fork(cfg.salt)
                          .fork(rep);
        sim::Simulation sim(cfg.cluster);

        // Dom0 adjustments follow actual node sharing.
        std::vector<workload::Deployment> deployments;
        for (int i = 0; i < k; ++i) {
            deployments.push_back(workload::Deployment{
                placement.instances()[static_cast<std::size_t>(i)].app,
                placement.nodes_of(i)});
        }
        std::vector<workload::AppSpec> apps;
        for (const auto& d : deployments)
            apps.push_back(d.app);
        Rng adjust_rng = rep_rng.fork("dom0");
        const auto adjust = workload::corun_adjustments(
            apps, workload::fluctuating_overlaps(deployments),
            adjust_rng);

        int remaining = k;
        std::vector<std::unique_ptr<workload::RestartingApp>> running;
        for (int i = 0; i < k; ++i) {
            workload::AppSpec spec = apps[static_cast<std::size_t>(i)];
            spec.demand.gen_mb *=
                adjust[static_cast<std::size_t>(i)].demand_scale;
            spec.demand.bw_gbps *=
                adjust[static_cast<std::size_t>(i)].demand_scale;
            workload::LaunchOptions opts;
            opts.nodes = placement.nodes_of(i);
            opts.procs_per_node = cfg.cluster.procs_per_unit;
            opts.rng = rep_rng.fork("inst").fork(
                static_cast<std::uint64_t>(i));
            opts.extra_noise_sigma =
                adjust[static_cast<std::size_t>(i)].extra_noise_sigma;
            running.push_back(
                std::make_unique<workload::RestartingApp>(
                    sim, std::move(spec), std::move(opts),
                    [&remaining] { --remaining; }));
        }

        std::uint64_t steps = 0;
        while (remaining > 0 && sim.step()) {
            invariant(++steps <= 50'000'000,
                      "measure_actual: event budget exceeded");
        }
        invariant(remaining == 0,
                  "measure_actual: not every instance finished");
        for (auto& r : running)
            r->stop();

        for (int i = 0; i < k; ++i) {
            const auto& inst =
                placement.instances()[static_cast<std::size_t>(i)];
            const double base =
                solo.at(std::make_pair(inst.app.abbrev, inst.units));
            norm[static_cast<std::size_t>(i)].add(
                running[static_cast<std::size_t>(i)]
                    ->first_finish_time() /
                base);
        }
    }

    std::vector<double> out;
    for (const auto& s : norm)
        out.push_back(s.mean());
    return out;
}

} // namespace imc::placement
