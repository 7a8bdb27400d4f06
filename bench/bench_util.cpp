#include "bench_util.hpp"

#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/stats.hpp"

namespace imc::benchutil {

workload::RunConfig
config_from_cli(const Cli& cli, bool ec2)
{
    workload::RunConfig cfg;
    cfg.cluster = ec2 ? sim::ClusterSpec::ec2_32()
                      : sim::ClusterSpec::private8();
    cfg.seed = cli.get_u64("seed", 42);
    cfg.reps = cli.get_int("reps", 3);
    return cfg;
}

std::unique_ptr<workload::RunService>
service_from_cli(const Cli& cli, int default_threads)
{
    return std::make_unique<workload::RunService>(
        cli.get_int("threads", default_threads));
}

std::vector<workload::AppSpec>
apps_from_cli(const Cli& cli)
{
    const auto names = cli.get_list("apps");
    if (names.empty())
        return workload::distributed_apps();
    std::vector<workload::AppSpec> apps;
    for (const auto& name : names)
        apps.push_back(workload::find_app(name));
    return apps;
}

std::vector<AlgoOutcome>
profiling_campaign(const workload::AppSpec& app,
                   const workload::RunConfig& cfg, double epsilon,
                   workload::RunService& service)
{
    const obs::Span span("campaign:" + app.abbrev);
    const auto nodes = workload::all_nodes(cfg.cluster);
    core::ProfileOptions opts;
    opts.hosts = cfg.cluster.num_nodes;
    opts.epsilon = epsilon;
    opts.row_tasks = service.threads();

    // Each algorithm gets a fresh counting wrapper (shared cached
    // measures would couple the cost accounting), all backed by the
    // same deterministic leaf runs through the shared service, whose
    // cache deduplicates the settings the algorithms re-measure.
    const auto fresh_measure = [&] {
        return core::CountingMeasure(
            core::make_cluster_measure(app, nodes, cfg, opts.grid,
                                       service),
            core::make_cluster_prefetch(app, nodes, cfg, opts.grid,
                                        service));
    };

    // Exhaustive ground truth.
    core::CountingMeasure truth_measure = fresh_measure();
    const auto truth = core::profile_exhaustive(truth_measure, opts);

    std::vector<AlgoOutcome> out;
    for (const auto algorithm :
         {core::ProfileAlgorithm::BinaryOptimized,
          core::ProfileAlgorithm::BinaryBrute,
          core::ProfileAlgorithm::Random50,
          core::ProfileAlgorithm::Random30}) {
        core::CountingMeasure measure = fresh_measure();
        const auto result = core::run_profiler(
            algorithm, measure, opts,
            hash_combine(cfg.seed,
                         hash_string(core::to_string(algorithm) + ":" +
                                     app.abbrev)));
        AlgoOutcome outcome;
        outcome.algorithm = algorithm;
        outcome.cost_pct = 100.0 * result.cost();
        outcome.error_pct =
            core::matrix_error_pct(result.matrix, truth.matrix);
        out.push_back(outcome);
    }
    return out;
}

std::vector<ValidationSample>
validate_pairwise(core::ModelRegistry& registry,
                  const workload::AppSpec& target,
                  const std::vector<workload::AppSpec>& corunners)
{
    const auto& cfg = registry.config();
    const auto nodes = workload::all_nodes(cfg.cluster);
    const int m = cfg.cluster.num_nodes;
    const auto& target_model = registry.model(target, m);
    // Distinct co-runner models can profile concurrently.
    if (registry.service().threads() > 1)
        registry.prefetch(corunners, m);

    // One batch: the target's solo baseline plus its co-run with every
    // co-runner. With a multi-threaded registry service the whole
    // validation row measures concurrently; the samples are
    // bit-identical at any thread count.
    std::vector<workload::RunRequest> reqs;
    reqs.reserve(corunners.size() + 1);
    workload::RunConfig solo_cfg = cfg;
    solo_cfg.salt = hash_string("validate-solo:" + target.abbrev);
    reqs.push_back(
        workload::solo_time_request(target, nodes, solo_cfg));
    for (const auto& corunner : corunners) {
        workload::RunConfig corun_cfg = cfg;
        corun_cfg.salt = hash_string("validate:" + target.abbrev +
                                     "/" + corunner.abbrev);
        reqs.push_back(workload::corun_time_request(
            target, nodes, {workload::Deployment{corunner, nodes}},
            corun_cfg));
    }
    const std::vector<double> times = registry.service().run_all(reqs);
    const double solo = times[0];

    std::vector<ValidationSample> out;
    for (std::size_t i = 0; i < corunners.size(); ++i) {
        const auto& corunner = corunners[i];
        const double score =
            registry.model(corunner, m).model.bubble_score();
        const std::vector<double> pressures(
            static_cast<std::size_t>(m), score);
        ValidationSample sample;
        sample.target = target.abbrev;
        sample.corunner = corunner.abbrev;
        sample.predicted = target_model.model.predict(pressures);
        sample.actual = times[i + 1] / solo;
        sample.error_pct = abs_pct_error(sample.predicted,
                                         sample.actual);
        out.push_back(sample);
    }
    return out;
}

} // namespace imc::benchutil
