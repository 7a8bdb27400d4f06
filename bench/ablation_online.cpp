/**
 * @file
 * Extension experiment (the paper's stated future work, Sections 1
 * and 8): online model refinement.
 *
 * The static profile cannot see the Dom0 fluctuation that makes
 * M.Gems and its fluctuating-CPU partners the worst-predicted
 * workloads of Fig. 8/9. This harness replays a stream of co-run
 * observations into an OnlineRefiner and reports the prediction error
 * of the static model vs the refined model over the *next*
 * observations (train on a prefix, evaluate on the rest — no
 * peeking).
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/online.hpp"

using namespace imc;

namespace {

int
run(const Cli& cli)
{
    auto cfg = benchutil::config_from_cli(cli);
    if (!cli.has("reps"))
        cfg.reps = 1; // each observation is a single production run
    const auto service = benchutil::service_from_cli(cli);
    const int train = cli.get_int("train", 25);
    const int eval_n = cli.get_int("eval", 10);
    const double alpha = cli.get_double("alpha", 0.15);

    std::vector<std::string> abbrevs = cli.get_list("apps");
    if (abbrevs.empty())
        abbrevs = {"M.Gems", "H.KM", "S.PR", "S.WC"};

    std::cout << "Extension: online refinement vs static profile\n"
              << "(cluster=" << cfg.cluster.name
              << ", train=" << train << " observations, eval="
              << eval_n << ", seed=" << cfg.seed << ")\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());
    const auto nodes = workload::all_nodes(cfg.cluster);
    const int m = cfg.cluster.num_nodes;

    // Observations come from co-runs with M.Gems — the co-runner whose
    // generated interference fluctuates (Section 4.3).
    const auto& gems = workload::find_app("M.Gems");
    const double gems_score =
        registry.model(gems, m).model.bubble_score();

    Table table({"app", "static err(%)", "refined err(%)",
                 "improvement"});
    for (const auto& abbrev : abbrevs) {
        const auto& app = workload::find_app(abbrev);
        core::OnlineRefiner refiner(registry.model(app, m).model,
                                    alpha);
        const std::vector<double> pressures(
            static_cast<std::size_t>(m), gems_score);

        // The whole observation stream (solo baseline + every train
        // and eval co-run) is one batch; the refiner then consumes it
        // strictly in stream order, so the online state evolves
        // exactly as it would observing run by run.
        std::vector<workload::RunRequest> reqs;
        workload::RunConfig solo_cfg = cfg;
        solo_cfg.salt = hash_string("online-solo:" + abbrev);
        solo_cfg.reps = 3;
        reqs.push_back(
            workload::solo_time_request(app, nodes, solo_cfg));
        for (int i = 0; i < train + eval_n; ++i) {
            workload::RunConfig run_cfg = cfg;
            run_cfg.salt = hash_combine(
                hash_string("online:" + abbrev),
                static_cast<std::uint64_t>(i));
            reqs.push_back(workload::corun_time_request(
                app, nodes, {workload::Deployment{gems, nodes}},
                run_cfg));
        }
        const auto times = service->run_all(reqs);
        const double solo = times[0];
        const auto observation = [&](int index) {
            return times[static_cast<std::size_t>(index) + 1] / solo;
        };

        // Train.
        for (int i = 0; i < train; ++i)
            refiner.observe(pressures, observation(i));

        // Evaluate on fresh runs.
        OnlineStats static_err;
        OnlineStats refined_err;
        for (int i = 0; i < eval_n; ++i) {
            const double actual = observation(train + i);
            static_err.add(abs_pct_error(
                refiner.predict_static(pressures), actual));
            refined_err.add(
                abs_pct_error(refiner.predict(pressures), actual));
        }
        const double gain =
            static_err.mean() - refined_err.mean();
        table.add_row({abbrev, fmt_fixed(static_err.mean(), 2),
                       fmt_fixed(refined_err.mean(), 2),
                       // std::string lhs dodges GCC 12's -Wrestrict
                       // false positive on operator+(const char*,
                       // string&&) at -O2.
                       std::string(gain >= 0 ? "-" : "+") +
                           fmt_fixed(std::abs(gain), 2) + " pts"});
    }
    table.print(std::cout);
    std::cout << "\n(observations are co-runs with M.Gems, whose "
                 "generated interference fluctuates; the refiner "
                 "learns the systematic bias the static profile "
                 "misses)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"apps", "train", "eval", "alpha", "seed", "reps",
                      "threads"},
                     run);
}
