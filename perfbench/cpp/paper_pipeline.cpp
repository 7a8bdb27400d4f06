/**
 * @file
 * paper_pipeline: the paper's own flow on the 8-node private cluster,
 * through one RunService with a fixed pool of 2 workers.
 *
 * Set-up profiles every model the timed phase uses, once, as a
 * deployment would (paper Section 4.4): every catalog app at 8 nodes,
 * and the Table 5 mix apps and the serving mix (V.srch, V.web and two
 * batch interferers) at their 4-unit deployment size. The timed phase:
 *
 *  1. validate every distributed app against all 18 co-runners
 *     (Fig. 8), as one RunService::run_all batch;
 *  2. anneal every Table 5 mix and measure the result against a seeded
 *     random placement (Fig. 11);
 *  3. place the serving mix for throughput and for its p99 SLOs, and
 *     measure both (bench/micro_serve).
 *
 * Its thousands of short 8-node runs exercise the sim in the opposite
 * regime to sim_churn_10k (small queues, barrier-tied timestamps, a
 * new simulation per run), and its 4-app anneals exercise placement in
 * the opposite regime to sched_replay_2k5. Parallelism is the pool
 * only: models build in a plain loop and every anneal runs one chain.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/registry.hpp"
#include "placement/annealer.hpp"
#include "placement/evaluator.hpp"
#include "placement/mixes.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"

namespace perfbench {

namespace {

using imc::hash_combine;
using imc::hash_string;
namespace placement = imc::placement;
namespace workload = imc::workload;

constexpr int kThreads = 2;
constexpr int kAnnealIterations = 4000;
constexpr int kMeasureReps = 5;
constexpr double kServiceSlo = 1.30;

const std::vector<std::string> kServingMix{"V.srch", "V.web", "C.mcf",
                                           "C.libq"};

/** Units-weighted mean of @p xs over @p instances. */
double
weighted_mean(const std::vector<double>& xs,
              const std::vector<placement::Instance>& instances)
{
    double sum = 0.0;
    double weight = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sum += xs[i] * instances[i].units;
        weight += instances[i].units;
    }
    return sum / weight;
}

/** One rep's RunService, models and steps; @p tracer may be null. */
class Pipeline {
  public:
    Pipeline(std::uint64_t seed, Tracer* tracer)
        : seed_(seed), tracer_(tracer), service_(kThreads),
          cfg_(make_config(seed)), registry_(cfg_, {}, &service_)
    {
    }

    /** Build every model the timed phase uses. */
    void setup()
    {
        auto model = [&](const workload::AppSpec& app, int size) {
            const Tracer::Span span(tracer_, "core.model_build");
            registry_.model(app, size);
        };
        const int nodes = cfg_.cluster.num_nodes;
        for (const auto& app : workload::catalog())
            model(app, nodes);
        for (const auto& mix : placement::table5_mixes()) {
            for (const auto& inst :
                 placement::instantiate(mix, cfg_.cluster))
                model(inst.app, inst.units);
        }
        for (const auto& inst : serving_mix())
            model(inst.app, inst.units);
    }

    /** Fig. 8: mean absolute prediction error over all pairs, %. */
    double validate()
    {
        const auto nodes = workload::all_nodes(cfg_.cluster);
        const int m = cfg_.cluster.num_nodes;
        const auto targets = workload::distributed_apps();
        const auto& corunners = workload::catalog();

        // bench_util's validate_pairwise requests, for every target
        // at once; its prefetch would start builder threads.
        std::vector<workload::RunRequest> reqs;
        for (const auto& target : targets) {
            workload::RunConfig solo_cfg = cfg_;
            solo_cfg.salt = hash_string("validate-solo:" + target.abbrev);
            reqs.push_back(
                workload::solo_time_request(target, nodes, solo_cfg));
            for (const auto& corunner : corunners) {
                workload::RunConfig corun_cfg = cfg_;
                corun_cfg.salt = hash_string("validate:" + target.abbrev +
                                             "/" + corunner.abbrev);
                reqs.push_back(workload::corun_time_request(
                    target, nodes,
                    {workload::Deployment{corunner, nodes}}, corun_cfg));
            }
        }
        std::vector<double> times;
        {
            const Tracer::Span span(tracer_, "workload.validate");
            times = service_.run_all(reqs);
        }
        require_finite(times, "validation run");

        double err_sum = 0.0;
        int samples = 0;
        std::size_t k = 0;
        for (const auto& target : targets) {
            const auto& model = registry_.model(target, m).model;
            const double solo = times[k++];
            for (const auto& corunner : corunners) {
                const double score =
                    registry_.model(corunner, m).model.bubble_score();
                const double predicted = model.predict(
                    std::vector<double>(static_cast<std::size_t>(m),
                                        score));
                const double actual = times[k++] / solo;
                err_sum += imc::abs_pct_error(predicted, actual);
                ++samples;
            }
        }
        return err_sum / samples;
    }

    /** Fig. 11: mean over mixes of annealed-vs-random speedup. */
    double place_mixes()
    {
        double speedup_sum = 0.0;
        for (const auto& mix : placement::table5_mixes()) {
            const Tracer::Span span(tracer_, "placement.mix:" + mix.name);
            const auto instances =
                placement::instantiate(mix, cfg_.cluster);
            const placement::ModelEvaluator evaluator(registry_,
                                                      instances);
            imc::Rng start_rng(hash_combine(
                seed_, hash_string("fig11:" + mix.name + "best")));
            placement::AnnealOptions aopts;
            aopts.iterations = kAnnealIterations;
            aopts.seed =
                hash_combine(seed_, hash_string(mix.name + "best"));
            const auto best =
                anneal(placement::Placement::random(
                           instances, cfg_.cluster, start_rng),
                       evaluator, aopts);

            imc::Rng random_rng(
                hash_combine(seed_, hash_string("fig11-random:" + mix.name)));
            const auto random = placement::Placement::random(
                instances, cfg_.cluster, random_rng);

            const auto best_t =
                measure(best, "fig11-measure:" + mix.name + "best");
            const auto random_t =
                measure(random, "fig11-measure:" + mix.name + "rand0");
            std::vector<double> speedup;
            for (std::size_t i = 0; i < best_t.size(); ++i)
                speedup.push_back(random_t[i] / best_t[i]);
            speedup_sum += weighted_mean(speedup, instances);
        }
        return speedup_sum /
               static_cast<double>(placement::table5_mixes().size());
    }

    /** micro_serve: throughput vs SLO-aware placement; a summary. */
    std::string place_serving_mix()
    {
        const Tracer::Span span(tracer_, "placement.serve");
        const auto instances = serving_mix();
        std::vector<double> slo(instances.size(), 0.0);
        for (std::size_t i = 0; i < instances.size(); ++i) {
            if (instances[i].app.kind == workload::AppKind::Service)
                slo[i] = kServiceSlo;
        }
        const placement::ModelEvaluator evaluator(registry_, instances);
        imc::Rng rng(hash_combine(seed_, hash_string("micro_serve")));
        const auto initial =
            placement::Placement::random(instances, cfg_.cluster, rng);

        placement::AnnealOptions perf_opts;
        perf_opts.iterations = kAnnealIterations;
        perf_opts.seed = hash_combine(seed_, hash_string("anneal"));
        placement::AnnealOptions qos_opts = perf_opts;
        qos_opts.slo_targets = slo;

        std::string summary;
        for (const auto& [name, aopts] :
             {std::pair{"perf", perf_opts}, std::pair{"qos", qos_opts}}) {
            const auto placed = anneal(initial, evaluator, aopts);
            const auto times =
                measure(placed, std::string("micro_serve:") + name);
            double worst = 0.0;
            int violations = 0;
            for (std::size_t i = 0; i < times.size(); ++i) {
                if (slo[i] > 0.0) {
                    worst = std::max(worst, times[i]);
                    violations += times[i] > slo[i];
                }
            }
            summary += std::string(summary.empty() ? "" : "; ") + name +
                       " worst service p99 " + std::to_string(worst) +
                       ", violations " + std::to_string(violations);
        }
        return summary;
    }

    workload::RunService::Stats stats() const { return service_.stats(); }

    /** Swaps proposed by every anneal so far. */
    std::uint64_t anneal_proposals() const { return anneal_proposals_; }

    /** Placements or measurements that failed their checks. */
    const std::vector<std::string>& problems() const { return problems_; }

  private:
    static workload::RunConfig make_config(std::uint64_t seed)
    {
        workload::RunConfig cfg;
        cfg.cluster = imc::sim::ClusterSpec::private8();
        cfg.seed = seed;
        cfg.reps = 3;
        return cfg;
    }

    std::vector<placement::Instance> serving_mix() const
    {
        const int units = cfg_.cluster.num_nodes *
                          cfg_.cluster.slots_per_node /
                          static_cast<int>(kServingMix.size());
        std::vector<placement::Instance> instances;
        for (const auto& name : kServingMix)
            instances.push_back({workload::find_app(name), units});
        return instances;
    }

    placement::Placement anneal(placement::Placement initial,
                                const placement::Evaluator& evaluator,
                                placement::AnnealOptions aopts)
    {
        aopts.chains = 1;
        const Tracer::Span span(tracer_, "placement.anneal");
        const auto result = placement::anneal(
            std::move(initial), evaluator,
            placement::Goal::MinimizeTotalTime, std::nullopt, aopts);
        anneal_proposals_ += static_cast<std::uint64_t>(aopts.iterations) *
                             static_cast<std::uint64_t>(result.chains_run);
        if (!result.placement.valid())
            problems_.push_back("annealed placement invalid");
        return result.placement;
    }

    std::vector<double> measure(const placement::Placement& p,
                                const std::string& salt)
    {
        if (!p.valid())
            problems_.push_back("measured placement invalid");
        workload::RunConfig mcfg = cfg_;
        mcfg.salt = hash_string(salt);
        // Fig. 11's setting: placement spreads are a few percent.
        mcfg.reps = kMeasureReps;
        const Tracer::Span span(tracer_, "workload.measure");
        auto times = placement::measure_actual(p, mcfg);
        require_finite(times, "placement measurement");
        return times;
    }

    void require_finite(const std::vector<double>& xs, const char* what)
    {
        for (const double x : xs) {
            if (!std::isfinite(x) || x <= 0.0) {
                problems_.push_back(std::string(what) +
                                    " did not finish");
                return;
            }
        }
    }

    std::uint64_t seed_;
    Tracer* tracer_;
    std::uint64_t anneal_proposals_ = 0;
    workload::RunService service_;
    workload::RunConfig cfg_;
    imc::core::ModelRegistry registry_;
    std::vector<std::string> problems_;
};

} // namespace

Report
run_paper_pipeline(const RunOptions& opts)
{
    Report report;
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> wall_clock_s;
    std::vector<double> traced_wall_s;
    std::vector<Metrics> traced;
    Metrics counts; // repeat exactly from rep to rep
    double predict_err = 0.0;
    double speedup = 0.0;
    std::string serve_summary;
    workload::RunService::Stats stats;

    repeat_for(opts, 2, report, [&](int, bool trace) {
        std::unique_ptr<Tracer> tracer;
        if (trace)
            tracer = std::make_unique<Tracer>();

        const double c0 = cpu_seconds();
        Pipeline pipeline(opts.seed, tracer.get());
        {
            const Tracer::Span span(tracer.get(), "setup");
            pipeline.setup();
        }
        const double setup = cpu_seconds() - c0;
        const std::uint64_t setup_runs = pipeline.stats().executed;

        const double c1 = cpu_seconds();
        const Clock::time_point t1 = Clock::now();
        {
            const Tracer::Span span(tracer.get(), "timed");
            predict_err = pipeline.validate();
            speedup = pipeline.place_mixes();
            serve_summary = pipeline.place_serving_mix();
        }
        const double wall_clock = seconds_since(t1);
        const double timed = cpu_seconds() - c1;
        stats = pipeline.stats();

        if (!trace) {
            setup_s.push_back(setup);
            wall_s.push_back(timed);
            wall_clock_s.push_back(wall_clock);
            ++report.reps;
        } else {
            traced_wall_s.push_back(timed);
            Metrics m;
            for (const char* span :
                 {"core.model_build", "workload.validate",
                  "placement.anneal", "workload.measure"})
                m[std::string(span) + "_s"] = {tracer->span_seconds(span),
                                               "s"};
            traced.push_back(std::move(m));
            report.tracers.push_back(std::move(tracer));
            ++report.traced_reps;
        }

        std::map<std::string, std::string> out;
        out["runs_executed"] = std::to_string(stats.executed);
        out["predict_err_pct"] = hexfloat(predict_err);
        out["placement_speedup"] = hexfloat(speedup);
        check_same_outputs(report, out);
        for (const auto& p : pipeline.problems())
            report.problems.push_back(p);
        report.attempted += stats.submitted;
        report.failed += stats.failed;

        Metrics& c = counts;
        c["core.model_build_runs"] = {static_cast<double>(setup_runs),
                                      "count"};
        c["workload.validate_runs"] = {
            static_cast<double>(stats.executed - setup_runs), "count"};
        c["placement.anneal_proposals"] = {
            static_cast<double>(pipeline.anneal_proposals()), "count"};
        c["workload.runs_submitted"] = {
            static_cast<double>(stats.submitted), "count"};
        c["workload.runs_executed"] = {
            static_cast<double>(stats.executed), "count"};
        c["workload.cache_hit_frac"] = {
            static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.submitted),
            "1"};
    });

    set_common_metrics(report, setup_s, wall_s, wall_clock_s);
    report.notes.push_back("predict_err_pct " +
                           std::to_string(predict_err) + " %");
    report.notes.push_back("placement_speedup " +
                           std::to_string(speedup) + " x");
    report.notes.push_back("serving mix: " + serve_summary);
    report.notes.push_back(
        "runs submitted " + std::to_string(stats.submitted) +
        ", executed " + std::to_string(stats.executed) +
        ", MeasurementFailed " + std::to_string(stats.failed));

    if (opts.trace) {
        report.per_layer = counts;
        put_medians(report.per_layer, traced);
        report.per_layer["predict_err_pct"] = {predict_err, "%"};
        report.per_layer["placement_speedup"] = {speedup, "x"};
        report.per_layer["trace_overhead_pct"] = {
            100.0 * (imc::median(traced_wall_s) / imc::median(wall_s) -
                     1.0),
            "%"};
        zero_unmeasured("paper_pipeline", report.per_layer);
    }
    return report;
}

} // namespace perfbench
