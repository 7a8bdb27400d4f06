/**
 * @file
 * imctl — a small operator CLI over the whole library, showing how a
 * deployment would actually drive it: profile once, save the models,
 * then predict and place from the saved profiles without touching the
 * cluster again.
 *
 * Subcommands (the first argument; "trace gen" is two words). Each
 * declares the value flags and switches it reads in main's command
 * table; any other argument is an error that prints the command's
 * usage line.
 *
 *   profile --app M.milc --out milc.model
 *       Build the app's interference model and save it.
 *
 *   show --model milc.model
 *       Print a saved model: policy, score, sensitivity matrix.
 *
 *   predict --model milc.model --pressures 6.6,0,0,0,3.9,0,0,0
 *       Predict the normalized runtime under a per-node pressure
 *       list (also prints the naive proportional baseline).
 *
 *   place --apps N.mg,C.libq,H.KM,M.lmps [--qos 0 --target 0.8]
 *       Profile (or reuse cached) models for a four-workload mix and
 *       run the interference-aware placement search.
 *
 *   campaign
 *       Replay the fig06+fig07+table3 profiling session (each pass
 *       profiles every app with exhaustive + 4 cheaper algorithms)
 *       through one shared RunService and report its
 *       submitted/executed/cache-hit accounting.
 *
 *   trace gen --out trace.txt
 *       Generate a seeded synthetic scheduler event trace (Poisson
 *       arrivals, lognormal lifetimes, mixed archetypes, optional
 *       crash/repair process) in the imc-trace v1 text format. Pure
 *       function of its flags.
 *
 *   serve --trace trace.txt
 *       The event-driven scheduler ("imcd"): replay the trace through
 *       sched::SchedulerCore, maintaining a near-optimal placement
 *       incrementally (admission control, greedy insertion, bounded
 *       polish, SLO-aware eviction, crash repair), and report the
 *       decision stream plus placement quality vs the batch-anneal
 *       oracle. Output is byte-identical at any --threads setting;
 *       --timing appends wall-clock decision latencies (the one
 *       non-deterministic section). --execute additionally runs the
 *       admitted apps on the sim engine (attach/detach).
 *
 * --threads N sizes the measurement service's worker pool (default
 * 0 = hardware concurrency; results are bit-identical at any
 * setting); --model-cache DIR reuses models profiled by earlier
 * invocations with the same configuration. Every subcommand takes
 * the observability flags: --metrics prints an imc::obs
 * counter/gauge/histogram dump to stdout at exit; --metrics-out FILE
 * writes it to FILE (JSON when FILE ends in ".json"); --trace-out
 * FILE writes a Chrome-trace JSON timeline loadable in
 * chrome://tracing. Without these flags the obs layer stays disabled
 * and output is byte-identical to earlier releases.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "core/serialize.hpp"
#include "placement/annealer.hpp"
#include "placement/evaluator.hpp"
#include "sched/replay.hpp"
#include "sched/trace.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"

using namespace imc;

namespace {

/** Worker pool from --threads (default: hardware concurrency). */
workload::RunService
service_from(const Cli& cli)
{
    return workload::RunService(cli.get_int("threads", 0));
}

/** Build options honoring --model-cache. */
core::ModelBuildOptions
build_options_from(const Cli& cli)
{
    core::ModelBuildOptions opts;
    opts.model_cache_dir = cli.get("model-cache", "");
    return opts;
}

int
cmd_profile(const Cli& cli)
{
    workload::RunConfig cfg;
    cfg.seed = cli.get_u64("seed", 42);
    cfg.reps = cli.get_int("reps", 3);
    const auto& app = workload::find_app(cli.get("app", "M.milc"));
    const int nodes = cli.get_int("nodes", cfg.cluster.num_nodes);
    const std::string out =
        cli.get("out", app.abbrev + ".model");
    auto service = service_from(cli);

    std::cout << "Profiling " << app.abbrev << " at " << nodes
              << "-node deployment...\n";
    core::ModelRegistry registry(cfg, build_options_from(cli),
                                 &service);
    const auto& built = registry.model(app, nodes);
    core::save_model_file(out, built.model);
    std::cout << "Saved to " << out << "\n  policy "
              << core::to_string(built.model.policy()) << ", score "
              << fmt_fixed(built.model.bubble_score(), 1);
    if (built.from_disk_cache)
        std::cout << " (reused from model cache)";
    else
        std::cout << ", profiling cost "
                  << fmt_pct(built.profile_cost, 1) << " of settings";
    std::cout << '\n';
    return 0;
}

int
cmd_show(const Cli& cli)
{
    const auto model =
        core::load_model_file(cli.get("model", "model.txt"));
    std::cout << "app:    " << model.app() << '\n'
              << "policy: " << core::to_string(model.policy()) << '\n'
              << "score:  " << fmt_fixed(model.bubble_score(), 2)
              << "\nsensitivity matrix (rows = bubble pressure, "
                 "columns = interfering nodes):\n";
    const auto& matrix = model.matrix();
    std::vector<std::string> headers{"pressure"};
    for (int j = 0; j <= matrix.hosts(); ++j)
        headers.push_back("j=" + std::to_string(j));
    Table table(headers);
    for (int i = 1; i <= matrix.pressure_levels(); ++i) {
        std::vector<std::string> row{fmt_fixed(
            matrix.pressures()[static_cast<std::size_t>(i - 1)], 1)};
        for (int j = 0; j <= matrix.hosts(); ++j)
            row.push_back(fmt_fixed(matrix.at(i, j), 3));
        table.add_row(std::move(row));
    }
    table.print(std::cout);
    return 0;
}

int
cmd_predict(const Cli& cli)
{
    const auto model =
        core::load_model_file(cli.get("model", "model.txt"));
    const auto pressures = cli.get_double_list("pressures");
    require(!pressures.empty(), "--pressures p1,p2,... required");
    std::cout << "policy " << core::to_string(model.policy())
              << " converts [";
    for (std::size_t i = 0; i < pressures.size(); ++i)
        std::cout << (i ? "," : "") << fmt_fixed(pressures[i], 1);
    const auto homog = core::convert(model.policy(), pressures);
    std::cout << "] -> " << fmt_fixed(homog.nodes, 0) << " nodes @ "
              << fmt_fixed(homog.pressure, 2) << '\n';
    std::cout << "predicted normalized time: "
              << fmt_fixed(model.predict(pressures), 3) << "x\n"
              << "naive proportional baseline: "
              << fmt_fixed(core::predict_naive(model.matrix(),
                                               pressures),
                           3)
              << "x\n";
    return 0;
}

int
cmd_place(const Cli& cli)
{
    workload::RunConfig cfg;
    cfg.seed = cli.get_u64("seed", 42);
    cfg.reps = cli.get_int("reps", 2);
    auto names = cli.get_list("apps");
    if (names.empty())
        names = {"N.mg", "C.libq", "H.KM", "M.lmps"};

    std::vector<placement::Instance> instances;
    for (const auto& name : names)
        instances.push_back(
            placement::Instance{workload::find_app(name), 4});

    auto service = service_from(cli);
    core::ModelRegistry registry(cfg, build_options_from(cli),
                                 &service);
    if (service.threads() > 1) {
        // Profile the mix's distinct models concurrently up front.
        std::vector<workload::AppSpec> apps;
        for (const auto& inst : instances)
            apps.push_back(inst.app);
        registry.prefetch(apps, cfg.cluster.num_nodes);
    }
    const placement::ModelEvaluator evaluator(registry, instances);

    Rng rng(cfg.seed);
    auto initial =
        placement::Placement::random(instances, cfg.cluster, rng);
    placement::AnnealOptions opts;
    opts.iterations = cli.get_int("iters", 4000);
    opts.seed = cfg.seed + 1;
    // Default 1 keeps place output identical to earlier releases.
    opts.chains = cli.get_int("chains", 1);

    std::optional<placement::QosConstraint> qos;
    if (cli.has("qos")) {
        qos = placement::QosConstraint{
            cli.get_int("qos", 0),
            1.0 / cli.get_double("target", 0.8)};
    }
    const auto found = placement::anneal(
        initial, evaluator, placement::Goal::MinimizeTotalTime, qos,
        opts);

    std::cout << "placement: " << found.placement.to_string() << '\n';
    const auto times = evaluator.predict(found.placement);
    for (std::size_t i = 0; i < times.size(); ++i) {
        std::cout << "  " << pad_right(names[i], 8) << " predicted "
                  << fmt_fixed(times[i], 3) << "x\n";
    }
    if (qos) {
        std::cout << "QoS (" << names[static_cast<std::size_t>(
                                    qos->instance)]
                  << " <= " << fmt_fixed(qos->max_norm_time, 3)
                  << "): " << (found.qos_met ? "met" : "NOT met")
                  << '\n';
    }
    return found.qos_met ? 0 : 1;
}

int
cmd_campaign(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli, cli.has("ec2"));
    const double epsilon = cli.get_double("epsilon", 0.05);
    const auto apps = benchutil::apps_from_cli(cli);
    const int passes = cli.get_int("passes", 3);
    auto service = benchutil::service_from_cli(cli);

    std::cout << "Profiling campaign: " << passes << " passes x "
              << apps.size()
              << " apps x (exhaustive + 4 algorithms); cluster="
              << cfg.cluster.name << ", epsilon=" << epsilon
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps
              << ", threads=" << service->threads() << "\n\n";

    Table table({"app", "algorithm", "cost %", "error %"});
    for (int pass = 0; pass < passes; ++pass) {
        for (const auto& app : apps) {
            const auto outcomes = benchutil::profiling_campaign(
                app, cfg, epsilon, *service);
            if (pass > 0)
                continue; // later passes only exercise the cache
            for (const auto& outcome : outcomes) {
                table.add_row({app.abbrev,
                               core::to_string(outcome.algorithm),
                               fmt_fixed(outcome.cost_pct, 1),
                               fmt_fixed(outcome.error_pct, 2)});
            }
        }
    }
    table.print(std::cout);

    const auto stats = service->stats();
    std::cout << "\nRunService: " << stats.submitted << " submitted, "
              << stats.executed << " executed, " << stats.cache_hits
              << " cache hits\n";
    return 0;
}

int
cmd_trace_gen(const Cli& cli)
{
    sched::TraceGenOptions gopts;
    gopts.num_nodes = cli.get_int("nodes", gopts.num_nodes);
    gopts.slots_per_node = cli.get_int("slots", gopts.slots_per_node);
    gopts.duration = cli.get_double("duration", gopts.duration);
    gopts.arrival_rate = cli.get_double("rate", gopts.arrival_rate);
    gopts.mean_lifetime =
        cli.get_double("lifetime", gopts.mean_lifetime);
    gopts.lifetime_sigma = cli.get_double("sigma", gopts.lifetime_sigma);
    gopts.max_units = cli.get_int("max-units", gopts.max_units);
    gopts.slo_fraction = cli.get_double("slo-frac", gopts.slo_fraction);
    gopts.crash_rate = cli.get_double("crash-rate", gopts.crash_rate);
    gopts.mean_repair = cli.get_double("repair", gopts.mean_repair);
    gopts.service_fraction =
        cli.get_double("service-frac", gopts.service_fraction);
    gopts.seed = cli.get_u64("seed", gopts.seed);
    for (const auto& name : cli.get_list("apps"))
        gopts.apps.push_back(workload::find_app(name));

    const sched::Trace trace = sched::generate_trace(gopts);
    int arrivals = 0;
    int crashes = 0;
    for (const auto& e : trace.events) {
        arrivals += e.kind == sched::EventKind::kArrive;
        crashes += e.kind == sched::EventKind::kCrash;
    }
    const std::string out = cli.get("out", "trace.txt");
    sched::save_trace_file(out, trace);
    std::cout << "generated " << trace.events.size() << " events ("
              << arrivals << " arrivals, " << crashes
              << " crashes) over " << trace.num_nodes << " nodes x "
              << trace.slots_per_node << " slots (seed=" << gopts.seed
              << ") -> " << out << '\n';
    return 0;
}

int
cmd_serve(const Cli& cli)
{
    const std::string path = cli.get("trace", "");
    require(!path.empty(), "--trace FILE required");
    const sched::Trace trace = sched::load_trace_file(path);

    sched::ReplayOptions ropts;
    ropts.sched.candidate_nodes = cli.get_int("candidates", 16);
    ropts.sched.polish_proposals = cli.get_int("polish", 128);
    ropts.sched.slo_penalty = cli.get_double("slo-penalty", 100.0);
    ropts.sched.seed = cli.get_u64("seed", 1);
    ropts.sched.allow_eviction = !cli.has("no-evict");
    ropts.oracle_every = cli.get_int("oracle-every", 0);
    ropts.oracle_iterations = cli.get_int("oracle-iters", 2000);
    ropts.oracle_chains = cli.get_int("oracle-chains", 1);
    ropts.execute = cli.has("execute");

    // Profile every (app, units) model the trace can request up
    // front: the worker pool (--threads) parallelizes profiling, and
    // replay decision latencies then measure the scheduler, not the
    // profiler. Results are bit-identical at any thread count.
    workload::RunConfig cfg;
    cfg.seed = cli.get_u64("profile-seed", 42);
    cfg.reps = cli.get_int("reps", 2);
    auto service = service_from(cli);
    core::ModelRegistry registry(cfg, build_options_from(cli),
                                 &service);
    std::map<int, std::vector<workload::AppSpec>> by_units;
    for (const auto& e : trace.events) {
        if (e.kind != sched::EventKind::kArrive)
            continue;
        auto& apps = by_units[e.units];
        const auto& spec = workload::find_app(e.app);
        const auto same = [&spec](const workload::AppSpec& a) {
            return a.abbrev == spec.abbrev;
        };
        if (std::find_if(apps.begin(), apps.end(), same) == apps.end())
            apps.push_back(spec);
    }
    for (const auto& [units, apps] : by_units)
        registry.prefetch(apps, units);

    placement::ModelEvaluator evaluator(registry, {});
    const sched::ReplayResult r =
        sched::replay(trace, evaluator, ropts);

    std::cout << "replayed " << path << ": " << trace.num_nodes
              << " nodes x " << trace.slots_per_node << " slots, "
              << r.events << " events\n";
    std::cout << "arrivals " << r.arrivals << ": " << r.admitted
              << " admitted, " << r.rejected << " rejected, "
              << r.fault_rejected << " fault-rejected; departures "
              << r.departures << "; crashes " << r.crashes << " ("
              << r.moved_units << " units moved); joins " << r.joins
              << "; evictions " << r.evictions << '\n';
    std::cout << "final: " << r.final_apps << " apps, total time "
              << fmt_fixed(r.final_total_time, 3) << ", objective "
              << fmt_fixed(r.final_objective, 3) << '\n';
    for (const auto& s : r.oracle) {
        std::cout << "oracle @ event " << s.event << ": " << s.apps
                  << " apps, sched " << fmt_fixed(s.sched_total, 3)
                  << " vs anneal " << fmt_fixed(s.oracle_total, 3)
                  << ", gap " << fmt_pct(s.gap(), 2) << '\n';
    }
    if (ropts.execute) {
        std::cout << "executed on sim: " << r.exec_events
                  << " events to t="
                  << fmt_fixed(r.exec_sim_time, 1) << "s\n";
    }
    if (cli.has("timing")) {
        // Wall-clock decision latencies: the one section that varies
        // run to run (excluded from determinism comparisons).
        const std::vector<double>& ms = r.latencies_ms;
        const double p50 = ms.empty() ? 0.0 : imc::percentile(ms, 50.0);
        const double p99 = ms.empty() ? 0.0 : imc::percentile(ms, 99.0);
        const double peak =
            ms.empty() ? 0.0
                       : *std::max_element(ms.begin(), ms.end());
        std::cout << "decision latency: p50 " << fmt_fixed(p50, 3)
                  << " ms, p99 " << fmt_fixed(p99, 3) << " ms, max "
                  << fmt_fixed(peak, 3) << " ms\n";
    }
    return 0;
}

/** One subcommand: its name, the value flags and switches it reads
 *  and its body. */
struct Command {
    std::string name;
    std::vector<std::string> flags;
    std::vector<std::string> switches;
    int (*run)(const Cli&);
};

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<Command> commands{
        {"profile",
         {"app", "nodes", "out", "seed", "reps", "threads", "model-cache"},
         {},
         cmd_profile},
        {"show", {"model"}, {}, cmd_show},
        {"predict", {"model", "pressures"}, {}, cmd_predict},
        {"place",
         {"apps", "iters", "chains", "qos", "target", "seed", "reps",
          "threads", "model-cache"},
         {},
         cmd_place},
        {"campaign",
         {"apps", "passes", "epsilon", "seed", "reps", "threads"},
         {"ec2"},
         cmd_campaign},
        {"trace gen",
         {"out", "nodes", "slots", "duration", "rate", "lifetime",
          "sigma", "max-units", "slo-frac", "crash-rate", "repair",
          "service-frac", "apps", "seed"},
         {},
         cmd_trace_gen},
        {"serve",
         {"trace", "candidates", "polish", "slo-penalty", "seed",
          "oracle-every", "oracle-iters", "oracle-chains",
          "profile-seed", "reps", "threads", "model-cache"},
         {"no-evict", "execute", "timing"},
         cmd_serve},
    };

    std::string name = argc > 1 ? argv[1] : "";
    int first_flag = 2;
    if (name == "trace" && argc > 2 && std::string(argv[2]) == "gen") {
        name += " gen";
        first_flag = 3;
    }
    for (const auto& command : commands) {
        if (command.name != name)
            continue;
        // Errors and the usage line name the command.
        const std::string tool = "imctl " + name;
        std::vector<const char*> args{tool.c_str()};
        args.insert(args.end(), argv + first_flag, argv + argc);
        return tool_main(static_cast<int>(args.size()), args.data(),
                         command.flags, command.run, command.switches);
    }
    std::cerr << "usage: imctl <profile|show|predict|place|campaign|"
                 "trace gen|serve> [flags]\n";
    return 2;
}
