/**
 * @file
 * Micro benchmark of the RunService measurement backend on the
 * repository's own profiling workload: the reproduction session that
 * regenerates Figure 6, Figure 7, and Table 3. Each of those three
 * harnesses runs the *identical* campaign — exhaustive ground truth
 * plus the four cheaper algorithms (binary-brute among them) per
 * application — so the session measures the same cluster settings
 * over and over, both across harnesses and across algorithms within
 * one harness. Two variants:
 *
 *  (a) service, 1 thread — the shared content-addressed cache
 *      deduplicates everything the harnesses and algorithms
 *      re-measure (the all-hosts column, the binary-search anchors,
 *      whole repeated campaigns), and the distinct runs execute
 *      inline on the calling thread;
 *  (b) service, N threads — (a) plus the worker pool running the
 *      deduplicated runs concurrently (a no-op on a single-core
 *      host).
 *
 * The speedup column is relative to (a). The bench cross-checks that
 * both variants produce bit-identical cost and error numbers for
 * every (app, algorithm) pair — the speedup is never bought with a
 * different answer — and prints the service's executed/cache-hit
 * accounting.
 */

#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace imc;

namespace {

double
seconds_of(const std::chrono::steady_clock::time_point& t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

using Campaign = std::vector<std::vector<benchutil::AlgoOutcome>>;

bool
identical(const Campaign& a, const Campaign& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].size() != b[i].size())
            return false;
        for (std::size_t j = 0; j < a[i].size(); ++j) {
            if (a[i][j].algorithm != b[i][j].algorithm ||
                a[i][j].cost_pct != b[i][j].cost_pct ||
                a[i][j].error_pct != b[i][j].error_pct)
                return false;
        }
    }
    return true;
}

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const double epsilon = cli.get_double("epsilon", 0.05);
    const auto apps = benchutil::apps_from_cli(cli);
    const int threads_flag = cli.get_int("threads", 4);
    require(threads_flag >= 0, "--threads must be >= 0");
    const int threads = resolve_threads(threads_flag);

    // The session's three consumers. Each runs the same campaign the
    // real harness runs; they only differ in which column of the
    // outcome they print, so their measurement demand is identical.
    const std::vector<std::string> harnesses{
        "fig06 (error)", "fig07 (cost)", "table3 (summary)"};

    std::cout << "RunService micro bench: the fig06 + fig07 + table3 "
                 "reproduction session\n(each harness profiles "
              << apps.size()
              << " apps with exhaustive + 4 algorithms; cluster="
              << cfg.cluster.name << ", epsilon=" << epsilon
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps
              << ", threads=" << threads << ")\n\n";

    Table table({"variant", "time (s)", "speedup", "runs executed",
                 "cache hits"});
    double serial_time = 0.0;
    Campaign serial_outcomes;
    bool all_identical = true;
    for (const bool serial : {true, false}) {
        const int vt = serial ? 1 : threads;
        workload::RunService service(vt);

        const auto t0 = std::chrono::steady_clock::now();
        Campaign outcomes;
        for (std::size_t h = 0; h < harnesses.size(); ++h) {
            for (const auto& app : apps) {
                auto result = benchutil::profiling_campaign(
                    app, cfg, epsilon, service);
                // Every harness must see the same numbers; keep the
                // first pass for the cross-variant check.
                if (h == 0)
                    outcomes.push_back(std::move(result));
            }
        }
        const double elapsed = seconds_of(t0);

        if (serial) {
            serial_time = elapsed;
            serial_outcomes = outcomes;
        } else {
            all_identical =
                all_identical && identical(outcomes, serial_outcomes);
        }
        const auto stats = service.stats();
        table.add_row(
            {"service, " + std::to_string(vt) +
                 (vt == 1 ? " thread" : " threads"),
             fmt_fixed(elapsed, 3),
             fmt_fixed(serial_time / elapsed, 2) + "x",
             std::to_string(stats.executed),
             std::to_string(stats.cache_hits)});
    }
    table.print(std::cout);

    std::cout << "\nall variants bit-identical to the 1-thread service: "
              << (all_identical ? "yes" : "NO — BUG") << '\n'
              << "(the cache absorbs the settings the five algorithms "
                 "share; extra threads\n overlap the remaining "
                 "distinct runs on multi-core hosts)\n";
    return all_identical ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"apps", "epsilon", "seed", "reps", "threads"}, run);
}
