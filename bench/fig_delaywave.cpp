/**
 * @file
 * Delay-wave propagation study (DESIGN.md §11): inject one-off
 * delays into a quiet neighbor-coupled BSP cluster, fit the idle
 * wave's propagation speed and decay length from the captured
 * timelines, and compare both against the Afzal–Hager–Wellein
 * analytic model ("Propagation and Decay of Injected One-Off Delays
 * on Clusters", PAPERS.md).
 *
 * The sweep crosses collective period x noise level x delay
 * magnitude x injection rank, pooling every point over --seeds
 * repeated captures. Each row is gated: the fitted speed must land
 * within --max-fit-err of the analytic pace, and the fitted decay
 * length within a factor --decay-band of the mean-field prediction
 * (both sides undamped on silent rows). A violated gate turns the
 * row's verdict to FAIL and the exit status to 1, so the CI smoke
 * run enforces the physics, not just the formatting.
 *
 * Each injected capture carries its delay in its scenario, so
 * --fault-seed/--fault-spec only add chaos on top (a sim.crash
 * clause crashes nodes mid-run).
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "sim/wave.hpp"
#include "workload/delaywave.hpp"

using namespace imc;
using namespace imc::workload;

namespace {

std::string
fmt_len(double len)
{
    return std::isinf(len) ? std::string("inf") : fmt_fixed(len, 1);
}

/** ASCII wave chart: one row per sync, one column per rank, the
 *  extra idle time bucketed into ' ' < '.' < ':' < '*' < '#'. */
void
print_wave_chart(std::ostream& os, const sim::Timeline& injected,
                 const sim::Timeline& baseline, int period,
                 double delay)
{
    const auto waits = sim::wave::extra_wait_field(injected, baseline);
    const int ranks = injected.ranks();
    const int iters = injected.iters();
    os << "Extra idle time per (sync, rank); scale '#' >= "
       << fmt_fixed(0.75 * delay, 2) << "s of " << fmt_fixed(delay, 2)
       << "s injected:\n";
    int shown = 0;
    for (int k = period - 1; k < iters && shown < 60; k += period) {
        std::string row;
        double row_max = 0.0;
        for (int r = 0; r < ranks; ++r) {
            const double w = std::max(
                0.0, waits[static_cast<std::size_t>(r * iters + k)]);
            row_max = std::max(row_max, w);
            const double frac = w / delay;
            row += frac >= 0.75  ? '#'
                   : frac >= 0.5 ? '*'
                   : frac >= 0.2 ? ':'
                   : frac > 0.0  ? '.'
                                 : ' ';
        }
        ++shown;
        os << (k < 10 ? "   " : k < 100 ? "  " : " ") << k << " |"
           << row << "|\n";
        // Stop a few syncs after the wave has left the chain.
        if (shown > 8 && row_max <= 0.0)
            break;
    }
}

int
run(const Cli& cli)
{
    delaywave::Scenario proto;
    proto.nodes = cli.get_int("nodes", 24);
    proto.procs_per_node = cli.get_int("procs-per-node", 4);
    proto.work = cli.get_double("work", 0.1);
    proto.sync_cost = cli.get_double("sync-cost", 0.002);
    const int base_iters = cli.get_int("iters", 120);
    const std::uint64_t seed0 = cli.get_u64("seed", 42);
    const int seeds = cli.get_int("seeds", 4);
    const int threads = cli.get_int("threads", 1);
    const double max_fit_err = cli.get_double("max-fit-err", 0.10);
    const double decay_band = cli.get_double("decay-band", 2.0);
    const int inject_iter = 4;

    auto periods = cli.get_int_list("periods");
    if (periods.empty())
        periods = {1, 3};
    auto sigmas = cli.get_double_list("sigmas");
    if (sigmas.empty())
        sigmas = {0.0, 0.1, 0.2};
    // Default delays sit well above each sigma's per-period noise
    // scale: the estimator needs a few coherent hops before the wave
    // falls under half the injected delay, so delay / (sigma * work)
    // below ~10 leaves too few ranks to fit (DESIGN.md #11).
    auto delays = cli.get_double_list("delays");
    if (delays.empty())
        delays = {0.3, 0.6};
    const int total_ranks = delaywave::ranks(proto);
    auto inject_ranks = cli.get_int_list("inject-ranks");
    if (inject_ranks.empty())
        inject_ranks = {total_ranks / 4, total_ranks / 2};
    require(seeds >= 1, "--seeds must be >= 1");

    const auto scenario =
        [&](int period, double sigma, std::uint64_t seed) {
            delaywave::Scenario s = proto;
            s.iterations = base_iters * period;
            s.period = period;
            s.noise_sigma = sigma;
            s.seed = seed;
            return s;
        };

    // Every capture of the sweep, checked before the first output
    // line. Baselines come first, one per (period, sigma, seed) and
    // shared by every delay and injection rank; then each row's
    // injected captures, one per seed.
    std::vector<delaywave::Scenario> batch;
    std::map<std::tuple<int, double, std::uint64_t>, std::size_t>
        base_index;
    for (const int period : periods)
        for (const double sigma : sigmas)
            for (int rep = 0; rep < seeds; ++rep) {
                const auto seed =
                    seed0 + static_cast<std::uint64_t>(rep);
                base_index[{period, sigma, seed}] = batch.size();
                batch.push_back(scenario(period, sigma, seed));
            }
    struct Row {
        int period = 0;
        double sigma = 0.0;
        double delay = 0.0;
        int rank = 0;
        /** Batch index of the row's first-seed injected capture. */
        std::size_t first = 0;
        sim::wave::Fit fit;
        sim::wave::Prediction pred;
    };
    std::vector<Row> rows;
    for (const double delay : delays)
        for (const int period : periods)
            for (const double sigma : sigmas)
                for (const int rank : inject_ranks) {
                    rows.push_back({period, sigma, delay, rank,
                                    batch.size(), {}, {}});
                    for (int rep = 0; rep < seeds; ++rep) {
                        auto s = scenario(
                            period, sigma,
                            seed0 + static_cast<std::uint64_t>(rep));
                        s.injections = {
                            BspInjection{rank, inject_iter, delay}};
                        batch.push_back(s);
                    }
                }
    for (const auto& s : batch)
        delaywave::validate(s);

    std::cout << "Delay-wave propagation vs the Afzal-Hager-Wellein "
                 "model\n(ranks="
              << total_ranks << ", iters=" << base_iters
              << "/period, work=" << fmt_fixed(proto.work, 3)
              << "s, sync_cost=" << fmt_fixed(proto.sync_cost, 3)
              << "s, seeds pooled=" << seeds << ", seed=" << seed0
              << ")\nGates: speed within "
              << fmt_fixed(100.0 * max_fit_err, 0)
              << "% of the analytic pace, decay length within a "
                 "factor "
              << fmt_fixed(decay_band, 1)
              << " of the mean-field prediction.\n\n";

    const auto captures = delaywave::capture_sweep(batch, threads);
    const auto baseline_of = [&](std::size_t i) -> const sim::Timeline& {
        return captures[base_index.at({batch[i].period,
                                       batch[i].noise_sigma,
                                       batch[i].seed})]
            .timeline;
    };
    // Showcase chart: the last sweep point's first seed at the
    // mid-chain rank.
    std::size_t chart = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        Row& row = rows[r];
        std::vector<sim::wave::Observed> runs;
        for (int rep = 0; rep < seeds; ++rep) {
            const std::size_t i = row.first + static_cast<std::size_t>(rep);
            runs.push_back(sim::wave::extract_fronts(
                captures[i].timeline, baseline_of(i), row.rank,
                inject_iter, 0.5 * row.delay));
        }
        row.fit = sim::wave::fit_waves(runs);
        row.pred = sim::wave::analytic(delaywave::analytic_model(
            scenario(row.period, row.sigma, seed0), row.delay));
        if (row.rank == inject_ranks.back())
            chart = r;
    }

    std::cout << "period sigma delay rank |   r/s  model   err% |"
                 "     L  model ratio | verdict\n";
    bool all_pass = true;
    double worst_err = 0.0;
    for (const auto& row : rows) {
        const double speed_err =
            row.fit.converged
                ? std::abs(row.fit.ranks_per_sec -
                           row.pred.ranks_per_sec) /
                      row.pred.ranks_per_sec
                : 1.0;
        worst_err = std::max(worst_err, speed_err);
        const bool fit_inf = std::isinf(row.fit.decay_length);
        const bool model_inf = std::isinf(row.pred.decay_length);
        bool decay_ok = false;
        double ratio = 0.0;
        if (model_inf) {
            decay_ok = fit_inf;
            ratio = 1.0;
        } else if (!fit_inf) {
            ratio = row.fit.decay_length / row.pred.decay_length;
            decay_ok = ratio >= 1.0 / decay_band &&
                       ratio <= decay_band;
        }
        const bool pass = row.fit.converged &&
                          speed_err <= max_fit_err && decay_ok;
        all_pass = all_pass && pass;
        const char* verdict = pass ? "pass" : "FAIL";
        std::cout << "    " << row.period << "  " << fmt_fixed(row.sigma, 2)
                  << "  " << fmt_fixed(row.delay, 2) << "   " << row.rank
                  << (row.rank < 10 ? "  " : " ") << "| "
                  << fmt_fixed(row.fit.ranks_per_sec, 2) << "   "
                  << fmt_fixed(row.pred.ranks_per_sec, 2) << "   "
                  << fmt_fixed(100.0 * speed_err, 1) << "% | "
                  << fmt_len(row.fit.decay_length) << "   "
                  << fmt_len(row.pred.decay_length) << "  "
                  << (model_inf ? std::string("-")
                                : fmt_fixed(ratio, 2))
                  << " | " << verdict << '\n';
    }

    const Row& shown = rows[chart];
    std::cout << "\nShowcase wave (period=" << shown.period
              << ", sigma=" << fmt_fixed(shown.sigma, 2)
              << ", delay=" << fmt_fixed(shown.delay, 2) << "s):\n";
    print_wave_chart(std::cout, captures[shown.first].timeline,
                     baseline_of(shown.first), shown.period, shown.delay);

    std::cout << "\nGATE: " << (all_pass ? "PASS" : "FAIL")
              << " (worst speed err "
              << fmt_fixed(100.0 * worst_err, 1) << "% vs limit "
              << fmt_fixed(100.0 * max_fit_err, 1) << "%)\n";
    return all_pass ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"nodes", "procs-per-node", "work", "sync-cost", "iters",
                      "periods", "sigmas", "delays", "inject-ranks", "seeds",
                      "seed", "max-fit-err", "decay-band", "threads"},
                     run);
}
