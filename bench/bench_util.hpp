#ifndef IMC_BENCH_BENCH_UTIL_HPP
#define IMC_BENCH_BENCH_UTIL_HPP

/**
 * @file
 * Shared plumbing of the figure/table reproduction harnesses: CLI to
 * RunConfig wiring, the per-application profiling-algorithm campaign
 * (Table 3 / Figs. 6-7), and the pairwise validation campaign
 * (Figs. 8-9 and 13).
 */

#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/registry.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

namespace imc::benchutil {

/** Build a RunConfig from --seed/--reps (and --ec2 for the profile). */
workload::RunConfig config_from_cli(const Cli& cli,
                                    bool ec2 = false);

/**
 * Measurement backend from --threads. The recorded figure benches
 * default to 1 (inline serial execution on the calling thread); pass
 * 0 to default to hardware concurrency (the examples do). All results
 * are bit-identical at any setting.
 */
std::unique_ptr<workload::RunService>
service_from_cli(const Cli& cli, int default_threads = 1);

/** Apps selected by --apps, defaulting to all distributed apps. */
std::vector<workload::AppSpec> apps_from_cli(const Cli& cli);

/** One profiling algorithm's cost/accuracy on one application. */
struct AlgoOutcome {
    core::ProfileAlgorithm algorithm;
    /** Measured settings as a fraction of all settings, percent. */
    double cost_pct = 0.0;
    /** Mean abs. error vs the exhaustive matrix, percent. */
    double error_pct = 0.0;
};

/**
 * Run every profiling algorithm (binary-optimized, binary-brute,
 * random-50%, random-30%) against one application and compare with
 * the exhaustively measured matrix.
 *
 * The campaign batches each algorithm's settings through @p service
 * and runs rows concurrently on its workers; the service's
 * content-addressed cache also deduplicates the cluster runs the five
 * algorithms share (each algorithm keeps its own cost accounting).
 * Outcomes are bit-identical at any thread count.
 */
std::vector<AlgoOutcome>
profiling_campaign(const workload::AppSpec& app,
                   const workload::RunConfig& cfg, double epsilon,
                   workload::RunService& service);

/** One co-run validation sample. */
struct ValidationSample {
    std::string target;
    std::string corunner;
    double predicted = 0.0;
    double actual = 0.0;
    /** 100 * |predicted - actual| / actual. */
    double error_pct = 0.0;
};

/**
 * Validate @p target's model against measured co-runs with every app
 * in @p corunners (Section 4.3's methodology: both span all nodes,
 * the co-runner restarts until the target completes). The co-runs go
 * through the registry's RunService.
 */
std::vector<ValidationSample>
validate_pairwise(core::ModelRegistry& registry,
                  const workload::AppSpec& target,
                  const std::vector<workload::AppSpec>& corunners);

} // namespace imc::benchutil

#endif // IMC_BENCH_BENCH_UTIL_HPP
