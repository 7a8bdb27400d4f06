/**
 * @file
 * Tests of the end-to-end model building pipeline (registry).
 *
 * These run real (small) profiling campaigns against the simulator,
 * so they use shortened applications and few repetitions.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/registry.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::core;
using namespace imc::workload;

namespace {

RunConfig
fast_cfg()
{
    RunConfig cfg;
    cfg.reps = 1;
    cfg.seed = 55;
    return cfg;
}

ModelBuildOptions
fast_opts()
{
    ModelBuildOptions opts;
    opts.algorithm = ProfileAlgorithm::BinaryOptimized;
    opts.policy_samples = 8;
    return opts;
}

} // namespace

TEST(ModelRegistry, BuildsAndCachesModels)
{
    RunService service(1);
    ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    const auto& app = find_app("M.zeus");
    const auto& first = registry.model(app, 4);
    const auto& second = registry.model(app, 4);
    EXPECT_EQ(&first, &second); // cached, not rebuilt
    EXPECT_EQ(first.model.app(), "M.zeus");
    EXPECT_EQ(first.model.matrix().hosts(), 4);
    EXPECT_EQ(first.model.matrix().pressure_levels(),
              static_cast<int>(default_pressure_grid().size()));
}

TEST(ModelRegistry, DistinctDeploymentSizesAreDistinctModels)
{
    RunService service(1);
    ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    const auto& app = find_app("M.zeus");
    const auto& four = registry.model(app, 4);
    const auto& eight = registry.model(app, 8);
    EXPECT_EQ(four.model.matrix().hosts(), 4);
    EXPECT_EQ(eight.model.matrix().hosts(), 8);
}

TEST(ModelRegistry, ProfileCostBelowExhaustive)
{
    RunService service(1);
    ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    const auto& built = registry.model(find_app("M.milc"), 8);
    EXPECT_GT(built.profile_cost, 0.0);
    EXPECT_LT(built.profile_cost, 0.7);
}

TEST(ModelRegistry, PolicyFitsCoverAllFourPolicies)
{
    RunService service(1);
    ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    const auto& built = registry.model(find_app("H.KM"), 4);
    ASSERT_EQ(built.policy_fits.size(), 4u);
    for (const auto& fit : built.policy_fits)
        EXPECT_GE(fit.avg_error_pct, 0.0);
}

TEST(ModelRegistry, BubbleScoreRoughlyMatchesCalibrationTarget)
{
    RunService service(1);
    ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    // Gentle and aggressive applications must be separated.
    const double km =
        registry.model(find_app("H.KM"), 4).model.bubble_score();
    const double libq =
        registry.model(find_app("C.libq"), 4).model.bubble_score();
    EXPECT_LT(km, 2.0);
    EXPECT_GT(libq, 4.0);
}

TEST(ModelRegistry, MatrixColumnZeroIsUnity)
{
    RunService service(1);
    ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    const auto& built = registry.model(find_app("M.lmps"), 4);
    for (int p = 1; p <= built.model.matrix().pressure_levels(); ++p)
        EXPECT_DOUBLE_EQ(built.model.matrix().at(p, 0), 1.0);
}

TEST(ModelRegistry, DeploymentSizeValidated)
{
    RunService service(1);
    ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    EXPECT_THROW(registry.model(find_app("M.lmps"), 0), imc::ConfigError);
    EXPECT_THROW(registry.model(find_app("M.lmps"), 99), imc::ConfigError);
}

TEST(ModelRegistry, RejectsNullService)
{
    EXPECT_THROW(ModelRegistry(fast_cfg(), fast_opts(), nullptr),
                 imc::ConfigError);
}

TEST(RunProfiler, DispatchesAllAlgorithms)
{
    const MeasureFn surface = [](int p, int j) {
        return j == 0 ? 1.0 : 1.0 + 0.05 * p + 0.01 * j;
    };
    ProfileOptions opts;
    for (const auto algorithm :
         {ProfileAlgorithm::Exhaustive, ProfileAlgorithm::BinaryBrute,
          ProfileAlgorithm::BinaryOptimized, ProfileAlgorithm::Random30,
          ProfileAlgorithm::Random50}) {
        CountingMeasure measure{surface};
        const auto result = run_profiler(algorithm, measure, opts, 5);
        EXPECT_EQ(result.matrix.hosts(), opts.hosts)
            << to_string(algorithm);
        EXPECT_GT(result.measured, 0) << to_string(algorithm);
    }
}

TEST(RunProfiler, NamesMatchPaper)
{
    EXPECT_EQ(to_string(ProfileAlgorithm::BinaryBrute), "binary-brute");
    EXPECT_EQ(to_string(ProfileAlgorithm::BinaryOptimized),
              "binary-optimized");
    EXPECT_EQ(to_string(ProfileAlgorithm::Random30), "random-30%");
    EXPECT_EQ(to_string(ProfileAlgorithm::Random50), "random-50%");
    EXPECT_EQ(to_string(ProfileAlgorithm::Exhaustive), "exhaustive");
}
