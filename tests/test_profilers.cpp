/**
 * @file
 * Tests of the profiling algorithms against synthetic measure
 * functions with known shapes, checking both accuracy and cost.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "common/error.hpp"
#include "common/obs.hpp"
#include "core/profilers.hpp"

using namespace imc;
using namespace imc::core;

namespace {

/** Analytic "high propagation" surface: jump at j=1, slow rise. */
double
high_prop(int pressure, int nodes)
{
    if (nodes == 0)
        return 1.0;
    const double depth = 0.12 * pressure;
    return 1.0 + depth * (0.8 + 0.2 * nodes / 8.0);
}

/** Analytic proportional surface. */
double
proportional(int pressure, int nodes)
{
    return 1.0 + 0.10 * pressure * nodes / 8.0;
}

/** Analytic flat (insensitive) surface. */
double
flat(int, int nodes)
{
    return nodes == 0 ? 1.0 : 1.01;
}

ProfileOptions
opts8()
{
    ProfileOptions o;
    // Plain integer grid 1..8 so the analytic surfaces (functions of
    // the level index) remain straightforward.
    o.grid = {1, 2, 3, 4, 5, 6, 7, 8};
    o.hosts = 8;
    o.epsilon = 0.05;
    return o;
}

} // namespace

TEST(ProfileExhaustive, ReproducesSurfaceExactly)
{
    CountingMeasure measure{MeasureFn(high_prop)};
    const auto result = profile_exhaustive(measure, opts8());
    EXPECT_EQ(result.measured, 64);
    EXPECT_EQ(result.total_settings, 64);
    EXPECT_DOUBLE_EQ(result.cost(), 1.0);
    for (int p = 1; p <= 8; ++p) {
        for (int j = 0; j <= 8; ++j)
            EXPECT_DOUBLE_EQ(result.matrix.at(p, j), high_prop(p, j));
    }
}

// Regression: the timing span and the cost counters of one profiling
// run must share a single "profiler.<algo>" prefix. The span used to
// be named "profile.<algo>" while the counters were
// "profiler.<algo>.*", so one grep over a metrics dump could never
// find a whole algorithm's row.
TEST(ProfileExhaustive, ObsSpanAndCountersShareOnePrefix)
{
    obs::reset();
    obs::set_enabled(true);
    {
        CountingMeasure measure{MeasureFn(high_prop)};
        (void)profile_exhaustive(measure, opts8());
    }
    EXPECT_EQ(obs::counter_value("profiler.exhaustive.runs"), 1u);
    EXPECT_EQ(obs::counter_value("profiler.exhaustive.measured"),
              64u);
    EXPECT_EQ(
        obs::histogram_snapshot("profiler.exhaustive.us").count(), 1u);
    obs::set_enabled(false);
    obs::reset();
}

TEST(CountingMeasure, CachesAndCounts)
{
    int calls = 0;
    CountingMeasure measure{[&](int, int) {
        ++calls;
        return 1.5;
    }};
    EXPECT_DOUBLE_EQ(measure(1, 1), 1.5);
    EXPECT_DOUBLE_EQ(measure(1, 1), 1.5);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(measure.measured(), 1);
    // j = 0 is free and never invokes the inner function.
    EXPECT_DOUBLE_EQ(measure(5, 0), 1.0);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(measure.measured(), 1);
}

TEST(ProfileBinaryBrute, CheaperThanExhaustiveAndAccurate)
{
    CountingMeasure truth_measure{MeasureFn(high_prop)};
    const auto truth = profile_exhaustive(truth_measure, opts8());

    CountingMeasure measure{MeasureFn(high_prop)};
    const auto result = profile_binary_brute(measure, opts8());
    EXPECT_LT(result.measured, 64);
    EXPECT_LT(matrix_error_pct(result.matrix, truth.matrix), 1.0);
}

TEST(ProfileBinaryBrute, FlatSurfaceCostsAlmostNothing)
{
    CountingMeasure measure{MeasureFn(flat)};
    const auto result = profile_binary_brute(measure, opts8());
    // Only the per-row right endpoints are mandatory.
    EXPECT_EQ(result.measured, 8);
    EXPECT_NEAR(result.cost(), 0.125, 1e-12);
}

TEST(ProfileBinaryOptimized, CheaperThanBinaryBrute)
{
    CountingMeasure brute_measure{MeasureFn(high_prop)};
    const auto brute = profile_binary_brute(brute_measure, opts8());

    CountingMeasure opt_measure{MeasureFn(high_prop)};
    const auto optimized = profile_binary_optimized(opt_measure, opts8());
    EXPECT_LT(optimized.measured, brute.measured);
}

TEST(ProfileBinaryOptimized, AccurateWhenShapesScale)
{
    // high_prop's rows are exact scalings of each other, the
    // assumption Algorithm 2 exploits: error must be ~zero.
    CountingMeasure truth_measure{MeasureFn(high_prop)};
    const auto truth = profile_exhaustive(truth_measure, opts8());

    CountingMeasure measure{MeasureFn(high_prop)};
    const auto result = profile_binary_optimized(measure, opts8());
    EXPECT_LT(matrix_error_pct(result.matrix, truth.matrix), 0.5);
}

TEST(ProfileBinaryOptimized, ProportionalSurface)
{
    CountingMeasure truth_measure{MeasureFn(proportional)};
    const auto truth = profile_exhaustive(truth_measure, opts8());

    CountingMeasure measure{MeasureFn(proportional)};
    const auto result = profile_binary_optimized(measure, opts8());
    EXPECT_LT(matrix_error_pct(result.matrix, truth.matrix), 2.0);
    EXPECT_LT(result.cost(), 0.5);
}

TEST(ProfileRandom, RespectsBudgetRoughly)
{
    CountingMeasure measure{MeasureFn(high_prop)};
    const auto result =
        profile_random(measure, opts8(), 0.5, Rng(42));
    EXPECT_NEAR(result.cost(), 0.5, 0.02);
}

TEST(ProfileRandom, ThirtyPercentWorseThanFifty)
{
    CountingMeasure truth_measure{MeasureFn(high_prop)};
    const auto truth = profile_exhaustive(truth_measure, opts8());

    double err30 = 0.0;
    double err50 = 0.0;
    // Average over seeds to avoid a lucky draw.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        CountingMeasure m30{MeasureFn(high_prop)};
        err30 += matrix_error_pct(
            profile_random(m30, opts8(), 0.3, Rng(seed)).matrix,
            truth.matrix);
        CountingMeasure m50{MeasureFn(high_prop)};
        err50 += matrix_error_pct(
            profile_random(m50, opts8(), 0.5, Rng(seed)).matrix,
            truth.matrix);
    }
    EXPECT_LE(err50, err30);
}

TEST(ProfileRandom, FractionValidated)
{
    CountingMeasure measure{MeasureFn(flat)};
    const auto o = opts8();
    EXPECT_THROW(profile_random(measure, o, 0.0, Rng(1)), ConfigError);
    EXPECT_THROW(profile_random(measure, o, 1.5, Rng(1)), ConfigError);
}

TEST(Profilers, MatrixErrorPctZeroOnIdentical)
{
    CountingMeasure measure{MeasureFn(high_prop)};
    const auto r = profile_exhaustive(measure, opts8());
    EXPECT_DOUBLE_EQ(matrix_error_pct(r.matrix, r.matrix), 0.0);
}

TEST(Profilers, MatrixErrorPctDimensionChecked)
{
    const SensitivityMatrix a({{1.0, 1.5}});
    const SensitivityMatrix b({{1.0, 1.5, 1.6}});
    EXPECT_THROW(matrix_error_pct(a, b), ConfigError);
}

// Parameterized sweep over analytic surfaces: every algorithm must
// stay within sane error and cost envelopes.
struct SurfaceCase {
    const char* name;
    std::function<double(int, int)> surface;
    double max_err_pct;
};

// ctest names each case after its printed parameter. gtest's default
// printer dumps the struct's bytes, `name`'s address among them, so the
// names would change with every build and run; print the name instead.
static void
PrintTo(const SurfaceCase& c, std::ostream* os)
{
    *os << c.name;
}

class ProfilerSweep : public ::testing::TestWithParam<SurfaceCase> {};

TEST_P(ProfilerSweep, AllAlgorithmsWithinEnvelope)
{
    const auto& param = GetParam();
    CountingMeasure truth_measure{MeasureFn(param.surface)};
    const auto truth = profile_exhaustive(truth_measure, opts8());

    CountingMeasure brute{MeasureFn(param.surface)};
    const auto r1 = profile_binary_brute(brute, opts8());
    EXPECT_LT(matrix_error_pct(r1.matrix, truth.matrix),
              param.max_err_pct);

    CountingMeasure opt{MeasureFn(param.surface)};
    const auto r2 = profile_binary_optimized(opt, opts8());
    EXPECT_LT(matrix_error_pct(r2.matrix, truth.matrix),
              param.max_err_pct);
    EXPECT_LE(r2.measured, r1.measured);

    CountingMeasure rnd{MeasureFn(param.surface)};
    const auto r3 = profile_random(rnd, opts8(), 0.5, Rng(7));
    EXPECT_LT(matrix_error_pct(r3.matrix, truth.matrix),
              param.max_err_pct * 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Surfaces, ProfilerSweep,
    ::testing::Values(
        SurfaceCase{"high", high_prop, 2.0},
        SurfaceCase{"proportional", proportional, 3.0},
        SurfaceCase{"flat", flat, 1.0},
        SurfaceCase{"knee",
                    [](int p, int j) {
                        if (j == 0)
                            return 1.0;
                        const double depth =
                            p >= 6 ? 0.1 * (p - 5) : 0.01 * p;
                        return 1.0 + depth * (1.0 + 0.05 * j);
                    },
                    4.0}),
    [](const ::testing::TestParamInfo<SurfaceCase>& param_info) {
        return param_info.param.name;
    });
