/**
 * @file
 * Tests of model serialization: round-tripping, format validation,
 * and robustness against corrupted inputs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"

using namespace imc;
using namespace imc::core;

namespace {

InterferenceModel
sample_model()
{
    return InterferenceModel(
        "M.test",
        SensitivityMatrix({{1.0, 1.11, 1.22}, {1.0, 1.31, 1.42},
                           {1.0, 1.51, 1.67}},
                          {0.5, 3.0, 8.0}),
        HeteroPolicy::NPlus1Max, 4.25);
}

} // namespace

TEST(Serialize, RoundTripPreservesEverything)
{
    const auto original = sample_model();
    std::stringstream buffer;
    save_model(buffer, original);
    const auto restored = load_model(buffer);

    EXPECT_EQ(restored.app(), original.app());
    EXPECT_EQ(restored.policy(), original.policy());
    EXPECT_DOUBLE_EQ(restored.bubble_score(),
                     original.bubble_score());
    ASSERT_EQ(restored.matrix().pressure_levels(),
              original.matrix().pressure_levels());
    ASSERT_EQ(restored.matrix().hosts(), original.matrix().hosts());
    EXPECT_EQ(restored.matrix().pressures(),
              original.matrix().pressures());
    for (int i = 1; i <= original.matrix().pressure_levels(); ++i) {
        for (int j = 0; j <= original.matrix().hosts(); ++j)
            EXPECT_DOUBLE_EQ(restored.matrix().at(i, j),
                             original.matrix().at(i, j));
    }
}

TEST(Serialize, RoundTripPredictionsIdentical)
{
    const auto original = sample_model();
    std::stringstream buffer;
    save_model(buffer, original);
    const auto restored = load_model(buffer);
    const std::vector<double> pressures{6.6, 0.0, 2.2, 0.4};
    EXPECT_DOUBLE_EQ(restored.predict(pressures),
                     original.predict(pressures));
}

TEST(Serialize, CommentsAndBlankLinesIgnored)
{
    std::stringstream buffer;
    save_model(buffer, sample_model());
    const std::string text = "# leading comment\n\n" + buffer.str();
    std::stringstream with_noise(text);
    EXPECT_NO_THROW(load_model(with_noise));
}

TEST(Serialize, FileRoundTrip)
{
    const std::string path = "/tmp/imc_test_model.txt";
    save_model_file(path, sample_model());
    const auto restored = load_model_file(path);
    EXPECT_EQ(restored.app(), "M.test");
    std::remove(path.c_str());
}

TEST(Serialize, FileWriteErrorNamesTheDestination)
{
    const std::string path = "/nonexistent_imc_dir/m.model";
    try {
        save_model_file(path, sample_model());
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "save_model_file: cannot write '" + path + "'");
    }
}

TEST(Serialize, BadMagicRejected)
{
    std::stringstream buffer("imc-model v9\napp x\n");
    EXPECT_THROW(load_model(buffer), ConfigError);
}

TEST(Serialize, TruncatedInputRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    const std::string text = full.str();
    // Chop the last row off.
    std::stringstream truncated(
        text.substr(0, text.rfind("row")));
    EXPECT_THROW(load_model(truncated), ConfigError);
}

TEST(Serialize, CorruptedValuesRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    // Break column 0 of the first row (must be exactly 1).
    const auto pos = text.find("row 1 1");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 6] = '2';
    std::stringstream corrupted(text);
    EXPECT_THROW(load_model(corrupted), ConfigError);
}

TEST(Serialize, RowsOutOfOrderRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    // Renumber row 2 as row 3.
    const auto pos = text.find("row 2");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 4] = '3';
    std::stringstream corrupted(text);
    EXPECT_THROW(load_model(corrupted), ConfigError);
}

// Regression: trailing non-numeric junk after the values of a
// "score"/"pressures"/"row" line used to be silently dropped (the
// value loop just stopped at the first bad token), loading a model
// other than the one the file spelled out.
TEST(Serialize, TrailingGarbageOnScoreRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    const auto pos = text.find('\n', text.find("score "));
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, " oops");
    std::stringstream corrupted(text);
    EXPECT_THROW(load_model(corrupted), ConfigError);
}

TEST(Serialize, TrailingGarbageOnPressuresRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    const auto pos = text.find('\n', text.find("pressures "));
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, " 9.9x");
    std::stringstream corrupted(text);
    try {
        load_model(corrupted);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("trailing garbage"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Serialize, TrailingGarbageOnRowRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    const auto pos = text.find('\n', text.find("row 2"));
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, " nan-ish");
    std::stringstream corrupted(text);
    EXPECT_THROW(load_model(corrupted), ConfigError);
}

// Regression: a fourth "row" line in a three-row model used to be
// silently ignored; the matrix the writer meant is ambiguous.
TEST(Serialize, ExtraRowLineRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    text += "row 4 1 1.6 1.7\n";
    std::stringstream corrupted(text);
    try {
        load_model(corrupted);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("extra 'row' line"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Serialize, TrailingNonRowContentIgnored)
{
    // Comments or other sections after the matrix stay legal.
    std::stringstream full;
    save_model(full, sample_model());
    std::stringstream with_tail(full.str() +
                                "# trailing comment\nnotes ok\n");
    EXPECT_NO_THROW(load_model(with_tail));
}

// Property: save -> load is the identity, including an app name
// containing spaces (the "app" line carries the whole remainder).
TEST(Serialize, RoundTripAppNameWithSpaces)
{
    const InterferenceModel original(
        "My Spacey App v2",
        SensitivityMatrix({{1.0, 1.2}, {1.0, 1.4}}, {1.0, 4.0}),
        HeteroPolicy::AllMax, 2.5);
    std::stringstream buffer;
    save_model(buffer, original);
    const auto restored = load_model(buffer);
    EXPECT_EQ(restored.app(), "My Spacey App v2");
    EXPECT_EQ(restored.policy(), original.policy());
    EXPECT_DOUBLE_EQ(restored.bubble_score(),
                     original.bubble_score());
    EXPECT_EQ(restored.matrix().pressures(),
              original.matrix().pressures());
    for (int i = 1; i <= original.matrix().pressure_levels(); ++i) {
        for (int j = 0; j <= original.matrix().hosts(); ++j)
            EXPECT_DOUBLE_EQ(restored.matrix().at(i, j),
                             original.matrix().at(i, j));
    }
    // And a second trip through the text form is byte-stable.
    std::stringstream again;
    save_model(again, restored);
    EXPECT_EQ(again.str(), buffer.str());
}

TEST(Serialize, MissingFileRejected)
{
    EXPECT_THROW(load_model_file("/nonexistent/nope.model"),
                 ConfigError);
}

TEST(Serialize, PolicyNamesRoundTrip)
{
    for (const auto policy : all_policies())
        EXPECT_EQ(policy_from_string(to_string(policy)), policy);
    EXPECT_THROW(policy_from_string("NOT A POLICY"), ConfigError);
}

// ---------------------------------------------------------------------
// Seeded fuzz: randomized valid models must round-trip exactly, and
// randomly mutated/truncated streams must either parse to a
// self-consistent model or raise ConfigError — never crash, never
// silently accept junk. All randomness is Rng-seeded, so a failure
// reproduces.
// ---------------------------------------------------------------------

namespace {

InterferenceModel
random_model(Rng& rng, int tag)
{
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    const int m = static_cast<int>(rng.uniform_int(1, 5));
    std::vector<double> pressures;
    double p = rng.uniform(0.1, 2.0);
    for (int i = 0; i < n; ++i) {
        pressures.push_back(p);
        p += rng.uniform(0.1, 3.0);
    }
    std::vector<std::vector<double>> values;
    for (int i = 0; i < n; ++i) {
        std::vector<double> row{1.0};
        for (int j = 0; j < m; ++j)
            row.push_back(rng.uniform(0.05, 10.0));
        values.push_back(std::move(row));
    }
    const auto policies = all_policies();
    const auto policy = policies[static_cast<std::size_t>(
        rng.uniform_index(policies.size()))];
    return InterferenceModel(
        "Fz." + std::to_string(tag),
        SensitivityMatrix(std::move(values), std::move(pressures)),
        policy, rng.uniform(0.0, 20.0));
}

/** load must yield the exact model (doubles compared by bit). */
void
expect_roundtrip_exact(const InterferenceModel& original)
{
    std::stringstream buffer;
    save_model(buffer, original);
    const auto restored = load_model(buffer);
    ASSERT_EQ(restored.app(), original.app());
    ASSERT_EQ(restored.policy(), original.policy());
    ASSERT_EQ(restored.bubble_score(), original.bubble_score());
    ASSERT_EQ(restored.matrix().pressures(),
              original.matrix().pressures());
    ASSERT_EQ(restored.matrix().values(), original.matrix().values());
    // A second trip through the text form is byte-stable.
    std::stringstream again;
    save_model(again, restored);
    ASSERT_EQ(again.str(), buffer.str());
}

} // namespace

TEST(SerializeFuzz, RandomValidModelsRoundTripExactly)
{
    Rng rng(2026);
    for (int tag = 0; tag < 200; ++tag) {
        SCOPED_TRACE(tag);
        expect_roundtrip_exact(random_model(rng, tag));
    }
}

TEST(SerializeFuzz, MutatedStreamsRejectOrStaySelfConsistent)
{
    Rng rng(4242);
    std::stringstream buffer;
    save_model(buffer, random_model(rng, 0));
    const std::string baseline = buffer.str();

    int rejected = 0, accepted = 0;
    for (int round = 0; round < 600; ++round) {
        SCOPED_TRACE(round);
        std::string text = baseline;
        const int flips = static_cast<int>(rng.uniform_int(1, 3));
        for (int f = 0; f < flips; ++f) {
            const auto pos = static_cast<std::size_t>(
                rng.uniform_index(text.size()));
            text[pos] = static_cast<char>(rng.uniform_int(32, 126));
        }
        std::stringstream mutated(text);
        try {
            const auto model = load_model(mutated);
            // A benign mutation (comment, app name, a digit) may
            // still parse; whatever parsed must itself round-trip.
            expect_roundtrip_exact(model);
            ++accepted;
        } catch (const ConfigError&) {
            ++rejected; // clean structured rejection, never a crash
        }
    }
    // The corpus must exercise both outcomes to mean anything.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0);
}

TEST(SerializeFuzz, TruncatedStreamsRejectOrStaySelfConsistent)
{
    Rng rng(1717);
    std::stringstream buffer;
    save_model(buffer, random_model(rng, 1));
    const std::string baseline = buffer.str();

    for (std::size_t cut = 0; cut < baseline.size(); ++cut) {
        SCOPED_TRACE(cut);
        std::stringstream truncated(baseline.substr(0, cut));
        try {
            // Cuts inside a trailing number can still parse (the
            // shorter literal is a valid value); anything else must
            // throw. Either way: self-consistent or ConfigError.
            expect_roundtrip_exact(load_model(truncated));
        } catch (const ConfigError&) {
        }
    }
    // A cut strictly before the matrix can never parse.
    const auto first_row = baseline.find("row 1");
    ASSERT_NE(first_row, std::string::npos);
    std::stringstream headless(baseline.substr(0, first_row));
    EXPECT_THROW(load_model(headless), ConfigError);
}

// Regressions from the fuzz corpus: non-finite numbers parsed by
// strtod ("inf", "nan") used to pass the positivity checks — an
// infinite last pressure or bubble score loaded "successfully" and
// poisoned every later prediction.
TEST(SerializeFuzz, NonFiniteScoreRejected)
{
    for (const char* bad : {"inf", "nan", "-inf"}) {
        std::stringstream full;
        save_model(full, sample_model());
        std::string text = full.str();
        const auto pos = text.find("score ");
        ASSERT_NE(pos, std::string::npos);
        const auto eol = text.find('\n', pos);
        text.replace(pos, eol - pos, std::string("score ") + bad);
        std::stringstream corrupted(text);
        EXPECT_THROW(load_model(corrupted), ConfigError) << bad;
    }
}

TEST(SerializeFuzz, NonFinitePressureRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    const auto pos = text.find("pressures ");
    ASSERT_NE(pos, std::string::npos);
    const auto eol = text.find('\n', pos);
    text.replace(pos, eol - pos, "pressures 0.5 3 inf");
    std::stringstream corrupted(text);
    EXPECT_THROW(load_model(corrupted), ConfigError);
}

TEST(SerializeFuzz, NonFiniteRowValueRejected)
{
    std::stringstream full;
    save_model(full, sample_model());
    std::string text = full.str();
    const auto pos = text.find("row 2");
    ASSERT_NE(pos, std::string::npos);
    const auto eol = text.find('\n', pos);
    text.replace(pos, eol - pos, "row 2 1 nan 1.42");
    std::stringstream corrupted(text);
    EXPECT_THROW(load_model(corrupted), ConfigError);
}
