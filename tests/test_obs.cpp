/**
 * @file
 * Tests of the imc::obs observability layer: counter and histogram
 * correctness under concurrent writers (the TSan CI job runs these),
 * span nesting, Chrome-trace JSON well-formedness, export formats,
 * and the contract that enabling collection never changes a measured
 * value.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/obs.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"

using namespace imc;

namespace {

/**
 * Minimal recursive-descent JSON validator — enough to prove the
 * trace/metrics exports are well-formed without a JSON dependency.
 * Returns true when @p text is exactly one valid JSON value.
 */
class JsonValidator {
  public:
    explicit JsonValidator(const std::string& text) : text_(text) {}

    bool valid()
    {
        skip_ws();
        if (!value())
            return false;
        skip_ws();
        return pos_ == text_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!string())
                return false;
            skip_ws();
            if (peek() != ':')
                return false;
            ++pos_;
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c < 0x20)
                return false; // raw control char inside a string
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char* word)
    {
        const std::string w(word);
        if (text_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    char peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

Cli
make_cli(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Cli(static_cast<int>(argv.size()), argv.data(),
               {"metrics-out", "trace-out", "seed"}, {"metrics"});
}

/** Every test starts and ends with a clean, disabled registry. */
class ObsTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        obs::reset();
        obs::set_enabled(true);
    }
    void TearDown() override
    {
        obs::set_enabled(false);
        obs::reset();
    }
};

} // namespace

TEST_F(ObsTest, CounterAccumulates)
{
    obs::count("t.counter");
    obs::count("t.counter", 41);
    EXPECT_EQ(obs::counter_value("t.counter"), 42u);
    EXPECT_EQ(obs::counter_value("t.never_touched"), 0u);
}

TEST_F(ObsTest, GaugeSetAndMax)
{
    obs::gauge_set("t.gauge", 5.0);
    obs::gauge_set("t.gauge", 3.0);
    EXPECT_DOUBLE_EQ(obs::gauge_value("t.gauge"), 3.0);

    obs::gauge_max("t.peak", 2.0);
    obs::gauge_max("t.peak", 9.0);
    obs::gauge_max("t.peak", 4.0);
    EXPECT_DOUBLE_EQ(obs::gauge_value("t.peak"), 9.0);
}

TEST_F(ObsTest, HistogramAggregates)
{
    for (const double v : {1.0, 2.0, 3.0, 10.0})
        obs::observe("t.hist", v);
    const auto snap = obs::histogram_snapshot("t.hist");
    EXPECT_EQ(snap.count(), 4u);
    EXPECT_DOUBLE_EQ(snap.sum(), 16.0);
    EXPECT_DOUBLE_EQ(snap.min(), 1.0);
    EXPECT_DOUBLE_EQ(snap.max(), 10.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 4.0);
}

TEST_F(ObsTest, NonFiniteSamplesQuarantined)
{
    obs::observe("t.hist", std::numeric_limits<double>::quiet_NaN());
    obs::observe("t.hist", std::numeric_limits<double>::infinity());
    obs::observe("t.hist", -1.0);
    obs::observe("t.hist", 1.0);
    const auto snap = obs::histogram_snapshot("t.hist");
    EXPECT_EQ(snap.count(), 1u);
    EXPECT_DOUBLE_EQ(snap.sum(), 1.0);
    EXPECT_EQ(obs::counter_value("obs.rejected_samples"), 3u);
}

// The TSan CI job runs this: concurrent writers to the same counter
// and histogram must race-free sum to exactly the expected totals.
TEST_F(ObsTest, CountersCorrectUnderConcurrentWriters)
{
    constexpr int kThreads = 8;
    constexpr int kIncrements = 5000;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([] {
            for (int i = 0; i < kIncrements; ++i) {
                obs::count("t.shared");
                obs::count("t.shared2", 2);
            }
        });
    }
    for (auto& w : writers)
        w.join();
    EXPECT_EQ(obs::counter_value("t.shared"),
              static_cast<std::uint64_t>(kThreads) * kIncrements);
    EXPECT_EQ(obs::counter_value("t.shared2"),
              2u * kThreads * kIncrements);
}

TEST_F(ObsTest, HistogramsCorrectUnderConcurrentWriters)
{
    constexpr int kThreads = 8;
    constexpr int kSamples = 2000;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([] {
            for (int i = 0; i < kSamples; ++i) {
                obs::observe("t.conc_hist", 1.0);
                obs::gauge_max("t.conc_peak", static_cast<double>(i));
                const obs::Span span("t.conc_span");
            }
        });
    }
    for (auto& w : writers)
        w.join();
    const auto snap = obs::histogram_snapshot("t.conc_hist");
    EXPECT_EQ(snap.count(),
              static_cast<std::uint64_t>(kThreads) * kSamples);
    EXPECT_DOUBLE_EQ(snap.sum(), static_cast<double>(snap.count()));
    EXPECT_DOUBLE_EQ(obs::gauge_value("t.conc_peak"),
                     static_cast<double>(kSamples - 1));
    EXPECT_EQ(obs::histogram_snapshot("t.conc_span.us").count(),
              static_cast<std::uint64_t>(kThreads) * kSamples);
}

TEST_F(ObsTest, SpansNestAndFeedHistograms)
{
    {
        const obs::Span outer("t.outer");
        {
            const obs::Span inner("t.inner");
        }
        {
            const obs::Span inner("t.inner");
        }
    }
    // Three complete events, inner twice.
    EXPECT_EQ(obs::trace_event_count(), 3u);
    EXPECT_EQ(obs::histogram_snapshot("t.inner.us").count(), 2u);
    EXPECT_EQ(obs::histogram_snapshot("t.outer.us").count(), 1u);
    // An enclosing span's duration covers its nested spans'.
    EXPECT_GE(obs::histogram_snapshot("t.outer.us").sum(),
              obs::histogram_snapshot("t.inner.us").sum());
}

TEST_F(ObsTest, TraceJsonIsValidAndComplete)
{
    {
        const obs::Span span("t.span \"quoted\\name\"");
    }
    obs::trace_counter("t.series", 1.5);
    obs::trace_counter("t.series", 0.5);

    std::ostringstream out;
    obs::write_trace_json(out);
    const std::string text = out.str();

    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_EQ(text.front(), '[');
    // One complete event (ph X) and two counter samples (ph C).
    std::size_t x_events = 0;
    std::size_t c_events = 0;
    for (std::size_t pos = 0;
         (pos = text.find("\"ph\":", pos)) != std::string::npos;
         pos += 5) {
        const char ph = text[text.find('"', pos + 5) + 1];
        x_events += ph == 'X';
        c_events += ph == 'C';
    }
    EXPECT_EQ(x_events, 1u);
    EXPECT_EQ(c_events, 2u);
}

TEST_F(ObsTest, MetricsJsonIsValid)
{
    obs::count("t.counter", 7);
    obs::gauge_set("t.gauge", 1.25);
    obs::observe("t.hist \"weird\\name\"", 3.0);
    std::ostringstream out;
    obs::write_metrics_json(out);
    EXPECT_TRUE(JsonValidator(out.str()).valid()) << out.str();
    EXPECT_NE(out.str().find("\"p99\": 3"), std::string::npos)
        << out.str();
    EXPECT_EQ(out.str().find("\"buckets\""), std::string::npos);
}

TEST_F(ObsTest, MetricsTextSortedAndTyped)
{
    obs::count("t.b_counter");
    obs::count("t.a_counter");
    obs::gauge_set("t.gauge", 2.0);
    obs::observe("t.hist", 4.0);
    std::ostringstream out;
    obs::write_metrics_text(out);
    const std::string text = out.str();
    const auto a = text.find("counter t.a_counter 1");
    const auto b = text.find("counter t.b_counter 1");
    ASSERT_NE(a, std::string::npos) << text;
    ASSERT_NE(b, std::string::npos) << text;
    EXPECT_LT(a, b); // sorted by name
    EXPECT_NE(text.find("gauge t.gauge 2"), std::string::npos);
    EXPECT_NE(text.find("hist t.hist count 1 sum 4 min 4 max 4 mean 4 "
                        "p50 4 p90 4 p99 4\n"),
              std::string::npos)
        << text;
}

TEST_F(ObsTest, DisabledRecordsNothing)
{
    obs::set_enabled(false);
    obs::count("t.off");
    obs::gauge_set("t.off_gauge", 1.0);
    obs::observe("t.off_hist", 1.0);
    obs::trace_counter("t.off_series", 1.0);
    {
        const obs::Span span("t.off_span");
    }
    EXPECT_EQ(obs::counter_value("t.off"), 0u);
    EXPECT_DOUBLE_EQ(obs::gauge_value("t.off_gauge"), 0.0);
    EXPECT_EQ(obs::histogram_snapshot("t.off_hist").count(), 0u);
    EXPECT_EQ(obs::trace_event_count(), 0u);
}

// The byte-identical-figures contract in miniature: the same
// measurements through the instrumented RunService return the same
// bits with collection off, on, and off again.
TEST_F(ObsTest, RecordingNeverChangesMeasuredValues)
{
    const auto& app = workload::find_app("S.WC");
    const std::vector<sim::NodeId> nodes{0, 1};
    workload::RunConfig cfg;
    cfg.reps = 1;
    cfg.seed = 7;

    const auto run_once = [&] {
        workload::RunService service(2);
        std::vector<workload::RunRequest> reqs;
        reqs.push_back(workload::solo_time_request(app, nodes, cfg));
        reqs.push_back(workload::solo_time_request(app, nodes, cfg));
        return service.run_all(reqs);
    };

    obs::set_enabled(false);
    const auto off = run_once();
    obs::set_enabled(true);
    const auto on = run_once();
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i)
        EXPECT_EQ(off[i], on[i]); // bit-identical, not near

    // And the instrumentation actually fired while enabled.
    EXPECT_EQ(obs::counter_value("runservice.submitted"), 2u);
    EXPECT_EQ(obs::counter_value("runservice.executed"), 1u);
    EXPECT_EQ(obs::counter_value("runservice.cache_hits"), 1u);
}

TEST_F(ObsTest, SessionEnablesAndExports)
{
    obs::set_enabled(false);
    obs::reset();
    const std::string trace_path = "/tmp/imc_test_obs_trace.json";
    const std::string metrics_path = "/tmp/imc_test_obs_metrics.json";
    {
        const Cli cli = make_cli({"--trace-out", trace_path.c_str(),
                                  "--metrics-out",
                                  metrics_path.c_str()});
        const obs::Session session(cli);
        EXPECT_TRUE(obs::enabled());
        obs::count("t.from_session");
        const obs::Span span("t.session_span");
    }
    EXPECT_FALSE(obs::enabled());

    std::ifstream trace(trace_path);
    ASSERT_TRUE(trace.good());
    std::stringstream trace_text;
    trace_text << trace.rdbuf();
    EXPECT_TRUE(JsonValidator(trace_text.str()).valid());
    EXPECT_NE(trace_text.str().find("t.session_span"),
              std::string::npos);

    std::ifstream metrics(metrics_path);
    ASSERT_TRUE(metrics.good());
    std::stringstream metrics_text;
    metrics_text << metrics.rdbuf();
    EXPECT_TRUE(JsonValidator(metrics_text.str()).valid());
    EXPECT_NE(metrics_text.str().find("t.from_session"),
              std::string::npos);

    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

TEST_F(ObsTest, SessionWithoutFlagsIsInert)
{
    obs::set_enabled(false);
    {
        const Cli cli = make_cli({"--seed", "42"});
        const obs::Session session(cli);
        EXPECT_FALSE(obs::enabled());
    }
    EXPECT_FALSE(obs::enabled());
}

// tool_main opens the obs session, so --metrics-out exports at exit.
TEST_F(ObsTest, ToolMainWritesMetricsOut)
{
    obs::set_enabled(false);
    const std::string path = "/tmp/imc_test_tool_main_metrics.txt";
    const std::vector<const char*> argv{"prog", "--metrics-out",
                                        path.c_str()};
    const int status = tool_main(3, argv.data(), {}, [](const Cli&) {
        obs::count("t.tool_main");
        return 0;
    });
    EXPECT_EQ(status, 0);
    EXPECT_FALSE(obs::enabled());
    std::ifstream metrics(path);
    ASSERT_TRUE(metrics.good());
    std::stringstream text;
    text << metrics.rdbuf();
    EXPECT_NE(text.str().find("counter t.tool_main 1"), std::string::npos)
        << text.str();
    std::remove(path.c_str());
}

TEST_F(ObsTest, ResetDropsEverything)
{
    obs::count("t.counter");
    obs::observe("t.hist", 1.0);
    {
        const obs::Span span("t.span");
    }
    obs::reset();
    EXPECT_EQ(obs::counter_value("t.counter"), 0u);
    EXPECT_EQ(obs::histogram_snapshot("t.hist").count(), 0u);
    EXPECT_EQ(obs::trace_event_count(), 0u);
}
