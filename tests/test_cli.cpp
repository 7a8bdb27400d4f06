/**
 * @file
 * Unit tests of the command-line option parser and the shared tool
 * entry point.
 */

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/error.hpp"

using namespace imc;

namespace {

/** Every value flag and switch the parsing tests read. */
const std::vector<std::string> kFlags{
    "seed", "reps", "eps", "name", "apps", "missing", "delta", "note",
    "pressures"};
const std::vector<std::string> kSwitches{"dry-run"};

std::vector<const char*>
make_argv(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return argv;
}

Cli
make_cli(std::initializer_list<const char*> args)
{
    const auto argv = make_argv(args);
    return Cli(static_cast<int>(argv.size()), argv.data(), kFlags,
               kSwitches);
}

/** The ConfigError message make_cli(@p args) throws. */
std::string
parse_error(std::initializer_list<const char*> args)
{
    try {
        make_cli(args);
    } catch (const ConfigError& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected ConfigError";
    return "";
}

/** tool_main over @p args with @p flags; returns (status, stderr). */
std::pair<int, std::string>
run_tool(std::initializer_list<const char*> args,
         const std::vector<std::string>& flags,
         const std::function<int(const Cli&)>& body)
{
    const auto argv = make_argv(args);
    testing::internal::CaptureStderr();
    const int status =
        tool_main(static_cast<int>(argv.size()), argv.data(), flags, body);
    return {status, testing::internal::GetCapturedStderr()};
}

} // namespace

TEST(Cli, FlagWithValue)
{
    const Cli cli = make_cli({"--seed", "99"});
    EXPECT_TRUE(cli.has("seed"));
    EXPECT_EQ(cli.get_u64("seed", 1), 99u);
}

TEST(Cli, MissingFlagUsesDefault)
{
    const Cli cli = make_cli({});
    EXPECT_FALSE(cli.has("seed"));
    EXPECT_EQ(cli.get_u64("seed", 42), 42u);
    EXPECT_EQ(cli.get_int("reps", 3), 3);
    EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.05), 0.05);
    EXPECT_EQ(cli.get("name", "x"), "x");
}

TEST(Cli, BareSwitch)
{
    const Cli cli = make_cli({"--dry-run", "--seed", "7"});
    EXPECT_TRUE(cli.has("dry-run"));
    EXPECT_EQ(cli.get_u64("seed", 1), 7u);
}

TEST(Cli, ListParsing)
{
    const Cli cli = make_cli({"--apps", "a,b,c"});
    EXPECT_EQ(cli.get_list("apps"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(cli.get_list("missing").empty());
}

TEST(Cli, IntAndDoubleParsing)
{
    const Cli cli = make_cli({"--reps", "5", "--eps", "0.25"});
    EXPECT_EQ(cli.get_int("reps", 1), 5);
    EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.25);
}

// Regression: the pre-strict parser used atoi/atof, which silently
// turned "--reps abc" into 0 and "--eps 0.3x" into 0.3. Malformed
// numerics must be a loud ConfigError naming flag and value.
TEST(Cli, MalformedIntThrows)
{
    const Cli cli = make_cli({"--reps", "abc"});
    EXPECT_THROW(cli.get_int("reps", 1), ConfigError);
    try {
        cli.get_int("reps", 1);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("--reps"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("abc"),
                  std::string::npos);
    }
}

TEST(Cli, TrailingGarbageThrows)
{
    EXPECT_THROW(make_cli({"--reps", "5x"}).get_int("reps", 1),
                 ConfigError);
    EXPECT_THROW(make_cli({"--eps", "0.3x"}).get_double("eps", 0.0),
                 ConfigError);
    EXPECT_THROW(make_cli({"--seed", "7q"}).get_u64("seed", 1),
                 ConfigError);
}

TEST(Cli, IntOutOfRangeThrows)
{
    EXPECT_THROW(
        make_cli({"--reps", "99999999999999"}).get_int("reps", 1),
        ConfigError);
    EXPECT_THROW(make_cli({"--seed", "99999999999999999999999"})
                     .get_u64("seed", 1),
                 ConfigError);
}

TEST(Cli, NegativeU64Throws)
{
    // strtoull happily wraps "-1" to 2^64-1; the parser must not.
    EXPECT_THROW(make_cli({"--seed", "-1"}).get_u64("seed", 1),
                 ConfigError);
}

TEST(Cli, NegativeIntAccepted)
{
    EXPECT_EQ(make_cli({"--delta", "-3"}).get_int("delta", 0), -3);
    EXPECT_DOUBLE_EQ(
        make_cli({"--delta", "-0.5"}).get_double("delta", 0.0), -0.5);
}

TEST(Cli, EqualsFormBindsInline)
{
    const Cli cli =
        make_cli({"--seed=99", "--eps=0.5", "--apps=a,b", "--dry-run"});
    EXPECT_EQ(cli.get_u64("seed", 1), 99u);
    EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
    EXPECT_EQ(cli.get_list("apps"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(cli.has("dry-run"));
}

TEST(Cli, EqualsFormAllowsFlagLikeValue)
{
    // "--flag value" refuses to consume a following "--…" token, but
    // the inline form can carry any non-empty value.
    const Cli cli = make_cli({"--note=--dashes--", "--name=a=b"});
    EXPECT_EQ(cli.get("note", ""), "--dashes--");
    EXPECT_EQ(cli.get("name", ""), "a=b");
}

// Regression: a value flag given bare ("--reps", "--reps=") used to
// read as absent and run with its default.
TEST(Cli, ValueFlagWithoutValueThrowsNamingIt)
{
    for (const std::string& message :
         {parse_error({"--reps"}), parse_error({"--reps", "--seed", "1"}),
          parse_error({"--reps="}), parse_error({"--reps", ""})})
        EXPECT_EQ(message.rfind("flag '--reps' needs a value\nusage: prog", 0),
                  0u)
            << message;
}

// Regression: the argument after a bare switch was bound as the
// switch's value, so "--dry-run extra" passed a positional argument.
TEST(Cli, SwitchNeverTakesAValue)
{
    EXPECT_NE(parse_error({"--dry-run", "extra"})
                  .find("unexpected argument 'extra'"),
              std::string::npos);
    EXPECT_NE(parse_error({"--dry-run=1"})
                  .find("switch '--dry-run' takes no value\n"),
              std::string::npos);
    const Cli cli = make_cli({"--dry-run", "--reps", "2"});
    EXPECT_TRUE(cli.has("dry-run"));
    EXPECT_EQ(cli.get_int("reps", 1), 2);
    EXPECT_THROW(cli.get("dry-run", ""), LogicBug);
}

TEST(Cli, UsageListsValueFlagsThenSwitches)
{
    const std::vector<const char*> argv{"prog", "--x"};
    try {
        const Cli cli(2, argv.data(), {"apps"}, {"fast"});
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown flag '--x'\nusage: prog [--apps] [--fast]");
    }
}

// Regression: "a,,b" and trailing commas used to emit empty tokens,
// which downstream app lookups reported as unknown-app failures.
TEST(Cli, ListSkipsEmptyTokens)
{
    EXPECT_EQ(make_cli({"--apps", "a,,b"}).get_list("apps"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(make_cli({"--apps", "a,b,"}).get_list("apps"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(make_cli({"--apps", ",a"}).get_list("apps"),
              (std::vector<std::string>{"a"}));
    EXPECT_TRUE(make_cli({"--apps", ",,"}).get_list("apps").empty());
}

// Regression: list items went through std::stoi / std::stod, so
// "--pressures 2x" ran pressure 2 and "--pressures abc" escaped as an
// uncaught std::invalid_argument. Items now parse like get_int /
// get_double, and the error names the flag.
TEST(Cli, NumericListsParseStrictly)
{
    for (const char* bad : {"2x", "1,abc"}) {
        const Cli cli = make_cli({"--pressures", bad});
        for (const bool as_int : {true, false}) {
            try {
                if (as_int)
                    cli.get_int_list("pressures");
                else
                    cli.get_double_list("pressures");
                FAIL() << "expected ConfigError for '" << bad << "'";
            } catch (const ConfigError& e) {
                EXPECT_NE(std::string(e.what()).find("--pressures"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    const Cli cli = make_cli({"--pressures", "1,2.5"});
    EXPECT_EQ(cli.get_double_list("pressures"),
              (std::vector<double>{1.0, 2.5}));
    EXPECT_THROW(cli.get_int_list("pressures"), ConfigError);
    EXPECT_EQ(make_cli({"--pressures", "1,3"}).get_int_list("pressures"),
              (std::vector<int>{1, 3}));
    EXPECT_TRUE(make_cli({}).get_int_list("pressures").empty());
    EXPECT_TRUE(make_cli({}).get_double_list("pressures").empty());
}

// Regression: undeclared arguments were kept and ignored, so "--sedd 3"
// ran the default seed and "--help" ran a whole sweep.
TEST(Cli, UnknownFlagThrowsNamingItWithUsage)
{
    EXPECT_NE(parse_error({"--sedd", "3"})
                  .find("unknown flag '--sedd'\nusage: prog [--seed] "
                        "[--reps] [--eps]"),
              std::string::npos);
    EXPECT_NE(parse_error({"--sedd=3"}).find("unknown flag '--sedd'\n"),
              std::string::npos);
    EXPECT_NE(parse_error({"--help"}).find("unknown flag '--help'\n"),
              std::string::npos);
}

TEST(Cli, PositionalArgumentThrowsNamingIt)
{
    EXPECT_NE(parse_error({"extra"}).find("unexpected argument 'extra'"),
              std::string::npos);
    // "--seed 1 2": the 1 is the seed, the 2 is positional.
    EXPECT_NE(parse_error({"--seed", "1", "2"})
                  .find("unexpected argument '2'"),
              std::string::npos);
}

TEST(Cli, RepeatedFlagThrowsNamingIt)
{
    EXPECT_NE(parse_error({"--seed", "1", "--seed=2"})
                  .find("repeated flag '--seed'"),
              std::string::npos);
    EXPECT_NE(parse_error({"--dry-run", "--dry-run"})
                  .find("repeated flag '--dry-run'"),
              std::string::npos);
}

TEST(Cli, UsageLineNamesTheProgramFile)
{
    const std::vector<const char*> argv{"build/bench/fig99", "--x"};
    try {
        const Cli cli(2, argv.data(), {"apps"});
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown flag '--x'\nusage: fig99 [--apps]");
    }
}

TEST(Cli, ReadingAnUndeclaredFlagIsALogicBug)
{
    const Cli cli = make_cli({"--seed", "1"});
    EXPECT_THROW(cli.has("sed"), LogicBug);
    EXPECT_THROW(cli.get("sed", ""), LogicBug);
    EXPECT_THROW(cli.get_int("sed", 0), LogicBug);
    EXPECT_THROW(cli.get_double("sed", 0.0), LogicBug);
    EXPECT_THROW(cli.get_u64("sed", 0), LogicBug);
    EXPECT_THROW(cli.get_list("sed"), LogicBug);
    EXPECT_THROW(cli.get_int_list("sed"), LogicBug);
    EXPECT_THROW(cli.get_double_list("sed"), LogicBug);
}

TEST(ToolMain, BodyStatusPassesThrough)
{
    const auto [status, err] =
        run_tool({"--reps", "4"}, {"reps"}, [](const Cli& cli) {
            return cli.get_int("reps", 1) + 3;
        });
    EXPECT_EQ(status, 7);
    EXPECT_EQ(err, "");
}

TEST(ToolMain, ConfigErrorExitsTwoWithOneLine)
{
    const auto [status, err] =
        run_tool({"--reps", "abc"}, {"reps"},
                 [](const Cli& cli) { return cli.get_int("reps", 1); });
    EXPECT_EQ(status, 2);
    EXPECT_EQ(err, "prog: --reps: expected an integer, got 'abc'\n");
}

TEST(ToolMain, LogicBugExitsOneWithOneLine)
{
    const auto [status, err] = run_tool(
        {}, {"reps"}, [](const Cli& cli) { return cli.get_int("rep", 1); });
    EXPECT_EQ(status, 1);
    EXPECT_EQ(err, "prog: flag '--rep' is read but not declared\n");
}

TEST(ToolMain, ParseErrorPrintsUsageAndSkipsTheBody)
{
    bool ran = false;
    const auto [status, err] =
        run_tool({"--help"}, {"reps"}, [&ran](const Cli&) {
            ran = true;
            return 0;
        });
    EXPECT_EQ(status, 2);
    EXPECT_FALSE(ran);
    EXPECT_EQ(err, "prog: unknown flag '--help'\n"
                   "usage: prog [--reps] [--metrics-out] [--trace-out] "
                   "[--fault-seed] [--fault-spec] [--metrics]\n");
}
