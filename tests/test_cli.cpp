/**
 * @file
 * Unit tests of the command-line option parser.
 */

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/error.hpp"

using namespace imc;

namespace {

Cli
make_cli(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Cli(static_cast<int>(argv.size()), argv.data());
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
    const Cli cli = make_cli({"--csv", "--seed", "7"});
    EXPECT_TRUE(cli.has("csv"));
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
        make_cli({"--seed=99", "--eps=0.5", "--apps=a,b", "--csv"});
    EXPECT_EQ(cli.get_u64("seed", 1), 99u);
    EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
    EXPECT_EQ(cli.get_list("apps"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(cli.has("csv"));
}

TEST(Cli, EqualsFormAllowsFlagLikeValue)
{
    // "--flag value" refuses to consume a following "--…" token, but
    // the inline form can carry any value, including empty.
    const Cli cli = make_cli({"--note=--dashes--", "--empty="});
    EXPECT_EQ(cli.get("note", ""), "--dashes--");
    EXPECT_TRUE(cli.has("empty"));
    EXPECT_EQ(cli.get("empty", "def"), "");
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
