/**
 * @file
 * Unit tests of the table/chart/string formatting helpers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/chart.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace imc;

TEST(Strings, FmtFixed)
{
    EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fmt_fixed(2.0, 0), "2");
    EXPECT_EQ(fmt_fixed(-1.5, 1), "-1.5");
}

TEST(Strings, FmtPct)
{
    EXPECT_EQ(fmt_pct(0.0345), "3.45%");
    EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(Strings, JoinAndPad)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(pad_left("x", 3), "  x");
    EXPECT_EQ(pad_right("x", 3), "x  ");
    EXPECT_EQ(pad_left("xyz", 2), "xyz");
    EXPECT_EQ(repeat('-', 3), "---");
}

TEST(Table, AlignsColumns)
{
    Table t({"name", "v"});
    t.add_row({"longer-name", "1"});
    t.add_row({"x", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| longer-name | 1  |"), std::string::npos);
    EXPECT_NE(out.find("| x           | 22 |"), std::string::npos);
}

TEST(Table, RowWidthChecked)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(BarChart, ScalesToMax)
{
    BarChart chart("title", "%");
    chart.add("a", 50.0);
    chart.add("bb", 100.0);
    std::ostringstream os;
    chart.print(os, 10);
    const std::string out = os.str();
    EXPECT_NE(out.find("a  |##### 50.00%"), std::string::npos);
    EXPECT_NE(out.find("bb |########## 100.00%"), std::string::npos);
}

TEST(SeriesChart, GroupsByX)
{
    SeriesChart chart("c", "x");
    const auto s0 = chart.add_series("one");
    const auto s1 = chart.add_series("two");
    chart.add_point(s0, 1.0, 0.5);
    chart.add_point(s1, 1.0, 0.7);
    chart.add_point(s0, 2.0, 0.9);
    std::ostringstream os;
    chart.print(os, 1);
    const std::string out = os.str();
    EXPECT_NE(out.find("| 1 | 0.5 | 0.7 |"), std::string::npos);
    EXPECT_NE(out.find("| 2 | 0.9 | -   |"), std::string::npos);
}
