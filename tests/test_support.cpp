// Unit tests: string utilities and table/series output.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "support/series.hpp"
#include "support/strings.hpp"

namespace arc = arcade;

TEST(Strings, SplitKeepsEmptyFields) {
    const auto parts = arc::split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimAndStartsWith) {
    EXPECT_EQ(arc::trim("  x y \t\n"), "x y");
    EXPECT_EQ(arc::trim(""), "");
    EXPECT_EQ(arc::trim("   "), "");
    EXPECT_TRUE(arc::starts_with("hello", "he"));
    EXPECT_FALSE(arc::starts_with("he", "hello"));
}

TEST(Strings, JoinAndLower) {
    EXPECT_EQ(arc::join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(arc::join({}, ","), "");
    EXPECT_EQ(arc::to_lower("MiXeD"), "mixed");
}

TEST(Strings, FormatDoubleRoundTrips) {
    for (double v : {0.0, 1.0, 0.1, 1.0 / 3.0, 1e-12, 12345.6789, -2.5e17}) {
        const std::string text = arc::format_double(v);
        EXPECT_DOUBLE_EQ(std::stod(text), v) << text;
    }
}

namespace {

/// The printf formatter append_g17 replaces.
std::string printf_g17(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// format_double as it was written on printf/scanf: the reference for the
/// to_chars/from_chars search.
std::string printf_format_double(double value) {
    char buf[64];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, value);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == value) break;
    }
    return buf;
}

/// Edge cases plus 100k seeded random bit patterns (every exponent,
/// subnormals and NaN payloads included).
std::vector<double> formatter_inputs() {
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1.0 / 3.0, 2.0 / 3.0, 1e-12, 12345.6789,
        -2.5e17, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, limits::denorm_min(),
        -limits::denorm_min(), DBL_MIN / 3.0, limits::epsilon(), limits::infinity(),
        -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN(),
        9007199254740992.0, 9007199254740993.0, 123456789012345678.0, 1e21, 1e22,
    };
    for (int e = -320; e <= 308; ++e) values.push_back(std::pow(10.0, e));
    for (int n = -1000; n <= 1000; ++n) values.push_back(static_cast<double>(n));
    std::mt19937_64 rng(20100628);
    for (int i = 0; i < 100000; ++i) values.push_back(std::bit_cast<double>(rng()));
    return values;
}

}  // namespace

TEST(Strings, FormatG17MatchesPrintfByteForByte) {
    const auto values = formatter_inputs();
    std::size_t nans = 0;
    std::size_t subnormals = 0;
    std::string appended = "x";
    for (const double v : values) {
        if (std::isnan(v)) ++nans;
        if (std::fpclassify(v) == FP_SUBNORMAL) ++subnormals;
        ASSERT_EQ(arc::format_g17(v), printf_g17(v))
            << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    }
    EXPECT_GE(nans, 2u);
    EXPECT_GT(subnormals, 2u);
    // append_g17 appends; it never replaces.
    arc::append_g17(appended, 0.25);
    arc::append_g17(appended, -DBL_MAX);
    EXPECT_EQ(appended, "x0.25-1.7976931348623157e+308");
    EXPECT_EQ(arc::format_g17(-std::numeric_limits<double>::quiet_NaN()), "-nan");
}

TEST(Strings, FormatDoubleMatchesThePrintfScanfSearch) {
    for (const double v : formatter_inputs()) {
        ASSERT_EQ(arc::format_double(v), printf_format_double(v))
            << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    }
    EXPECT_EQ(arc::format_double(0.1), "0.1");
    EXPECT_EQ(arc::format_double(1.0 / 3.0), "0.3333333333333333");
}

TEST(Series, TimeGridEndpoints) {
    const auto grid = arc::time_grid(10.0, 5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.0);
    EXPECT_DOUBLE_EQ(grid.back(), 10.0);
    EXPECT_DOUBLE_EQ(grid[1], 2.5);
}

TEST(Series, FigurePrintsHeaderAndRows) {
    arc::Figure fig("test", "t", "y");
    fig.set_times({0.0, 1.0});
    fig.add_series("a", {0.5, 0.6});
    std::ostringstream os;
    fig.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("# test"), std::string::npos);
    EXPECT_NE(out.find("0.5"), std::string::npos);
    EXPECT_NE(out.find("\ta"), std::string::npos);
}

TEST(Series, PrintRestoresTheCallersStreamState) {
    // Figure::print uses setprecision(7) and Table::print std::left/setw for
    // their own rows; neither may leak onto the caller's stream — a harness
    // printing elapsed seconds afterwards must keep its own formatting.
    arc::Figure fig("test", "t", "y");
    fig.set_times({0.0, 1.0});
    fig.add_series("a", {0.123456789012, 0.6});
    std::ostringstream os;
    os << std::setprecision(12);
    const std::ios::fmtflags before = os.flags();
    fig.print(os);
    EXPECT_EQ(os.precision(), 12);
    EXPECT_EQ(os.flags(), before);

    arc::Table table({"name", "value"});
    table.add_row({"x", "1"});
    table.print(os);
    EXPECT_EQ(os.precision(), 12);
    EXPECT_EQ(os.flags(), before);
    os << 0.123456789012;
    EXPECT_NE(os.str().find("0.123456789012"), std::string::npos);
}

TEST(Series, TablePrintsAlignedColumns) {
    arc::Table table({"name", "value"});
    table.add_row({"x", "1"});
    table.add_row({"longer", "2"});
    std::ostringstream os;
    table.print(os);
    EXPECT_NE(os.str().find("longer"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}
