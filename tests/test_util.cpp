#include <gtest/gtest.h>

#include <sstream>

#include "sim/geometry.h"
#include "util/contour.h"
#include "util/csv.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/table.h"

namespace enviromic {
namespace {

TEST(Stats, MeanAndVariance) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(util::mean(xs), 5.0);
  EXPECT_NEAR(util::variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(util::stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(util::mean({}), 0.0);
  EXPECT_EQ(util::variance({}), 0.0);
  EXPECT_EQ(util::variance({5.0}), 0.0);
  EXPECT_EQ(util::ci90_halfwidth({5.0}), 0.0);
}

TEST(Stats, Ci90ShrinksWithSamples) {
  std::vector<double> small = {1, 2, 3, 4, 5};
  std::vector<double> large;
  for (int i = 0; i < 20; ++i) large.insert(large.end(), small.begin(), small.end());
  EXPECT_GT(util::ci90_halfwidth(small), util::ci90_halfwidth(large));
}

TEST(Stats, MinMax) {
  auto [lo, hi] = util::minmax({3.0, -1.0, 7.0});
  EXPECT_EQ(lo, -1.0);
  EXPECT_EQ(hi, 7.0);
}

TEST(Stats, EwmaConverges) {
  util::Ewma e(0.5, 0.0);
  for (int i = 0; i < 30; ++i) e.update(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(Stats, EwmaFormulaMatchesPaper) {
  // R(t) = R(t-1)(1-a) + r*a
  util::Ewma e(0.25, 100.0);
  e.update(200.0);
  EXPECT_DOUBLE_EQ(e.value(), 100.0 * 0.75 + 200.0 * 0.25);
}

TEST(Table, AlignedOutputContainsCellsAndRule) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvQuotesSpecials) {
  util::Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, EscapePassesPlainFieldsThrough) {
  EXPECT_EQ(util::csv_escape(""), "");
  EXPECT_EQ(util::csv_escape("plain"), "plain");
  EXPECT_EQ(util::csv_escape("with space"), "with space");
  EXPECT_EQ(util::csv_escape("1.5e-3"), "1.5e-3");
}

TEST(Csv, EscapeQuotesSpecials) {
  EXPECT_EQ(util::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(util::csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(util::csv_escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(util::csv_escape("\""), "\"\"\"\"");
  EXPECT_EQ(util::csv_escape(","), "\",\"");
}

TEST(NumberLiteral, IntegralValuesPrintWithoutDecimalPoint) {
  EXPECT_EQ(util::format_double(0.0), "0");
  EXPECT_EQ(util::format_double(-0.0), "0");
  EXPECT_EQ(util::format_double(42.0), "42");
  EXPECT_EQ(util::format_double(-7.0), "-7");
  EXPECT_EQ(util::format_double(1e15), "1000000000000000");
  EXPECT_EQ(util::format_double(9e15), "9000000000000000");
  // Past 9e15 the literal switches to %.17g.
  EXPECT_EQ(util::format_double(1e16), "10000000000000000");
  EXPECT_NE(util::format_double(1e17).find('e'), std::string::npos);
}

TEST(NumberLiteral, NonIntegralValuesRoundTripThroughParseDouble) {
  for (const double v : {0.1, -2.5, 1.0 / 3.0, 19999.887433934215, 6.02e23,
                         5e-324, 1e15 + 0.5}) {
    const std::string lit = util::format_double(v);
    double back = 0.0;
    ASSERT_TRUE(util::parse_double(lit.c_str(), &back)) << lit;
    EXPECT_EQ(back, v) << lit;
    EXPECT_EQ(util::format_double(back), lit);
  }
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(util::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(util::fmt(static_cast<long long>(-42)), "-42");
}

TEST(Contour, GridAccessAndAggregates) {
  util::Grid g(3, 2, 1.0);
  g.at(2, 1) = 7.0;
  g.at(0, 0) = -2.0;
  EXPECT_EQ(g.nx(), 3u);
  EXPECT_EQ(g.ny(), 2u);
  EXPECT_EQ(g.max(), 7.0);
  EXPECT_EQ(g.min(), -2.0);
  EXPECT_DOUBLE_EQ(g.total(), 1 * 4 + 7 - 2);
}

TEST(Contour, RenderHasOneRowPerY) {
  util::Grid g(4, 3);
  g.at(0, 0) = 1.0;
  std::ostringstream os;
  util::render_contour(os, g, "test");
  // title + 3 rows + scale line
  int lines = 0;
  for (char c : os.str()) lines += c == '\n';
  EXPECT_EQ(lines, 5);
}

TEST(Contour, ExtremeCellsGetExtremeGlyphs) {
  util::Grid g(2, 1);
  g.at(0, 0) = 0.0;
  g.at(1, 0) = 100.0;
  std::ostringstream os;
  util::render_contour(os, g, "t");
  const std::string out = os.str();
  EXPECT_NE(out.find('@'), std::string::npos);  // max glyph present
}

TEST(Geometry, DistanceAndLerp) {
  sim::Position a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(sim::distance(a, b), 5.0);
  const auto mid = sim::lerp(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.x, 1.5);
  EXPECT_DOUBLE_EQ(mid.y, 2.0);
  EXPECT_EQ(sim::lerp(a, b, 0.0), a);
  EXPECT_EQ(sim::lerp(a, b, 1.0), b);
}

}  // namespace
}  // namespace enviromic
