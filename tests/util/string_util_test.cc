#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "util/random.h"

namespace mocemg {
namespace {

// The grammar ParseDouble reproduces: strtod on the trimmed token, with
// ERANGE and unconsumed text rejected.
std::optional<double> StrtodReference(const std::string& token) {
  const std::string t(Trim(token));
  if (t.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (errno == ERANGE || end != t.c_str() + t.size()) return std::nullopt;
  return v;
}

std::optional<int64_t> StrtollReference(const std::string& token) {
  const std::string t(Trim(token));
  if (t.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (errno == ERANGE || end != t.c_str() + t.size()) return std::nullopt;
  return static_cast<int64_t>(v);
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Same accept/reject decision as strtod, and bit-identical values.
void ExpectMatchesStrtod(const std::string& token) {
  const std::optional<double> want = StrtodReference(token);
  const Result<double> got = ParseDouble(token);
  ASSERT_EQ(got.ok(), want.has_value())
      << "token '" << token << "': " << got.status();
  if (want) {
    EXPECT_EQ(Bits(*got), Bits(*want)) << "token '" << token << "'";
  }
}

void ExpectMatchesStrtoll(const std::string& token) {
  const std::optional<int64_t> want = StrtollReference(token);
  const Result<int64_t> got = ParseInt(token);
  ASSERT_EQ(got.ok(), want.has_value())
      << "token '" << token << "': " << got.status();
  if (want) {
    EXPECT_EQ(*got, *want) << "token '" << token << "'";
  }
}

// Named edge tokens, shared by the double and integer differentials.
const char* const kEdgeTokens[] = {
    "+1", "0x1p3", " 1.5 ", ".5", "1.", "-0", "0", "inf", "nan", "-inf",
    "Infinity", "nan(123)", "1e", "--1", "+-1", "-+1", "+", "-", ".",
    "1e+", "0x", "0x1p", "e5", "1e400", "-1e400", "1e-400", "1e-310",
    "4.9e-324", "-4.9e-324", "2.2250738585072014e-308",
    "2.2250738585072011e-308", "2.2250738585072012e-308",
    "1.7976931348623157e308", "1.7976931348623159e308", "0x1p-1074",
    "0x1p-1022", "+.5", "007", "\t42\r", "1 2", "12abc",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "99999999999999999999999x", "+0x10",
    "123456789012345678901234567890e-340", "0.0e-99999"};

std::string Format(const char* format, double v) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleToken) {
  auto parts = Split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("PathFileType\t4", "PathFileType"));
  EXPECT_FALSE(StartsWith("Path", "PathFileType"));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Pelvis", "pelvis"));
  EXPECT_TRUE(EqualsIgnoreCase("MM", "mm"));
  EXPECT_FALSE(EqualsIgnoreCase("m", "mm"));
}

TEST(StringUtilTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e-5 "), -1e-5);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(StringUtilTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("1.5 2.5").ok());
}

TEST(StringUtilTest, ParseDoubleMatchesStrtodOnEdgeTokens) {
  for (const char* token : kEdgeTokens) ExpectMatchesStrtod(token);
}

TEST(StringUtilTest, ParseDoubleRejectsRangeErrorsIncludingSubnormals) {
  for (const char* token : {"1e400", "1e-400", "1e-310", "4.9e-324",
                            "2.2250738585072011e-308"}) {
    const Result<double> r = ParseDouble(token);
    ASSERT_FALSE(r.ok()) << token;
    EXPECT_NE(r.status().message().find("overflow"), std::string::npos);
  }
  EXPECT_EQ(*ParseDouble("2.2250738585072014e-308"), DBL_MIN);
  EXPECT_EQ(*ParseDouble("+1"), 1.0);
  EXPECT_EQ(*ParseDouble("0x1p3"), 8.0);
  EXPECT_TRUE(std::signbit(*ParseDouble("-0")));
}

TEST(StringUtilTest, ParseDoubleMatchesStrtodOnSeededCorpus) {
  Rng rng(20240611);
  const char* const formats[] = {"%.17g", "%.5f", "%.10f", "%e"};
  for (int i = 0; i < 20000; ++i) {
    // Every bit pattern: normals of every exponent, subnormals, inf/nan.
    const uint64_t u = rng.NextUint64();
    double any;
    std::memcpy(&any, &u, sizeof(any));
    // Capture-like magnitudes: marker mm and EMG volts.
    const double typical =
        rng.Uniform(-1.0, 1.0) * std::ldexp(1.0, static_cast<int>(
                                                     rng.UniformInt(-30, 12)));
    // Just around the normal/subnormal boundary.
    const double boundary = DBL_MIN * rng.Uniform(0.5, 1.5);
    for (const char* format : formats) {
      ExpectMatchesStrtod(Format(format, any));
      ExpectMatchesStrtod(Format(format, typical));
      ExpectMatchesStrtod(Format(format, boundary));
    }
  }
}

TEST(StringUtilTest, ParseIntMatchesStrtollOnEdgeTokensAndSeededCorpus) {
  for (const char* token : kEdgeTokens) ExpectMatchesStrtoll(token);
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<int64_t>(rng.NextUint64());
    ExpectMatchesStrtoll(std::to_string(v));
    ExpectMatchesStrtoll("+" + std::to_string(rng.UniformInt(0, 1000000)));
    ExpectMatchesStrtoll(std::to_string(v) + "9");  // overflow
    ExpectMatchesStrtoll(Format("%.3g", static_cast<double>(v)));
  }
}

TEST(StringUtilTest, LineCursorFollowsGetlineAndStripsCarriageReturn) {
  auto lines_of = [](std::string_view text) {
    std::vector<std::string> out;
    LineCursor cursor(text);
    std::string_view line;
    while (cursor.Next(&line)) out.emplace_back(line);
    return out;
  };
  EXPECT_TRUE(lines_of("").empty());
  EXPECT_EQ(lines_of("\n"), std::vector<std::string>({""}));
  EXPECT_EQ(lines_of("a\nb"), std::vector<std::string>({"a", "b"}));
  EXPECT_EQ(lines_of("a\r\n\r\nb\r\n"),
            std::vector<std::string>({"a", "", "b"}));
  EXPECT_EQ(lines_of("a\r\r\n"), std::vector<std::string>({"a\r"}));

  LineCursor cursor("x\ny\nz");
  std::string_view line;
  ASSERT_TRUE(cursor.Next(&line));
  ASSERT_TRUE(cursor.Next(&line));
  EXPECT_EQ(line, "y");
  EXPECT_EQ(cursor.line_no(), 2u);
  EXPECT_EQ(cursor.rest(), "z");
}

TEST(StringUtilTest, ParseIntValid) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt(" -7 "), -7);
}

TEST(StringUtilTest, ParseIntRejectsGarbage) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("3.5").ok());
  EXPECT_FALSE(ParseInt("12abc").ok());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace mocemg
