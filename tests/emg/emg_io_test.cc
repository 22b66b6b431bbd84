#include "emg/emg_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace mocemg {
namespace {

EmgRecording MakeRecording() {
  return *EmgRecording::Create(
      {Muscle::kBiceps, Muscle::kUpperForearm},
      {{1.5e-5, -2.5e-6, 0.0}, {3.0e-5, 4.0e-5, -1.0e-6}}, 1000.0);
}

TEST(EmgIoTest, RoundTrip) {
  EmgRecording original = MakeRecording();
  const std::string text = WriteEmgCsv(original);
  auto parsed = ParseEmgCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_channels(), 2u);
  EXPECT_EQ(parsed->num_samples(), 3u);
  EXPECT_DOUBLE_EQ(parsed->sample_rate_hz(), 1000.0);
  EXPECT_EQ(parsed->muscles()[1], Muscle::kUpperForearm);
  for (size_t c = 0; c < 2; ++c) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(parsed->channel(c)[i], original.channel(c)[i], 1e-12);
    }
  }
}

TEST(EmgIoTest, RequiresSampleRateComment) {
  EXPECT_FALSE(ParseEmgCsv("biceps\n1.0\n").ok());
}

TEST(EmgIoTest, RejectsUnknownMuscle) {
  EXPECT_FALSE(
      ParseEmgCsv("# sample_rate_hz=1000\nquadriceps\n1.0\n").ok());
}

TEST(EmgIoTest, RejectsNonNumericData) {
  EXPECT_FALSE(
      ParseEmgCsv("# sample_rate_hz=1000\nbiceps\nhello\n").ok());
}

TEST(EmgIoTest, ParsesHandWrittenFile) {
  const std::string text =
      "# recorded in lab 3\n"
      "# sample_rate_hz=500\n"
      "front_shin,back_shin\n"
      "1e-5,2e-5\n"
      "3e-5,4e-5\n";
  auto parsed = ParseEmgCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->sample_rate_hz(), 500.0);
  EXPECT_EQ(parsed->num_samples(), 2u);
  EXPECT_DOUBLE_EQ(parsed->channel(1)[1], 4e-5);
}

bool SameSamples(const EmgRecording& a, const EmgRecording& b) {
  if (a.num_channels() != b.num_channels() ||
      a.sample_rate_hz() != b.sample_rate_hz()) {
    return false;
  }
  for (size_t c = 0; c < a.num_channels(); ++c) {
    if (a.muscles()[c] != b.muscles()[c] || a.channel(c) != b.channel(c)) {
      return false;
    }
  }
  return true;
}

TEST(EmgIoTest, CrlfLineEndingsParseLikeLf) {
  const std::string lf = WriteEmgCsv(MakeRecording());
  std::string crlf;
  for (char ch : lf) {
    if (ch == '\n') crlf.push_back('\r');
    crlf.push_back(ch);
  }
  auto a = ParseEmgCsv(lf);
  auto b = ParseEmgCsv(crlf);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(SameSamples(*a, *b));
}

TEST(EmgIoTest, QuotedHeaderNamesAndCells) {
  auto parsed = ParseEmgCsv(
      "# sample_rate_hz=1000\n"
      "\"biceps\",\"upper_forearm\"\n"
      "\"1.5e-05\",3e-05\n"
      "-2.5e-06,\"4e-05\"\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_samples(), 2u);
  EXPECT_EQ(parsed->muscles()[1], Muscle::kUpperForearm);
  EXPECT_EQ(parsed->channel(0)[0], 1.5e-5);
  EXPECT_EQ(parsed->channel(1)[1], 4e-5);

  // A quoted cell keeps its comma, so it is one bad number, not two.
  auto bad = ParseEmgCsv("# sample_rate_hz=1000\nbiceps,triceps\n"
                         "\"1,5\",2\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("row 0, column 0"),
            std::string::npos)
      << bad.status();
}

TEST(EmgIoTest, CommentsAndBlankLinesBetweenRowsAreSkipped) {
  auto parsed = ParseEmgCsv(
      "# sample_rate_hz=500\n"
      "biceps,triceps\n"
      "1e-5,2e-5\n"
      "\n"
      "# electrode re-seated\n"
      "   \n"
      "3e-5,4e-5\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_samples(), 2u);
  EXPECT_EQ(parsed->channel(0)[1], 3e-5);
  EXPECT_EQ(parsed->channel(1)[1], 4e-5);
}

TEST(EmgIoTest, ErrorsReportLineAndRowNumbers) {
  // A short row is reported by its line in the file.
  auto short_row = ParseEmgCsv(
      "# sample_rate_hz=1000\nbiceps,triceps\n1,2\n\n3\n");
  ASSERT_FALSE(short_row.ok());
  EXPECT_NE(short_row.status().message().find(
                "row on line 5 has 1 fields, expected 2"),
            std::string::npos)
      << short_row.status();
  // A bad number is reported by data row and column, and outranks a
  // non-finite sample earlier in the file.
  auto bad_number = ParseEmgCsv(
      "# sample_rate_hz=1000\nbiceps,triceps\nnan,2\n# x\n3,4q\n");
  ASSERT_FALSE(bad_number.ok());
  EXPECT_NE(bad_number.status().message().find("row 1, column 1"),
            std::string::npos)
      << bad_number.status();
  // A malformed row anywhere outranks a bad channel name.
  auto ragged = ParseEmgCsv(
      "# sample_rate_hz=1000\nbiceps,nose\n1,2\n3\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_NE(ragged.status().message().find("fields, expected"),
            std::string::npos)
      << ragged.status();
}

TEST(EmgIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/emg_io_test.csv";
  EmgRecording original = MakeRecording();
  ASSERT_TRUE(WriteEmgCsvFile(original, path).ok());
  auto loaded = ReadEmgCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_samples(), original.num_samples());
  std::remove(path.c_str());
}

TEST(EmgIoTest, MissingFileIsError) {
  EXPECT_FALSE(ReadEmgCsvFile("/no/such/emg.csv").ok());
}

}  // namespace
}  // namespace mocemg
