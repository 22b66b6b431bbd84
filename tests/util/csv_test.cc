#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace mocemg {
namespace {

TEST(CsvTest, ParseWithHeader) {
  auto table = CsvTable::FromString("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->num_columns(), 3u);
  EXPECT_EQ(table->rows()[1][2], "6");
}

TEST(CsvTest, ParseWithoutHeader) {
  CsvOptions opts;
  opts.has_header = false;
  auto table = CsvTable::FromString("1,2\n3,4\n", opts);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->header().empty());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  auto table =
      CsvTable::FromString("# meta\na,b\n\n# more\n1,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(CsvTest, QuotedFieldsWithDelimiterAndEscapes) {
  auto table = CsvTable::FromString(
      "name,notes\n\"walk, fast\",\"said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows()[0][0], "walk, fast");
  EXPECT_EQ(table->rows()[0][1], "said \"hi\"");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  auto table = CsvTable::FromString("a\n\"oops\n");
  EXPECT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsParseError());
}

TEST(CsvTest, RaggedRowsRejectedByDefault) {
  auto table = CsvTable::FromString("a,b\n1,2\n3\n");
  EXPECT_FALSE(table.ok());
}

TEST(CsvTest, RaggedRowsAllowedWhenOpted) {
  CsvOptions opts;
  opts.allow_ragged_rows = true;
  auto table = CsvTable::FromString("a,b\n1,2\n3\n", opts);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvTest, ColumnIndex) {
  auto table = CsvTable::FromString("x,y,z\n1,2,3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->ColumnIndex("y"), 1u);
  EXPECT_TRUE(table->ColumnIndex("w").status().IsNotFound());
}

TEST(CsvTest, ToNumeric) {
  auto table = CsvTable::FromString("a,b\n1.5,2\n-3,4e2\n");
  ASSERT_TRUE(table.ok());
  auto numeric = table->ToNumeric();
  ASSERT_TRUE(numeric.ok());
  EXPECT_DOUBLE_EQ((*numeric)[0][0], 1.5);
  EXPECT_DOUBLE_EQ((*numeric)[1][1], 400.0);
}

TEST(CsvTest, ToNumericFailsOnText) {
  auto table = CsvTable::FromString("a\nhello\n");
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->ToNumeric().ok());
}

TEST(CsvTest, WindowsLineEndings) {
  auto table = CsvTable::FromString("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows()[0][1], "2");
}

TEST(CsvTest, WriterQuotesWhenNeeded) {
  CsvWriter w;
  w.WriteComment("meta");
  w.WriteRow({"plain", "with,comma", "with\"quote"});
  w.WriteNumericRow({1.5, -2.0}, 2);
  const std::string out = w.str();
  EXPECT_NE(out.find("# meta\n"), std::string::npos);
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(out.find("1.50,-2.00"), std::string::npos);
}

TEST(CsvTest, WriterRoundTripsThroughParser) {
  CsvWriter w;
  w.WriteRow({"h1", "h2"});
  w.WriteRow({"a,b", "c\"d"});
  auto table = CsvTable::FromString(w.str());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows()[0][0], "a,b");
  EXPECT_EQ(table->rows()[0][1], "c\"d");
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/csv_test_rt.csv";
  CsvWriter w;
  w.WriteRow({"a", "b"});
  w.WriteNumericRow({1.0, 2.0}, 3);
  ASSERT_TRUE(w.ToFile(path).ok());
  auto table = CsvTable::FromFile(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto r = CsvTable::FromFile("/nonexistent/path.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(CsvTest, ReadWriteStringFile) {
  const std::string path = ::testing::TempDir() + "/csv_test_str.txt";
  ASSERT_TRUE(WriteStringToFile(path, "payload").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "payload");
  std::remove(path.c_str());
}

TEST(CsvTest, ReadEmptyFileGivesEmptyString) {
  const std::string path = ::testing::TempDir() + "/csv_test_empty.txt";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_TRUE(content->empty());
  std::remove(path.c_str());
}

TEST(CsvTest, ReadDirectoryIsIOError) {
  auto content = ReadFileToString(::testing::TempDir());
  ASSERT_FALSE(content.ok());
  EXPECT_TRUE(content.status().IsIOError());
}

TEST(CsvTest, QuotedFieldKeepsTextAfterClosingQuote) {
  auto table = CsvTable::FromString("a,b,c\n\"x,y\"z,\"\"\"\",\"\"\n");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows()[0].size(), 3u);
  EXPECT_EQ(table->rows()[0][0], "x,yz");
  EXPECT_EQ(table->rows()[0][1], "\"");
  EXPECT_EQ(table->rows()[0][2], "");
}

}  // namespace
}  // namespace mocemg
