#include "mocap/trc_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace mocemg {
namespace {

MotionSequence MakeMotion() {
  MarkerSet set({Segment::kPelvis, Segment::kHand});
  Matrix positions(3, 6);
  for (size_t f = 0; f < 3; ++f) {
    for (size_t c = 0; c < 6; ++c) {
      positions(f, c) = static_cast<double>(f * 10 + c) + 0.25;
    }
  }
  return *MotionSequence::Create(set, std::move(positions), 120.0);
}

TEST(TrcIoTest, RoundTripPreservesData) {
  MotionSequence original = MakeMotion();
  const std::string text = WriteTrc(original);
  auto parsed = ParseTrc(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_frames(), 3u);
  EXPECT_EQ(parsed->num_markers(), 2u);
  EXPECT_DOUBLE_EQ(parsed->frame_rate_hz(), 120.0);
  EXPECT_TRUE(parsed->positions().AllClose(original.positions(), 1e-4));
  EXPECT_EQ(parsed->marker_set().segments()[1], Segment::kHand);
}

TEST(TrcIoTest, CrlfLineEndingsParseLikeLf) {
  const std::string lf = WriteTrc(MakeMotion());
  std::string crlf;
  for (char ch : lf) {
    if (ch == '\n') crlf.push_back('\r');
    crlf.push_back(ch);
  }
  auto a = ParseTrc(lf);
  auto b = ParseTrc(crlf);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->positions().data(), b->positions().data());
  EXPECT_EQ(a->marker_set().segments(), b->marker_set().segments());
}

TEST(TrcIoTest, FileWithoutSubHeaderStartsDataOnLineFive) {
  const std::string text = WriteTrc(MakeMotion());
  // Drop line 5, the X1 Y1 Z1 ... sub-header.
  size_t line5 = 0;
  for (int i = 0; i < 4; ++i) line5 = text.find('\n', line5) + 1;
  std::string no_sub = text;
  no_sub.erase(line5, text.find('\n', line5) + 1 - line5);
  ASSERT_EQ(no_sub.substr(line5, 2), "1\t");
  auto a = ParseTrc(text);
  auto b = ParseTrc(no_sub);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->num_frames(), 3u);
  EXPECT_EQ(a->positions().data(), b->positions().data());
}

TEST(TrcIoTest, RejectsNonTrc) {
  EXPECT_TRUE(ParseTrc("hello world\n").status().IsParseError());
}

TEST(TrcIoTest, RejectsUnknownMarkerName) {
  MotionSequence m = MakeMotion();
  std::string text = WriteTrc(m);
  size_t pos = text.find("hand");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "blob");
  EXPECT_FALSE(ParseTrc(text).ok());
}

TEST(TrcIoTest, RejectsFrameCountMismatch) {
  MotionSequence m = MakeMotion();
  std::string text = WriteTrc(m);
  // Drop the last data line.
  const size_t last_newline = text.find_last_of('\n', text.size() - 2);
  text.resize(last_newline + 1);
  auto parsed = ParseTrc(text);
  EXPECT_FALSE(parsed.ok());
}

TEST(TrcIoTest, MetersConvertedToMillimetres) {
  MotionSequence m = MakeMotion();
  std::string text = WriteTrc(m);
  const size_t pos = text.find("\tmm\t");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "\tm\t");
  auto parsed = ParseTrc(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_NEAR(parsed->MarkerPosition(0, 0)[0],
              m.MarkerPosition(0, 0)[0] * 1000.0, 1e-1);
}

TEST(TrcIoTest, RejectsUnsupportedUnits) {
  MotionSequence m = MakeMotion();
  std::string text = WriteTrc(m);
  const size_t pos = text.find("\tmm\t");
  text.replace(pos, 4, "\tin\t");
  EXPECT_FALSE(ParseTrc(text).ok());
}

TEST(TrcIoTest, RejectsTruncatedHeader) {
  EXPECT_FALSE(ParseTrc("PathFileType\t4\t(X/Y/Z)\tx\n").ok());
}

TEST(TrcIoTest, RejectsShortDataRow) {
  MotionSequence m = MakeMotion();
  std::string text = WriteTrc(m);
  text += "4\t0.025\t1.0\n";  // row with too few coordinates
  EXPECT_FALSE(ParseTrc(text).ok());
}

TEST(TrcIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/trc_test.trc";
  MotionSequence m = MakeMotion();
  ASSERT_TRUE(WriteTrcFile(m, path).ok());
  auto loaded = ReadTrcFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->positions().AllClose(m.positions(), 1e-4));
  std::remove(path.c_str());
}

TEST(TrcIoTest, MissingFileIsError) {
  EXPECT_FALSE(ReadTrcFile("/no/such/file.trc").ok());
}

}  // namespace
}  // namespace mocemg
