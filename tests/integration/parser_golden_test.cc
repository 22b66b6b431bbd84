/// Golden check of the single-pass TRC and EMG CSV parsers against
/// independent per-cell references on generated captures: the EMG
/// channels must equal, bit for bit, the columns the generic CsvTable
/// reader produces, and the TRC positions must equal per-cell
/// ParseDouble times the unit factor.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "emg/emg_io.h"
#include "mocap/trc_io.h"
#include "synth/dataset.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace mocemg {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

std::vector<CapturedMotion> Captures() {
  std::vector<CapturedMotion> out;
  for (Limb limb : {Limb::kRightHand, Limb::kRightLeg}) {
    for (uint64_t seed : {3u, 17u, 42u}) {
      DatasetOptions opts;
      opts.limb = limb;
      opts.trials_per_class = 1;
      opts.seed = seed;
      auto data = GenerateDataset(opts);
      EXPECT_TRUE(data.ok()) << data.status();
      if (!data.ok()) continue;
      for (auto& c : *data) out.push_back(std::move(c));
    }
  }
  return out;
}

void ExpectEmgMatchesCsvTable(const std::string& text) {
  auto parsed = ParseEmgCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto table = CsvTable::FromString(text);
  ASSERT_TRUE(table.ok()) << table.status();
  auto numeric = table->ToNumeric();
  ASSERT_TRUE(numeric.ok()) << numeric.status();
  ASSERT_EQ(parsed->num_channels(), table->header().size());
  ASSERT_EQ(parsed->num_samples(), numeric->size());
  for (size_t c = 0; c < parsed->num_channels(); ++c) {
    EXPECT_EQ(MuscleName(parsed->muscles()[c]), table->header()[c]);
    const std::vector<double>& channel = parsed->channel(c);
    for (size_t r = 0; r < numeric->size(); ++r) {
      ASSERT_TRUE(SameBits(channel[r], (*numeric)[r][c]))
          << "row " << r << ", channel " << c;
    }
  }
}

void ExpectTrcMatchesPerCellParse(const std::string& text,
                                  double unit_to_mm) {
  auto parsed = ParseTrc(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const std::vector<std::string_view> lines = Split(text, '\n');
  // Five header lines, then one line per frame (and a final empty
  // string after the trailing newline).
  ASSERT_EQ(lines.size(), 5 + parsed->num_frames() + 1);
  const Matrix& positions = parsed->positions();
  ASSERT_EQ(positions.cols(), 3 * parsed->num_markers());
  for (size_t f = 0; f < parsed->num_frames(); ++f) {
    const std::vector<std::string_view> fields = Split(lines[5 + f], '\t');
    ASSERT_GE(fields.size(), 2 + positions.cols());
    for (size_t c = 0; c < positions.cols(); ++c) {
      auto v = ParseDouble(fields[2 + c]);
      ASSERT_TRUE(v.ok()) << v.status();
      ASSERT_TRUE(SameBits(positions(f, c), *v * unit_to_mm))
          << "frame " << f << ", column " << c;
    }
  }
}

TEST(ParserGoldenTest, EmgChannelsEqualCsvTableColumns) {
  for (const CapturedMotion& capture : Captures()) {
    ExpectEmgMatchesCsvTable(WriteEmgCsv(capture.emg_raw));
  }
}

TEST(ParserGoldenTest, TrcPositionsEqualPerCellParseTimesUnit) {
  for (const CapturedMotion& capture : Captures()) {
    const std::string text = WriteTrc(capture.mocap);
    ExpectTrcMatchesPerCellParse(text, 1.0);
    std::string metres = text;
    const size_t pos = metres.find("\tmm\t");
    ASSERT_NE(pos, std::string::npos);
    metres.replace(pos, 4, "\tm\t");
    ExpectTrcMatchesPerCellParse(metres, 1000.0);
  }
}

}  // namespace
}  // namespace mocemg
