/// Robustness sweep over the hand-rolled parsers: every parser must turn
/// arbitrary mutations of valid inputs into clean Status errors (or a
/// successful parse) — never crash, hang, or propagate NaNs silently.
/// This is the cheap seeded stand-in for a fuzzer in environments
/// without libFuzzer.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/model_io.h"
#include "db/motion_database.h"
#include "emg/emg_io.h"
#include "eval/protocols.h"
#include "mocap/trc_io.h"
#include "synth/dataset.h"
#include "util/csv.h"
#include "util/random.h"

namespace mocemg {
namespace {

// Applies `count` random single-character mutations (replace, delete,
// insert, truncate) to a copy of `input`.
std::string Mutate(const std::string& input, int count, Rng* rng) {
  std::string s = input;
  for (int i = 0; i < count && !s.empty(); ++i) {
    const size_t at = static_cast<size_t>(rng->NextBelow(s.size()));
    switch (rng->NextBelow(4)) {
      case 0:
        s[at] = static_cast<char>(rng->UniformInt(32, 126));
        break;
      case 1:
        s.erase(at, 1);
        break;
      case 2:
        s.insert(at, 1, static_cast<char>(rng->UniformInt(32, 126)));
        break;
      default:
        s.resize(at);
        break;
    }
  }
  return s;
}

// Whatever a parser accepts must be rectangular and finite.
void ExpectRectangularAndFinite(const MotionSequence& motion) {
  const Matrix& p = motion.positions();
  EXPECT_EQ(p.cols(), 3 * motion.num_markers());
  ASSERT_EQ(p.size(), p.rows() * p.cols());
  for (double v : p.data()) ASSERT_TRUE(std::isfinite(v));
}

void ExpectRectangularAndFinite(const EmgRecording& recording) {
  for (size_t c = 0; c < recording.num_channels(); ++c) {
    const std::vector<double>& channel = recording.channel(c);
    ASSERT_EQ(channel.size(), recording.num_samples());
    for (double v : channel) ASSERT_TRUE(std::isfinite(v));
  }
}

class ParserRobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetOptions opts;
    opts.limb = Limb::kRightHand;
    opts.trials_per_class = 1;
    opts.seed = 31;
    auto data = GenerateDataset(opts);
    ASSERT_TRUE(data.ok());
    trc_text_ = new std::string(WriteTrc((*data)[0].mocap));
    emg_text_ = new std::string(WriteEmgCsv((*data)[0].emg_raw));

    ClassifierOptions copts;
    copts.fcm.num_clusters = 4;
    auto clf =
        MotionClassifier::Train(ToLabeledMotions(std::move(*data)), copts);
    ASSERT_TRUE(clf.ok());
    model_text_ = new std::string(*SerializeClassifier(*clf));
  }
  static void TearDownTestSuite() {
    delete trc_text_;
    delete emg_text_;
    delete model_text_;
    trc_text_ = emg_text_ = model_text_ = nullptr;
  }

  static std::string* trc_text_;
  static std::string* emg_text_;
  static std::string* model_text_;
};

std::string* ParserRobustnessTest::trc_text_ = nullptr;
std::string* ParserRobustnessTest::emg_text_ = nullptr;
std::string* ParserRobustnessTest::model_text_ = nullptr;

TEST_F(ParserRobustnessTest, TrcSurvivesMutations) {
  Rng rng(100);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string mutated =
        Mutate(*trc_text_, 1 + static_cast<int>(rng.NextBelow(8)), &rng);
    auto parsed = ParseTrc(mutated);  // must not crash
    if (parsed.ok()) ExpectRectangularAndFinite(*parsed);
  }
}

TEST_F(ParserRobustnessTest, EmgCsvSurvivesMutations) {
  Rng rng(200);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string mutated =
        Mutate(*emg_text_, 1 + static_cast<int>(rng.NextBelow(8)), &rng);
    auto parsed = ParseEmgCsv(mutated);
    if (parsed.ok()) {
      EXPECT_GT(parsed->sample_rate_hz(), 0.0);
      EXPECT_TRUE(parsed->Validate().ok() ||
                  parsed->num_samples() == 0);
      ExpectRectangularAndFinite(*parsed);
    }
  }
}

TEST_F(ParserRobustnessTest, ModelSurvivesMutations) {
  Rng rng(300);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string mutated = Mutate(
        *model_text_, 1 + static_cast<int>(rng.NextBelow(10)), &rng);
    auto parsed = DeserializeClassifier(mutated);
    if (parsed.ok()) {
      EXPECT_GT(parsed->num_motions(), 0u);
      EXPECT_GT(parsed->codebook().num_clusters(), 0u);
    }
  }
}

TEST_F(ParserRobustnessTest, DatabaseCsvSurvivesMutations) {
  MotionDatabase db;
  for (int i = 0; i < 5; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = static_cast<size_t>(i % 2);
    r.label_name = "c" + std::to_string(r.label);
    r.feature = {0.1 * i, 0.2 * i, 0.3};
    ASSERT_TRUE(db.Insert(std::move(r)).ok());
  }
  const std::string path = ::testing::TempDir() + "/robust_db.csv";
  ASSERT_TRUE(db.SaveCsv(path).ok());
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  Rng rng(400);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string mutated =
        Mutate(*text, 1 + static_cast<int>(rng.NextBelow(6)), &rng);
    const std::string mpath = ::testing::TempDir() + "/robust_db_m.csv";
    ASSERT_TRUE(WriteStringToFile(mpath, mutated).ok());
    auto parsed = MotionDatabase::LoadCsv(mpath);
    if (parsed.ok() && !parsed->empty()) {
      EXPECT_GT(parsed->feature_dimension(), 0u);
    }
  }
  std::remove(path.c_str());
}

TEST_F(ParserRobustnessTest, TrcRejectsNonFiniteCoordinates) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "INFINITY"}) {
    std::string text = *trc_text_;
    // Replace the first coordinate of the last data row.
    const size_t row_start = text.rfind('\n', text.size() - 2) + 1;
    size_t field = text.find('\t', row_start);       // after Frame#
    field = text.find('\t', field + 1) + 1;          // after Time
    const size_t field_end = text.find('\t', field);
    text.replace(field, field_end - field, bad);
    auto parsed = ParseTrc(text);
    ASSERT_FALSE(parsed.ok()) << "accepted coordinate '" << bad << "'";
    EXPECT_NE(parsed.status().message().find("non-finite"),
              std::string::npos)
        << parsed.status();
  }
}

TEST_F(ParserRobustnessTest, TrcRejectsTruncatedFinalRow) {
  std::string text = *trc_text_;
  // Cut the last data row in half (mid-write truncation).
  const size_t row_start = text.rfind('\n', text.size() - 2) + 1;
  text.resize(row_start + (text.size() - row_start) / 2);
  auto parsed = ParseTrc(text);
  ASSERT_FALSE(parsed.ok());
  // Either the short row or the frame-count cross-check must fire.
  EXPECT_TRUE(
      parsed.status().message().find("truncated") != std::string::npos ||
      parsed.status().message().find("frames") != std::string::npos)
      << parsed.status();
}

TEST_F(ParserRobustnessTest, EmgCsvRejectsNonFiniteSamples) {
  for (const char* bad : {"nan", "inf", "-inf"}) {
    std::string text = *emg_text_;
    const size_t row_start = text.rfind('\n', text.size() - 2) + 1;
    const size_t field_end = text.find(',', row_start);
    text.replace(row_start, field_end - row_start, bad);
    auto parsed = ParseEmgCsv(text);
    ASSERT_FALSE(parsed.ok()) << "accepted sample '" << bad << "'";
    EXPECT_NE(parsed.status().message().find("non-finite"),
              std::string::npos)
        << parsed.status();
  }
}

TEST_F(ParserRobustnessTest, EmgCsvRejectsTruncatedFinalRow) {
  std::string text = *emg_text_;
  const size_t row_start = text.rfind('\n', text.size() - 2) + 1;
  const size_t last_comma = text.rfind(',');
  ASSERT_GT(last_comma, row_start);
  text.resize(last_comma);  // drop the final field entirely
  auto parsed = ParseEmgCsv(text);
  ASSERT_FALSE(parsed.ok());
  // The CSV layer reports the short row by line number; either its
  // width message or the parser's truncation hint must surface.
  EXPECT_TRUE(
      parsed.status().message().find("truncated") != std::string::npos ||
      parsed.status().message().find("fields, expected") !=
          std::string::npos)
      << parsed.status();
}

TEST_F(ParserRobustnessTest, EmgCsvRejectsNonFiniteSampleRate) {
  auto parsed = ParseEmgCsv("# sample_rate_hz=inf\nbiceps\n1e-5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("finite"), std::string::npos)
      << parsed.status();
}

TEST_F(ParserRobustnessTest, HostileInputsRejectedCleanly) {
  // Deliberately nasty strings through every parser.
  const std::string nasties[] = {
      "",
      "\n\n\n",
      std::string(1 << 16, 'A'),
      "PathFileType\t4\t(X/Y/Z)\tx\nDataRate\n1e999\n",
      "# sample_rate_hz=1e999\nbiceps\n1\n",
      "MOCEMGM1\nwindow_ms\tNaN\n",
      std::string("\0\0\0\0", 4),
      "motion\t-1\tx\t1",
  };
  for (const auto& s : nasties) {
    (void)ParseTrc(s);
    (void)ParseEmgCsv(s);
    (void)DeserializeClassifier(s);
    (void)CsvTable::FromString(s);
  }
  SUCCEED();
}

}  // namespace
}  // namespace mocemg
