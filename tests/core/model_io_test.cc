#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "eval/protocols.h"
#include "synth/dataset.h"

namespace mocemg {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetOptions opts;
    opts.limb = Limb::kRightHand;
    opts.trials_per_class = 3;
    opts.seed = 4242;
    motions_ = new std::vector<LabeledMotion>(
        ToLabeledMotions(*GenerateDataset(opts)));
    ClassifierOptions copts;
    copts.fcm.num_clusters = 8;
    copts.fcm.seed = 17;
    trained_ = new MotionClassifier(
        *MotionClassifier::Train(*motions_, copts));
  }
  static void TearDownTestSuite() {
    delete motions_;
    delete trained_;
    motions_ = nullptr;
    trained_ = nullptr;
  }
  static std::vector<LabeledMotion>* motions_;
  static MotionClassifier* trained_;
};

std::vector<LabeledMotion>* ModelIoTest::motions_ = nullptr;
MotionClassifier* ModelIoTest::trained_ = nullptr;

TEST_F(ModelIoTest, SerializeRejectsUntrained) {
  MotionClassifier empty;
  EXPECT_FALSE(SerializeClassifier(empty).ok());
}

TEST_F(ModelIoTest, RoundTripPreservesModelShape) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok()) << text.status();
  auto loaded = DeserializeClassifier(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_motions(), trained_->num_motions());
  EXPECT_EQ(loaded->codebook().num_clusters(),
            trained_->codebook().num_clusters());
  EXPECT_EQ(loaded->codebook().dimension(),
            trained_->codebook().dimension());
  EXPECT_EQ(loaded->labels(), trained_->labels());
  EXPECT_EQ(loaded->label_names(), trained_->label_names());
  EXPECT_TRUE(loaded->final_features().AllClose(
      trained_->final_features(), 1e-10));
}

TEST_F(ModelIoTest, LoadedModelFeaturizesIdentically) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  auto loaded = DeserializeClassifier(*text);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < motions_->size(); i += 5) {
    const LabeledMotion& m = (*motions_)[i];
    auto a = trained_->Featurize(m.mocap, m.emg);
    auto b = loaded->Featurize(m.mocap, m.emg);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(a->size(), b->size());
    for (size_t j = 0; j < a->size(); ++j) {
      EXPECT_NEAR((*a)[j], (*b)[j], 1e-9);
    }
    auto la = trained_->Classify(m.mocap, m.emg);
    auto lb = loaded->Classify(m.mocap, m.emg);
    ASSERT_TRUE(la.ok());
    ASSERT_TRUE(lb.ok());
    EXPECT_EQ(*la, *lb);
  }
}

TEST_F(ModelIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/model_io_test.model";
  ASSERT_TRUE(SaveClassifier(*trained_, path).ok());
  auto loaded = LoadClassifier(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_motions(), trained_->num_motions());
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeClassifier("NOTAMODEL\n").ok());
}

TEST_F(ModelIoTest, RejectsTruncation) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  // Chop the model at 60 %: must fail cleanly, not crash.
  auto truncated = text->substr(0, text->size() * 3 / 5);
  auto loaded = DeserializeClassifier(truncated);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError());
}

TEST_F(ModelIoTest, RejectsCorruptedNumbers) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  std::string corrupted = *text;
  const size_t pos = corrupted.find("center\t");
  ASSERT_NE(pos, std::string::npos);
  corrupted.replace(pos + 7, 3, "xyz");
  EXPECT_FALSE(DeserializeClassifier(corrupted).ok());
}

TEST_F(ModelIoTest, RoundTripOfHardClusterModel) {
  ClassifierOptions copts;
  copts.fcm.num_clusters = 6;
  copts.cluster_method = ClusterMethod::kKmeansHard;
  auto clf = MotionClassifier::Train(*motions_, copts);
  ASSERT_TRUE(clf.ok());
  auto text = SerializeClassifier(*clf);
  ASSERT_TRUE(text.ok());
  auto loaded = DeserializeClassifier(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const LabeledMotion& m = (*motions_)[0];
  auto a = clf->Featurize(m.mocap, m.emg);
  auto b = loaded->Featurize(m.mocap, m.emg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t j = 0; j < a->size(); ++j) {
    EXPECT_NEAR((*a)[j], (*b)[j], 1e-9);
  }
}

// The serialized model with the value of `key` replaced by `value`.
std::string WithField(const std::string& text, const std::string& key,
                      const std::string& value) {
  const size_t start = text.find("\n" + key + "\t");
  EXPECT_NE(start, std::string::npos) << key;
  const size_t from = start + key.size() + 2;
  const size_t end = text.find('\n', from);
  return text.substr(0, from) + value + text.substr(end);
}

// Loads the model with `key` set to each of `values`; every one must be a
// ParseError, and the unchanged value must still load.
void ExpectFieldRejected(const std::string& text, const std::string& key,
                         std::initializer_list<const char*> values) {
  for (const char* value : values) {
    const auto loaded = DeserializeClassifier(WithField(text, key, value));
    ASSERT_FALSE(loaded.ok()) << key << " = " << value;
    EXPECT_TRUE(loaded.status().IsParseError())
        << key << " = " << value << ": " << loaded.status();
  }
}

TEST_F(ModelIoTest, RejectsMalformedHopFrames) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(DeserializeClassifier(WithField(*text, "hop_frames", "3")).ok());
  ExpectFieldRejected(
      *text, "hop_frames",
      {"-1", "2.5", "1e300", "nan", "inf", "99999999999999999999"});
}

TEST_F(ModelIoTest, RejectsMalformedFilterOrder) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  ExpectFieldRejected(*text, "filter_order",
                      {"0", "-4", "4.5", "4e0", "nan", "3000000000"});
}

TEST_F(ModelIoTest, RejectsMalformedDim) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  ExpectFieldRejected(*text, "dim",
                      {"0", "-3", "2.5", "nan", "1e18", "4611686018427387904"});
}

TEST_F(ModelIoTest, RejectsMalformedClusters) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  ExpectFieldRejected(*text, "clusters",
                      {"0", "-8", "8.5", "inf", "1e300", "100000000000"});
}

TEST_F(ModelIoTest, RejectsNonFiniteBandLow) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  ExpectFieldRejected(*text, "band_low_hz", {"nan", "inf", "-inf"});
}

TEST_F(ModelIoTest, RejectsNonFiniteBandHigh) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  ExpectFieldRejected(*text, "band_high_hz", {"nan", "inf", "-inf"});
}

TEST_F(ModelIoTest, RejectsMotionTableLargerThanText) {
  auto text = SerializeClassifier(*trained_);
  ASSERT_TRUE(text.ok());
  ExpectFieldRejected(*text, "motions",
                      {"1000000000000\t3", "3\t1000000000000"});
}

TEST_F(ModelIoTest, MissingModelFileFails) {
  EXPECT_FALSE(LoadClassifier("/no/such/model.file").ok());
}

}  // namespace
}  // namespace mocemg
