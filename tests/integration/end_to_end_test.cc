/// End-to-end integration: the full paper pipeline from simulated lab
/// capture through retrieval, exercising every substrate together —
/// synth → acquisition → local transform → IAV ⊕ weighted SVD → FCM →
/// final features → database/index → classification.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/classifier.h"
#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "emg/acquisition.h"
#include "emg/emg_io.h"
#include "eval/protocols.h"
#include "mocap/trc_io.h"
#include "synth/dataset.h"

namespace mocemg {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetOptions opts;
    opts.limb = Limb::kRightHand;
    opts.trials_per_class = 6;
    opts.seed = 777;
    data_ = new std::vector<CapturedMotion>(*GenerateDataset(opts));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static std::vector<CapturedMotion>* data_;
};

std::vector<CapturedMotion>* EndToEndTest::data_ = nullptr;

TEST_F(EndToEndTest, FullPipelineHoldOutClassification) {
  // Hold out the last trial of each class as queries.
  std::vector<LabeledMotion> train;
  std::vector<const CapturedMotion*> queries;
  for (const auto& m : *data_) {
    if (m.trial == 5) {
      queries.push_back(&m);
    } else {
      LabeledMotion lm;
      lm.mocap = m.mocap;
      lm.emg = m.emg_raw;
      lm.label = m.class_id;
      lm.label_name = m.class_name;
      train.push_back(std::move(lm));
    }
  }
  ASSERT_EQ(queries.size(), 6u);

  ClassifierOptions opts;
  opts.fcm.num_clusters = 12;
  opts.fcm.seed = 99;
  opts.features.window_ms = 100.0;
  auto clf = MotionClassifier::Train(train, opts);
  ASSERT_TRUE(clf.ok()) << clf.status();

  size_t correct = 0;
  for (const CapturedMotion* q : queries) {
    auto label = clf->Classify(q->mocap, q->emg_raw);
    ASSERT_TRUE(label.ok()) << label.status();
    if (*label == q->class_id) ++correct;
  }
  // The paper reports 10–20 % error on real data; the simulated rig
  // should classify a clear majority of 6 held-out motions correctly.
  EXPECT_GE(correct, 4u);
}

TEST_F(EndToEndTest, DatabaseAndIndexAgreeOnRetrieval) {
  ClassifierOptions opts;
  opts.fcm.num_clusters = 10;
  opts.fcm.seed = 41;
  std::vector<LabeledMotion> train;
  for (const auto& m : *data_) {
    LabeledMotion lm;
    lm.mocap = m.mocap;
    lm.emg = m.emg_raw;
    lm.label = m.class_id;
    lm.label_name = m.class_name;
    train.push_back(std::move(lm));
  }
  auto clf = MotionClassifier::Train(train, opts);
  ASSERT_TRUE(clf.ok());

  // Export final features into the retrieval database.
  MotionDatabase db;
  for (size_t i = 0; i < clf->num_motions(); ++i) {
    MotionRecord rec;
    rec.name = clf->label_names()[i] + "/" + std::to_string(i);
    rec.label = clf->labels()[i];
    rec.label_name = clf->label_names()[i];
    rec.feature = clf->final_features().Row(i);
    ASSERT_TRUE(db.Insert(std::move(rec)).ok());
  }
  auto index = ShardedFeatureIndex::Build(&db);
  ASSERT_TRUE(index.ok());

  const CapturedMotion& q = (*data_)[7];
  auto feature = clf->Featurize(q.mocap, q.emg_raw);
  ASSERT_TRUE(feature.ok());
  auto linear = db.NearestNeighbors(*feature, 5);
  auto indexed = index->NearestNeighbors(*feature, 5);
  ASSERT_TRUE(linear.ok());
  ASSERT_TRUE(indexed.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*linear)[i].record_index, (*indexed)[i].record_index);
  }
  // The query is a training motion: its own record must top the list.
  EXPECT_EQ(db.record((*linear)[0].record_index).label, q.class_id);
}

TEST_F(EndToEndTest, CaptureSurvivesSerializationRoundTrip) {
  // Lab workflow: capture → export TRC + EMG CSV → re-import →
  // identical classification result.
  const CapturedMotion& m = (*data_)[0];
  const std::string trc_path = ::testing::TempDir() + "/e2e_motion.trc";
  const std::string emg_path = ::testing::TempDir() + "/e2e_emg.csv";
  ASSERT_TRUE(WriteTrcFile(m.mocap, trc_path).ok());
  ASSERT_TRUE(WriteEmgCsvFile(m.emg_raw, emg_path).ok());

  auto mocap = ReadTrcFile(trc_path);
  auto emg = ReadEmgCsvFile(emg_path);
  ASSERT_TRUE(mocap.ok()) << mocap.status();
  ASSERT_TRUE(emg.ok()) << emg.status();

  std::vector<LabeledMotion> train;
  for (const auto& cm : *data_) {
    LabeledMotion lm;
    lm.mocap = cm.mocap;
    lm.emg = cm.emg_raw;
    lm.label = cm.class_id;
    lm.label_name = cm.class_name;
    train.push_back(std::move(lm));
  }
  ClassifierOptions opts;
  opts.fcm.num_clusters = 8;
  opts.fcm.seed = 7;
  auto clf = MotionClassifier::Train(train, opts);
  ASSERT_TRUE(clf.ok());

  auto direct = clf->Featurize(m.mocap, m.emg_raw);
  auto roundtrip = clf->Featurize(*mocap, *emg);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(roundtrip.ok());
  ASSERT_EQ(direct->size(), roundtrip->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    // TRC stores 5 decimals of a mm; features must be stable well past
    // any classification-relevant tolerance.
    EXPECT_NEAR((*direct)[i], (*roundtrip)[i], 1e-3);
  }
  std::remove(trc_path.c_str());
  std::remove(emg_path.c_str());
}

TEST_F(EndToEndTest, AcquisitionChainMatchesPaperRates) {
  const CapturedMotion& m = (*data_)[0];
  EXPECT_DOUBLE_EQ(m.emg_raw.sample_rate_hz(), 1000.0);
  auto conditioned = ConditionRecording(m.emg_raw);
  ASSERT_TRUE(conditioned.ok());
  EXPECT_DOUBLE_EQ(conditioned->sample_rate_hz(), 120.0);
  EXPECT_DOUBLE_EQ(m.mocap.frame_rate_hz(), 120.0);
  // Frame-aligned within resampler slack.
  const double frames = static_cast<double>(m.mocap.num_frames());
  const double samples = static_cast<double>(conditioned->num_samples());
  EXPECT_NEAR(frames, samples, 6.0);
}

TEST_F(EndToEndTest, SyncJitterDegradesGracefully) {
  // With a grossly desynchronized EMG stream the pipeline still runs
  // (features use the stream overlap) — the quality cost is measured in
  // bench/abl6; here we assert no crash and a valid feature vector.
  DatasetOptions opts;
  opts.limb = Limb::kRightHand;
  opts.trials_per_class = 1;
  opts.seed = 12;
  opts.trigger.emg_latency_ms = 200.0;
  opts.trigger.jitter_ms = 30.0;
  auto data = GenerateDataset(opts);
  ASSERT_TRUE(data.ok());
  std::vector<LabeledMotion> train = ToLabeledMotions(std::move(*data));
  ClassifierOptions copts;
  copts.fcm.num_clusters = 4;
  auto clf = MotionClassifier::Train(train, copts);
  ASSERT_TRUE(clf.ok()) << clf.status();
  for (size_t i = 0; i < clf->final_features().rows(); ++i) {
    for (double v : clf->final_features().Row(i)) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

}  // namespace
}  // namespace mocemg
