/// Bit-identity of the parallelized pipeline stages: every stage that
/// took a ParallelOptions knob in the performance pass must produce the
/// same bits at max_threads 1, 2, and 8. These run under tsan in
/// tools/run_sanitized_tests.sh, so they double as the data-race proof
/// for the shared pool.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/fcm.h"
#include "core/classifier.h"
#include "core/window_features.h"
#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "emg/acquisition.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace mocemg {
namespace {

const std::vector<size_t> kThreadCounts = {1, 2, 8};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetOptions opts;
    opts.limb = Limb::kRightHand;
    opts.trials_per_class = 3;
    opts.seed = 2024;
    data_ = new std::vector<CapturedMotion>(*GenerateDataset(opts));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static std::vector<CapturedMotion>* data_;
};

std::vector<CapturedMotion>* ParallelDeterminismTest::data_ = nullptr;

void ExpectBitIdentical(const Matrix& a, const Matrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  const auto& da = a.data();
  const auto& db = b.data();
  for (size_t i = 0; i < da.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — bit identity (no two
    // distinct doubles compare equal except ±0, which is fine here).
    ASSERT_EQ(da[i], db[i]) << what << " differs at flat index " << i;
  }
}

TEST_F(ParallelDeterminismTest, WindowFeaturesBitIdentical) {
  const CapturedMotion& m = (*data_)[0];
  AcquisitionOptions acq;
  acq.output_rate_hz = m.mocap.frame_rate_hz();
  auto emg = ConditionRecording(m.emg_raw, acq);
  ASSERT_TRUE(emg.ok()) << emg.status();

  WindowFeatureOptions base;
  base.window_ms = 100.0;
  auto reference = ExtractWindowFeatures(m.mocap, *emg, base);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (size_t threads : kThreadCounts) {
    WindowFeatureOptions opts = base;
    opts.parallel.max_threads = threads;
    auto features = ExtractWindowFeatures(m.mocap, *emg, opts);
    ASSERT_TRUE(features.ok()) << features.status();
    ExpectBitIdentical(reference->points, features->points,
                       "window features");
  }
}

TEST_F(ParallelDeterminismTest, FcmFitBitIdentical) {
  // A point cloud large enough that chunk partials actually differ in
  // association order if the combine were thread-dependent.
  Rng rng(7);
  Matrix points(600, 8);
  for (double& v : points.mutable_data()) v = rng.NextDouble() * 10.0;

  FcmOptions base;
  base.num_clusters = 9;
  base.restarts = 2;
  base.max_iterations = 40;
  auto reference = FitFcm(points, base);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (size_t threads : kThreadCounts) {
    FcmOptions opts = base;
    opts.parallel.max_threads = threads;
    auto model = FitFcm(points, opts);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->iterations, reference->iterations);
    ExpectBitIdentical(reference->centers, model->centers, "FCM centers");
    ExpectBitIdentical(reference->memberships, model->memberships,
                       "FCM memberships");
    ASSERT_EQ(model->objective_history.size(),
              reference->objective_history.size());
    for (size_t i = 0; i < model->objective_history.size(); ++i) {
      EXPECT_EQ(model->objective_history[i],
                reference->objective_history[i]);
    }
  }
}

TEST_F(ParallelDeterminismTest, BatchKnnMatchesSerialQueries) {
  Rng rng(99);
  MotionDatabase db;
  const size_t dim = 16;
  for (size_t i = 0; i < 400; ++i) {
    MotionRecord rec;
    rec.name = "r" + std::to_string(i);
    rec.label = i % 5;
    rec.feature.resize(dim);
    for (double& v : rec.feature) v = rng.NextDouble();
    ASSERT_TRUE(db.Insert(std::move(rec)).ok());
  }
  std::vector<std::vector<double>> queries(50,
                                           std::vector<double>(dim));
  for (auto& q : queries) {
    for (double& v : q) v = rng.NextDouble();
  }

  for (size_t threads : kThreadCounts) {
    ShardedIndexOptions opts;
    opts.index.parallel.max_threads = threads;
    auto index = ShardedFeatureIndex::Build(&db, opts);
    ASSERT_TRUE(index.ok()) << index.status();
    auto batch = index->BatchNearestNeighbors(queries, 5);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto single = index->NearestNeighbors(queries[q], 5);
      ASSERT_TRUE(single.ok());
      ASSERT_EQ((*batch)[q].size(), single->size());
      for (size_t i = 0; i < single->size(); ++i) {
        EXPECT_EQ((*batch)[q][i].record_index,
                  (*single)[i].record_index);
        EXPECT_EQ((*batch)[q][i].distance, (*single)[i].distance);
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, TrainedModelBitIdentical) {
  std::vector<LabeledMotion> train;
  for (const auto& m : *data_) {
    LabeledMotion lm;
    lm.mocap = m.mocap;
    lm.emg = m.emg_raw;
    lm.label = m.class_id;
    lm.label_name = m.class_name;
    train.push_back(std::move(lm));
  }
  ClassifierOptions base;
  base.fcm.num_clusters = 6;
  base.fcm.seed = 5;
  auto reference = MotionClassifier::Train(train, base);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (size_t threads : kThreadCounts) {
    ClassifierOptions opts = base;
    // Exercise every parallel site in the training path at once: the
    // trial-level loops, window featurization, and the FCM fit.
    opts.parallel.max_threads = threads;
    opts.features.parallel.max_threads = threads;
    opts.fcm.parallel.max_threads = threads;
    auto clf = MotionClassifier::Train(train, opts);
    ASSERT_TRUE(clf.ok()) << clf.status();
    ExpectBitIdentical(reference->final_features(),
                       clf->final_features(), "final features");
    ExpectBitIdentical(reference->codebook().centers(),
                       clf->codebook().centers(), "codebook centers");
  }
}

TEST_F(ParallelDeterminismTest, ClassifyBatchMatchesSerialClassify) {
  std::vector<LabeledMotion> train;
  for (const auto& m : *data_) {
    LabeledMotion lm;
    lm.mocap = m.mocap;
    lm.emg = m.emg_raw;
    lm.label = m.class_id;
    lm.label_name = m.class_name;
    train.push_back(std::move(lm));
  }
  ClassifierOptions copts;
  copts.fcm.num_clusters = 6;
  auto clf = MotionClassifier::Train(train, copts);
  ASSERT_TRUE(clf.ok()) << clf.status();

  std::vector<size_t> serial;
  for (const auto& lm : train) {
    auto label = clf->Classify(lm.mocap, lm.emg);
    ASSERT_TRUE(label.ok()) << label.status();
    serial.push_back(*label);
  }
  for (size_t threads : kThreadCounts) {
    ParallelOptions par;
    par.max_threads = threads;
    auto batch = clf->ClassifyBatch(train, par);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ((*batch)[i], serial[i]) << "trial " << i;
    }
  }
}

TEST_F(ParallelDeterminismTest, ClassifyBatchSurfacesTrialErrors) {
  std::vector<LabeledMotion> train;
  for (const auto& m : *data_) {
    LabeledMotion lm;
    lm.mocap = m.mocap;
    lm.emg = m.emg_raw;
    lm.label = m.class_id;
    lm.label_name = m.class_name;
    train.push_back(std::move(lm));
  }
  ClassifierOptions copts;
  copts.fcm.num_clusters = 6;
  auto clf = MotionClassifier::Train(train, copts);
  ASSERT_TRUE(clf.ok()) << clf.status();

  std::vector<LabeledMotion> bad = train;
  bad[1].emg = EmgRecording();  // empty stream → featurization fails
  auto batch = clf->ClassifyBatch(bad);
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.status().message().find("batch trial 1"),
            std::string::npos)
      << batch.status();
}

}  // namespace
}  // namespace mocemg
