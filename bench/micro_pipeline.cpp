// Microbenchmarks: text ingest (TRC and EMG CSV parsing), the
// acquisition chain (band-pass + rectify + resample), window-feature
// extraction, and end-to-end featurization of one motion — the
// per-capture costs an online application pays.

#include <benchmark/benchmark.h>

#include "core/classifier.h"
#include "core/window_features.h"
#include "emg/acquisition.h"
#include "emg/emg_io.h"
#include "eval/protocols.h"
#include "mocap/trc_io.h"
#include "synth/dataset.h"
#include "util/logging.h"

namespace mocemg {
namespace {

const CapturedMotion& SharedTrial() {
  static const CapturedMotion* trial = [] {
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.seed = 55;
    auto t = GenerateTrial(lab, 1, 0, 99);
    MOCEMG_CHECK_OK(t.status());
    return new CapturedMotion(std::move(*t));
  }();
  return *trial;
}

// Parses the shared trial's marker trajectories from TRC text.
void BM_ParseTrc(benchmark::State& state) {
  const std::string text = WriteTrc(SharedTrial().mocap);
  for (auto _ : state) {
    auto parsed = ParseTrc(text);
    MOCEMG_CHECK_OK(parsed.status());
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseTrc);

// Parses the shared trial's raw EMG from the CSV exchange format.
void BM_ParseEmgCsv(benchmark::State& state) {
  const std::string text = WriteEmgCsv(SharedTrial().emg_raw);
  for (auto _ : state) {
    auto parsed = ParseEmgCsv(text);
    MOCEMG_CHECK_OK(parsed.status());
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseEmgCsv);

void BM_ConditionRecording(benchmark::State& state) {
  const CapturedMotion& trial = SharedTrial();
  for (auto _ : state) {
    auto out = ConditionRecording(trial.emg_raw);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * trial.emg_raw.num_samples() *
      trial.emg_raw.num_channels()));
}
BENCHMARK(BM_ConditionRecording);

// Args: {window_ms, max_threads} with 0 = hardware thread budget.
void BM_WindowFeatureExtraction(benchmark::State& state) {
  const CapturedMotion& trial = SharedTrial();
  auto conditioned = ConditionRecording(trial.emg_raw);
  MOCEMG_CHECK_OK(conditioned.status());
  WindowFeatureOptions opts;
  opts.window_ms = static_cast<double>(state.range(0));
  opts.parallel.max_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto features =
        ExtractWindowFeatures(trial.mocap, *conditioned, opts);
    benchmark::DoNotOptimize(features);
  }
}
BENCHMARK(BM_WindowFeatureExtraction)
    ->ArgsProduct({{50, 100, 200}, {1, 2, 0 /*=hw*/}});

// Batch classification of a whole dataset, the shape of an evaluation
// sweep. Arg: max_threads (0 = hardware budget).
void BM_ClassifyBatch(benchmark::State& state) {
  static const MotionClassifier* clf = nullptr;
  static const std::vector<LabeledMotion>* trials = nullptr;
  if (clf == nullptr) {
    DatasetOptions lab;
    lab.limb = Limb::kRightHand;
    lab.trials_per_class = 3;
    lab.seed = 91;
    auto data = GenerateDataset(lab);
    MOCEMG_CHECK_OK(data.status());
    trials = new std::vector<LabeledMotion>(
        ToLabeledMotions(std::move(*data)));
    ClassifierOptions opts;
    opts.fcm.num_clusters = 8;
    auto trained = MotionClassifier::Train(*trials, opts);
    MOCEMG_CHECK_OK(trained.status());
    clf = new MotionClassifier(*std::move(trained));
  }
  ParallelOptions par;
  par.max_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto labels = clf->ClassifyBatch(*trials, par);
    MOCEMG_CHECK_OK(labels.status());
    benchmark::DoNotOptimize(labels->data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * trials->size()));
}
BENCHMARK(BM_ClassifyBatch)->Arg(1)->Arg(2)->Arg(0 /*=hw*/);

void BM_TrialSynthesis(benchmark::State& state) {
  DatasetOptions lab;
  lab.limb = Limb::kRightHand;
  lab.seed = 77;
  uint64_t salt = 0;
  for (auto _ : state) {
    auto t = GenerateTrial(lab, salt % 6, 0, 1000 + salt);
    ++salt;
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrialSynthesis);

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
