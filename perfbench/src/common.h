/// \file common.h
/// \brief Shared set-up and reporting of the benchmark workloads: the
/// trained model every workload starts from, the held-out captures,
/// host metadata, and the metric report each workload fills in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "synth/dataset.h"
#include "trace.h"

namespace perfbench {

/// One invocation's settings (see main.cc for the flags).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the smoke test; never used for measurements.
  bool smoke = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_dir;
  /// The traced run also decomposes training (done by one workload).
  bool trace_setup = true;
  /// Set-up repetitions whose median is setup_s.
  size_t setup_repeats = 15;
};

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief What one workload run reports. `named` carries the workload's
/// own end-to-end metrics under their descriptive names; `contract`
/// the same measurements under the names every workload shares (the
/// final JSON line); `layers` the traced per-layer metrics.
struct WorkloadReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed, rejected, expired or wrong answers
  std::vector<std::string> failures;  ///< first few, for the log
  std::vector<Metric> named;
  std::vector<Metric> contract;
  std::vector<Metric> layers;

  void Fail(const std::string& why);
  void Named(const std::string& name, double value, const std::string& unit);
  void Contract(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
};

/// The pipeline every workload trains: 100 ms windows, 50 ms hop,
/// c = 15, FCM seeded from the workload seed; training and one
/// capture's featurization on one thread.
mocemg::ClassifierOptions BenchPipeline(uint64_t seed);

/// Training captures for `seed` (labelled, raw EMG).
std::vector<mocemg::LabeledMotion> TrainingSet(uint64_t seed, bool smoke);

/// Held-out captures from a second seed derived from `seed`.
std::vector<mocemg::CapturedMotion> HeldOutCaptures(uint64_t seed,
                                                    bool smoke);

/// Trains the model; aborts the run with a message on failure.
mocemg::MotionClassifier TrainOrDie(
    const std::vector<mocemg::LabeledMotion>& training, uint64_t seed);

/// \brief Traced decomposition of training through the public calls
/// Train makes (featurize → normalize → FitFcm), recording
/// core.train_featurize_s, cluster.fcm_train_s and
/// cluster.fcm_iterations, and checking the refit codebook equals the
/// model's. Adds a failure to `report` on mismatch.
void TraceTraining(const std::vector<mocemg::LabeledMotion>& training,
                   const mocemg::MotionClassifier& model, uint64_t seed,
                   Tracer* tracer, WorkloadReport* report);

/// Median wall time (s) of `repeats` calls of `setup`.
template <typename Fn>
double MedianSetupSeconds(size_t repeats, Fn&& setup);

/// Adds, for every layer seen in `spans`, its self time (ms) and share
/// of the traced total, plus the overhead ratio traced/untraced of the
/// workload's mean operation time. Writes the spans as TSV when
/// `trace_dir` is set.
void ReportTrace(const std::string& workload, const Tracer& tracer,
                 double untraced_op_us, double traced_op_us,
                 const std::string& trace_dir, WorkloadReport* report);

/// Host and build metadata as one JSON object.
std::string HostJson();

/// Number of CPUs this process may use.
size_t NumCpus();

/// Prints a message to stderr and exits with status 2.
[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#include "stats.h"

namespace perfbench {

template <typename Fn>
double MedianSetupSeconds(size_t repeats, Fn&& setup) {
  std::vector<double> seconds;
  for (size_t i = 0; i < repeats; ++i) {
    const int64_t t0 = NowNs();
    setup(i);
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(std::move(seconds));
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
