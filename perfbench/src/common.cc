#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "cluster/fcm.h"
#include "db/feature_index.h"
#include "emg/acquisition.h"
#include "util/kernel_dispatch.h"
#include "util/parallel.h"

namespace perfbench {

using mocemg::CapturedMotion;
using mocemg::ClassifierOptions;
using mocemg::LabeledMotion;
using mocemg::Matrix;
using mocemg::MotionClassifier;

namespace {

// Captures per class: the paper's right-hand set is 6 classes, so 10
// trials give 60 training motions and 60 held-out captures.
constexpr size_t kTrialsPerClass = 10;
constexpr size_t kSmokeTrialsPerClass = 2;
constexpr size_t kMaxFailuresKept = 8;

mocemg::DatasetOptions RightHand(uint64_t seed, bool smoke) {
  mocemg::DatasetOptions lab;
  lab.limb = mocemg::Limb::kRightHand;
  lab.trials_per_class = smoke ? kSmokeTrialsPerClass : kTrialsPerClass;
  lab.seed = seed;
  return lab;
}

std::vector<CapturedMotion> GenerateOrDie(uint64_t seed, bool smoke) {
  auto data = mocemg::GenerateDataset(RightHand(seed, smoke));
  if (!data.ok()) Die("dataset generation: " + data.status().ToString());
  return *std::move(data);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

void WorkloadReport::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < kMaxFailuresKept) failures.push_back(why);
}

void WorkloadReport::Named(const std::string& name, double value,
                           const std::string& unit) {
  named.push_back({name, value, unit});
}

void WorkloadReport::Contract(const std::string& name, double value,
                              const std::string& unit) {
  contract.push_back({name, value, unit});
}

void WorkloadReport::Layer(const std::string& name, double value,
                           const std::string& unit) {
  layers.push_back({name, value, unit});
}

ClassifierOptions BenchPipeline(uint64_t seed) {
  ClassifierOptions opts;
  opts.features.window_ms = 100.0;
  opts.features.hop_ms = 50.0;
  opts.fcm.num_clusters = 15;
  opts.fcm.seed = seed ^ 0xC0FFEE;
  opts.fcm.max_iterations = 80;
  opts.fcm.epsilon = 1e-4;
  // Training and one capture's featurization run on one thread, which
  // keeps set-up time and single-capture latency steady on a shared
  // host; the batch paths spread captures over the pool instead.
  // Results are bit-identical at any thread count.
  opts.parallel.max_threads = 1;
  opts.fcm.parallel.max_threads = 1;
  opts.features.parallel.max_threads = 1;
  return opts;
}

std::vector<LabeledMotion> TrainingSet(uint64_t seed, bool smoke) {
  std::vector<LabeledMotion> out;
  for (CapturedMotion& c : GenerateOrDie(seed, smoke)) {
    LabeledMotion m;
    m.mocap = std::move(c.mocap);
    m.emg = std::move(c.emg_raw);
    m.label = c.class_id;
    m.label_name = c.class_name;
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<CapturedMotion> HeldOutCaptures(uint64_t seed, bool smoke) {
  return GenerateOrDie(seed ^ 0x5EED5EED5EEDULL, smoke);
}

MotionClassifier TrainOrDie(const std::vector<LabeledMotion>& training,
                            uint64_t seed) {
  auto model = MotionClassifier::Train(training, BenchPipeline(seed));
  if (!model.ok()) Die("training: " + model.status().ToString());
  return *std::move(model);
}

void TraceTraining(const std::vector<LabeledMotion>& training,
                   const MotionClassifier& model, uint64_t seed,
                   Tracer* tracer, WorkloadReport* report) {
  const ClassifierOptions opts = BenchPipeline(seed);
  ScopedSpan root(tracer, "bench.setup", 0);

  // The featurization pass Train runs: condition EMG to the capture
  // rate, then window features, in parallel over motions.
  std::vector<Matrix> per_motion(training.size());
  int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "core.train_featurize", 0, root.id());
    mocemg::Status st = mocemg::ParallelFor(
        training.size(),
        [&](size_t begin, size_t end, size_t) -> mocemg::Status {
          for (size_t i = begin; i < end; ++i) {
            mocemg::AcquisitionOptions acq = opts.acquisition;
            acq.output_rate_hz = training[i].mocap.frame_rate_hz();
            auto emg = mocemg::ConditionRecording(training[i].emg, acq);
            if (!emg.ok()) return emg.status();
            auto f = mocemg::ExtractWindowFeatures(training[i].mocap, *emg,
                                                   opts.features);
            if (!f.ok()) return f.status();
            per_motion[i] = std::move(f->points);
          }
          return mocemg::Status::OK();
        },
        opts.parallel);
    if (!st.ok()) Die("traced featurization: " + st.ToString());
  }
  report->Layer("core.train_featurize_s",
                static_cast<double>(NowNs() - t0) / 1e9, "s");

  Matrix pooled;
  for (const Matrix& m : per_motion) {
    if (!pooled.AppendRows(m).ok()) Die("pooling window points");
  }
  mocemg::Result<Matrix> normalized = [&] {
    ScopedSpan span(tracer, "core.normalize_train", 0, root.id());
    return model.normalizer().Transform(pooled);
  }();
  if (!normalized.ok()) Die("normalize: " + normalized.status().ToString());

  t0 = NowNs();
  mocemg::Result<mocemg::FcmModel> fcm = [&] {
    ScopedSpan span(tracer, "cluster.fcm_train", 0, root.id());
    return mocemg::FitFcm(*normalized, opts.fcm);
  }();
  report->Layer("cluster.fcm_train_s",
                static_cast<double>(NowNs() - t0) / 1e9, "s");
  if (!fcm.ok()) Die("FitFcm: " + fcm.status().ToString());
  report->Layer("cluster.fcm_iterations",
                static_cast<double>(fcm->iterations), "count");
  if (fcm->centers.data() != model.codebook().centers().data()) {
    report->Fail("traced FitFcm centers differ from the trained codebook");
  }
}

void ReportTrace(const std::string& workload, const Tracer& tracer,
                 double untraced_op_us, double traced_op_us,
                 const std::string& trace_dir, WorkloadReport* report) {
  const std::vector<Span> spans = tracer.Collect();
  int64_t total_self = 0;
  const auto layers = Tracer::ByLayer(spans);
  for (const auto& [layer, s] : layers) total_self += s.self_ns;
  for (const auto& [layer, s] : layers) {
    report->Named("trace." + workload + "." + layer + ".self_ms",
                  static_cast<double>(s.self_ns) / 1e6, "ms");
    report->Named("trace." + workload + "." + layer + ".share",
                  total_self == 0 ? 0.0
                                  : static_cast<double>(s.self_ns) /
                                        static_cast<double>(total_self),
                  "ratio");
  }
  report->Named("trace." + workload + ".spans",
                static_cast<double>(spans.size()), "count");
  report->Named("trace." + workload + ".spans_dropped",
                static_cast<double>(tracer.dropped()), "count");
  report->Layer("trace." + workload + ".overhead_ratio",
                untraced_op_us > 0.0 ? traced_op_us / untraced_op_us : 0.0,
                "ratio");
  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/spans_" + workload + ".tsv";
    if (!Tracer::WriteTsv(spans, path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
}

size_t NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string HostJson() {
  const mocemg::KernelDispatchInfo kernels = mocemg::GetKernelDispatchInfo();
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const char* threads_env = std::getenv("MOCEMG_THREADS");
  std::ostringstream out;
  out << "{\"nproc\": " << NumCpus()
      << ", \"l2_cache_bytes\": " << l2 << ", \"l3_cache_bytes\": " << l3
      << ", \"kernel_backend\": \"" << JsonEscape(kernels.active)
      << "\", \"kernel_backends_usable\": \"" << JsonEscape(kernels.usable)
      << "\", \"cpu_features\": \"" << JsonEscape(kernels.cpu_features)
      << "\", \"exact_precision\": \""
      << mocemg::ExactPrecisionName(mocemg::ResolveExactPrecision(
             mocemg::ExactPrecision::kDefault))
      << "\", \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << JsonEscape(PERFBENCH_BUILD_TYPE)
      << "\", \"mocemg_threads_env\": \""
      << JsonEscape(threads_env != nullptr ? threads_env : "")
      << "\"}";
  return out.str();
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace perfbench
