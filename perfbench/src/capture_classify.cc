// capture_classify: the paper's offline path from raw TRC + EMG bytes to
// a label, closed loop. Untimed set-up writes the held-out captures to
// TRC and EMG CSV text in memory and classifies each in-memory capture
// once for the reference label.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/fcm.h"
#include "core/codebook.h"
#include "emg/acquisition.h"
#include "emg/emg_io.h"
#include "mocap/trc_io.h"
#include "util/parallel.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mocemg::LabeledMotion;
using mocemg::MotionClassifier;

// One latency slice and one throughput slice of the measured run. The
// latency slice is longer: the pooled p99 needs the samples, while the
// throughput median needs only a few dozen batches.
constexpr int64_t kLatencySliceNs = 750'000'000;
constexpr int64_t kBatchSliceNs = 250'000'000;

struct CaptureText {
  std::string trc;
  std::string emg;
  size_t truth = 0;      // generated class
  size_t reference = 0;  // Classify on the in-memory capture
};

// Parses one capture; failures go to `report`.
bool Parse(const CaptureText& text, LabeledMotion* out,
           WorkloadReport* report) {
  auto mocap = mocemg::ParseTrc(text.trc);
  auto emg = mocemg::ParseEmgCsv(text.emg);
  if (!mocap.ok() || !emg.ok()) {
    report->Fail("parse: " + (mocap.ok() ? emg.status() : mocap.status())
                                 .ToString());
    return false;
  }
  out->mocap = *std::move(mocap);
  out->emg = *std::move(emg);
  return true;
}

// One batch: parse every capture, then ClassifyBatch, both at
// `threads`. Returns the elapsed seconds; checks labels.
double RunBatch(const MotionClassifier& model,
                const std::vector<CaptureText>& texts, size_t threads,
                WorkloadReport* report) {
  mocemg::ParallelOptions par;
  par.max_threads = threads;
  const int64_t t0 = NowNs();
  std::vector<LabeledMotion> trials(texts.size());
  mocemg::Status st = mocemg::ParallelFor(
      texts.size(),
      [&](size_t begin, size_t end, size_t) -> mocemg::Status {
        for (size_t i = begin; i < end; ++i) {
          auto mocap = mocemg::ParseTrc(texts[i].trc);
          if (!mocap.ok()) return mocap.status();
          auto emg = mocemg::ParseEmgCsv(texts[i].emg);
          if (!emg.ok()) return emg.status();
          trials[i].mocap = *std::move(mocap);
          trials[i].emg = *std::move(emg);
        }
        return mocemg::Status::OK();
      },
      par);
  auto labels = st.ok() ? model.ClassifyBatch(trials, par)
                        : mocemg::Result<std::vector<size_t>>(st);
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  report->attempted += texts.size();
  if (!labels.ok()) {
    for (size_t i = 0; i < texts.size(); ++i) {
      report->Fail("batch: " + labels.status().ToString());
    }
    return seconds;
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    if ((*labels)[i] != texts[i].reference) {
      report->Fail("batch label of capture " + std::to_string(i) +
                   " differs from its Classify reference");
    }
  }
  return seconds;
}

// The traced operation: the same bytes → label path as Classify, made
// of the public calls Classify is built from, one span per call.
struct TracedTotals {
  size_t gram_fast = 0;
  size_t gram_fallback = 0;
};

void TracedClassify(const MotionClassifier& model, const CaptureText& text,
                    uint64_t request, Tracer* tracer, TracedTotals* totals,
                    WorkloadReport* report) {
  ScopedSpan root(tracer, "bench.capture", request);
  const uint64_t parent = root.id();
  auto fail = [&](const std::string& stage, const mocemg::Status& st) {
    report->Fail(stage + ": " + st.ToString());
  };
  mocemg::Result<mocemg::MotionSequence> mocap = [&] {
    ScopedSpan s(tracer, "mocap.parse_trc", request, parent);
    return mocemg::ParseTrc(text.trc);
  }();
  if (!mocap.ok()) return fail("ParseTrc", mocap.status());
  mocemg::Result<mocemg::EmgRecording> raw = [&] {
    ScopedSpan s(tracer, "emg.parse_csv", request, parent);
    return mocemg::ParseEmgCsv(text.emg);
  }();
  if (!raw.ok()) return fail("ParseEmgCsv", raw.status());
  const mocemg::ClassifierOptions& opts = model.options();
  mocemg::Result<mocemg::EmgRecording> emg = [&] {
    ScopedSpan s(tracer, "emg.condition", request, parent);
    mocemg::AcquisitionOptions acq = opts.acquisition;
    acq.output_rate_hz = mocap->frame_rate_hz();
    return mocemg::ConditionRecording(*raw, acq);
  }();
  if (!emg.ok()) return fail("ConditionRecording", emg.status());
  mocemg::WindowFeatureStats stats;
  mocemg::Result<mocemg::WindowFeatureMatrix> windows = [&] {
    ScopedSpan s(tracer, "core.window_features", request, parent);
    return mocemg::ExtractWindowFeatures(*mocap, *emg, opts.features,
                                         &stats);
  }();
  if (!windows.ok()) return fail("ExtractWindowFeatures", windows.status());
  totals->gram_fast += stats.gram_fast_windows;
  totals->gram_fallback += stats.gram_fallback_windows;
  mocemg::Result<mocemg::Matrix> points = [&] {
    ScopedSpan s(tracer, "core.normalize", request, parent);
    return model.normalizer().Transform(windows->points);
  }();
  if (!points.ok()) return fail("Normalizer", points.status());
  mocemg::Result<mocemg::Matrix> memberships = [&] {
    ScopedSpan s(tracer, "cluster.membership", request, parent);
    return mocemg::EvaluateMembershipBatch(model.codebook().centers(),
                                           *points,
                                           model.codebook().fuzziness());
  }();
  if (!memberships.ok()) return fail("membership", memberships.status());
  mocemg::Result<std::vector<double>> feature = [&] {
    ScopedSpan s(tracer, "core.final_feature", request, parent);
    return mocemg::FinalMotionFeature(*memberships);
  }();
  if (!feature.ok()) return fail("FinalMotionFeature", feature.status());
  const mocemg::MotionDatabase* db = model.final_database();
  mocemg::Result<std::vector<mocemg::QueryHit>> hits = [&] {
    ScopedSpan s(tracer, "db.classify_knn", request, parent);
    return db->NearestNeighbors(*feature, 1);
  }();
  if (!hits.ok()) return fail("NearestNeighbors", hits.status());
  if (db->record((*hits)[0].record_index).label != text.reference) {
    report->Fail("traced label differs from its Classify reference");
  }
}

}  // namespace

WorkloadReport RunCaptureClassify(const RunConfig& config) {
  WorkloadReport report;
  const std::vector<LabeledMotion> training =
      TrainingSet(config.seed, config.smoke);
  MotionClassifier model;
  const double setup_s =
      MedianSetupSeconds(config.setup_repeats, [&](size_t) {
        model = TrainOrDie(training, config.seed);
      });
  if (model.final_database() == nullptr) Die("model has no final database");

  std::vector<CaptureText> texts;
  for (mocemg::CapturedMotion& c :
       HeldOutCaptures(config.seed, config.smoke)) {
    auto ref = model.Classify(c.mocap, c.emg_raw);
    if (!ref.ok()) Die("reference Classify: " + ref.status().ToString());
    texts.push_back({mocemg::WriteTrc(c.mocap), mocemg::WriteEmgCsv(c.emg_raw),
                     c.class_id, *ref});
  }
  size_t text_bytes = 0;
  for (const CaptureText& t : texts) text_bytes += t.trc.size() + t.emg.size();
  report.Named("capture_classify.captures", static_cast<double>(texts.size()),
               "count");
  report.Named("capture_classify.bytes_per_capture",
               static_cast<double>(text_bytes) /
                   static_cast<double>(texts.size()),
               "B");

  mocemg::Rng order(config.seed ^ 0x0DE5);
  std::vector<size_t> perm(texts.size());
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[order.NextBelow(i)]);
  }
  const size_t nproc = NumCpus();
  // The gated batch leaves one CPU to the system, as stream_control
  // does: with every CPU busy a neighbour's burst stalls whole batches.
  const size_t batch_threads = std::max<size_t>(1, nproc - 1);

  if (config.trace) {
    Tracer tracer(true, size_t{1} << 17);
    if (config.trace_setup) {
      TraceTraining(training, model, config.seed, &tracer, &report);
    }
    // Half the time untraced, half traced, same operations.
    const double phase_ns = config.seconds * 0.4e9;
    int64_t t_end = NowNs() + static_cast<int64_t>(phase_ns);
    std::vector<double> untraced_us;
    for (size_t n = 0; NowNs() < t_end || n == 0; ++n) {
      const CaptureText& t = texts[perm[n % perm.size()]];
      LabeledMotion m;
      const int64_t t0 = NowNs();
      if (!Parse(t, &m, &report)) continue;
      auto label = model.Classify(m.mocap, m.emg);
      untraced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++report.attempted;
      if (!label.ok() || *label != t.reference) {
        report.Fail("untraced label differs from its Classify reference");
      }
    }
    TracedTotals totals;
    std::vector<double> traced_us;
    t_end = NowNs() + static_cast<int64_t>(phase_ns);
    for (size_t n = 0; (NowNs() < t_end && !tracer.nearly_full()) || n == 0;
         ++n) {
      const int64_t t0 = NowNs();
      TracedClassify(model, texts[perm[n % perm.size()]], n + 1, &tracer,
                     &totals, &report);
      traced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++report.attempted;
    }
    // Request 0 is the traced training; the capture path is the rest.
    std::vector<Span> path = tracer.Collect();
    path.erase(std::remove_if(path.begin(), path.end(),
                              [](const Span& sp) { return sp.request == 0; }),
               path.end());
    const auto by_name = Tracer::ByName(path);
    auto mean_us = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : it->second.mean_us();
    };
    report.Layer("mocap.parse_trc_us", mean_us("mocap.parse_trc"), "us");
    report.Layer("emg.parse_csv_us", mean_us("emg.parse_csv"), "us");
    report.Layer("emg.condition_us", mean_us("emg.condition"), "us");
    report.Layer("core.window_features_us", mean_us("core.window_features"),
                 "us");
    report.Layer("core.normalize_us", mean_us("core.normalize"), "us");
    report.Layer("cluster.membership_us", mean_us("cluster.membership"),
                 "us");
    report.Layer("core.final_feature_us", mean_us("core.final_feature"),
                 "us");
    report.Layer("db.classify_knn_us", mean_us("db.classify_knn"), "us");
    const size_t gram = totals.gram_fast + totals.gram_fallback;
    report.Layer("core.gram_fallback_ratio",
                 gram == 0 ? 0.0
                           : static_cast<double>(totals.gram_fallback) /
                                 static_cast<double>(gram),
                 "ratio");
    // Parse + condition share of the traced capture path.
    double path_ns = 0.0;
    double parse_condition_ns = 0.0;
    for (const auto& [name, st] : by_name) {
      path_ns += static_cast<double>(st.self_ns);
      if (name == "mocap.parse_trc" || name == "emg.parse_csv" ||
          name == "emg.condition") {
        parse_condition_ns += static_cast<double>(st.self_ns);
      }
    }
    report.Layer("trace.capture_classify.parse_condition_share",
                 path_ns > 0.0 ? parse_condition_ns / path_ns : 0.0,
                 "ratio");
    // Batch scaling: captures/s at nproc threads over 1 thread.
    std::vector<double> rate1;
    std::vector<double> rate_n;
    for (int rep = 0; rep < 3; ++rep) {
      rate1.push_back(static_cast<double>(texts.size()) /
                      RunBatch(model, texts, 1, &report));
      rate_n.push_back(static_cast<double>(texts.size()) /
                       RunBatch(model, texts, nproc, &report));
    }
    report.Layer("util.parallel.scaling", Median(rate_n) / Median(rate1),
                 "ratio");
    ReportTrace("capture_classify", tracer, Median(untraced_us),
                Median(traced_us), config.trace_dir, &report);
    return report;
  }

  // Latency (one thread, closed loop, bytes to label) and batch
  // throughput (parse + ClassifyBatch at nproc - 1 threads) alternate in
  // slices, so both sample the whole run.
  std::vector<double> latency_ms;
  std::vector<double> slice_p50;
  std::vector<double> rates;
  size_t correct_vs_truth = 0;
  const int64_t run_end = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  size_t n = 0;
  while (NowNs() < run_end || rates.empty()) {
    const int64_t slice_end = NowNs() + kLatencySliceNs;
    const size_t slice_begin = latency_ms.size();
    do {
      const CaptureText& t = texts[perm[n++ % perm.size()]];
      const int64_t t0 = NowNs();
      LabeledMotion m;
      ++report.attempted;
      if (!Parse(t, &m, &report)) continue;
      auto label = model.Classify(m.mocap, m.emg);
      latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (!label.ok()) {
        report.Fail("Classify: " + label.status().ToString());
      } else if (*label != t.reference) {
        report.Fail("label differs from its Classify reference");
      }
      if (label.ok() && *label == t.truth) ++correct_vs_truth;
    } while (NowNs() < slice_end);
    std::vector<double> slice(latency_ms.begin() + slice_begin,
                              latency_ms.end());
    slice_p50.push_back(Percentile(&slice, 0.5));
    const int64_t batch_end = NowNs() + kBatchSliceNs;
    do {
      rates.push_back(static_cast<double>(texts.size()) /
                      RunBatch(model, texts, batch_threads, &report));
    } while (NowNs() < batch_end);
  }
  const size_t latency_ops = latency_ms.size();
  // p50: median over slices, robust to a noisy stretch of the host;
  // p99 pools every sample (a slice holds too few for its own p99).
  const double p50 = Median(slice_p50);
  const double p99 = Percentile(&latency_ms, 0.99);
  const double captures_per_s = Median(rates);
  const double rss = PeakRssMb();

  report.Named("setup_s", setup_s, "s");
  report.Named("peak_rss_mb", rss, "MB");
  report.Named("error_rate",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
               "ratio");
  report.Named("classify_p50_ms", p50, "ms");
  report.Named("classify_p99_ms", p99, "ms");
  report.Named("classify_samples", static_cast<double>(latency_ops), "count");
  report.Named("captures_per_s", captures_per_s, "1/s");
  report.Named("classify_accuracy",
               static_cast<double>(correct_vs_truth) /
                   static_cast<double>(std::max<size_t>(latency_ops, 1)),
               "ratio");
  report.Contract("setup_s", setup_s, "s");
  report.Contract("peak_rss_mb", rss, "MB");
  report.Contract("op_p50_us", p50 * 1e3, "us");
  report.Contract("op_p99_us", p99 * 1e3, "us");
  report.Contract("ops_per_s", captures_per_s, "1/s");
  return report;
}

}  // namespace perfbench
