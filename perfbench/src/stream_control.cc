// stream_control: a prosthetic controller's loop, closed loop. Held-out
// captures are conditioned in untimed set-up, then replayed frame by
// frame into many StreamingClassifiers. Each thread owns a disjoint set
// of streams and interleaves them frame by frame; CurrentDecision runs
// after every frame. When a stream reaches the end of its capture, its
// final decision must equal MotionClassifier::Classify on that capture.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/streaming.h"
#include "emg/acquisition.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mocemg::StreamingClassifier;

constexpr size_t kStreamsPerThread = 16;
// Before this many windows CurrentDecision fails by design.
const size_t kMinWindowsForDecision =
    mocemg::StreamingOptions{}.min_windows_for_decision;

// A held-out capture as the frames a controller receives.
struct FrameSource {
  size_t frames = 0;
  size_t markers = 0;
  size_t channels = 0;
  std::vector<double> marker_frames;  // frames × 3·markers
  std::vector<double> emg_frames;     // frames × channels (conditioned)
  size_t reference = 0;               // Classify on the raw capture
};

struct Stream {
  std::unique_ptr<StreamingClassifier> classifier;
  size_t source = 0;
  size_t frame = 0;
};

struct ThreadResult {
  LatencyHistogram frame_ns;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  uint64_t failed = 0;
  uint64_t window_frames = 0;
};

std::unique_ptr<StreamingClassifier> NewStream(
    const mocemg::MotionClassifier& model, const FrameSource& src) {
  auto s = StreamingClassifier::Create(&model, src.markers,
                                       /*pelvis_index=*/0, src.channels,
                                       mocemg::StreamingOptions{});
  if (!s.ok()) Die("StreamingClassifier::Create: " + s.status().ToString());
  return std::make_unique<StreamingClassifier>(*std::move(s));
}

// One thread's loop over its streams until `end_ns` (or, when traced,
// until the tracer fills up).
void RunStreams(const std::vector<FrameSource>& sources,
                std::vector<Stream>* streams, size_t stride, int64_t end_ns,
                Tracer* tracer, uint64_t request_base, ThreadResult* out) {
  auto fail = [&](const std::string& why) {
    ++out->failed;
    if (out->failures.size() < 4) out->failures.push_back(why);
  };
  std::vector<double> marker_frame;
  std::vector<double> emg_frame;
  uint64_t request = request_base;
  for (uint64_t n = 0;; ++n) {
    if ((n & 63) == 0 &&
        (NowNs() >= end_ns || (tracer->enabled() && tracer->nearly_full()))) {
      break;
    }
    for (Stream& st : *streams) {
      const FrameSource& src = sources[st.source];
      marker_frame.assign(
          src.marker_frames.begin() + st.frame * 3 * src.markers,
          src.marker_frames.begin() + (st.frame + 1) * 3 * src.markers);
      emg_frame.assign(src.emg_frames.begin() + st.frame * src.channels,
                       src.emg_frames.begin() + (st.frame + 1) * src.channels);
      const size_t windows_before = st.classifier->windows_completed();
      const int64_t t0 = NowNs();
      mocemg::Status pushed;
      mocemg::Result<size_t> decision = size_t{0};
      {
        ScopedSpan root(tracer, "bench.frame", ++request);
        {
          ScopedSpan s(tracer, "core.stream.push_plain_frame", request,
                       root.id());
          pushed = st.classifier->PushFrame(marker_frame, emg_frame);
          if (st.classifier->windows_completed() != windows_before) {
            s.Rename("core.stream.push_window_frame");
          }
        }
        ScopedSpan s(tracer, "core.stream.decision", request, root.id());
        decision = st.classifier->CurrentDecision();
      }
      out->frame_ns.Add(NowNs() - t0);
      ++out->attempted;
      if (st.classifier->windows_completed() != windows_before) {
        ++out->window_frames;
      }
      if (!pushed.ok()) fail("PushFrame: " + pushed.ToString());
      if (!decision.ok() &&
          st.classifier->windows_completed() >= kMinWindowsForDecision) {
        fail("CurrentDecision: " + decision.status().ToString());
      }
      if (++st.frame < src.frames) continue;
      // End of the capture: its final decision must match Classify.
      ++out->attempted;
      if (!decision.ok() || *decision != src.reference) {
        fail("final stream decision differs from Classify");
      }
      st.source = (st.source + stride) % sources.size();
      st.frame = 0;
      st.classifier->Reset();
    }
  }
}

struct StreamRun {
  LatencyHistogram frame_ns;
  uint64_t frames = 0;
  uint64_t window_frames = 0;
  double seconds = 0.0;
};

// Runs `threads` threads (the calling one included) for `seconds`.
StreamRun RunAll(const std::vector<FrameSource>& sources,
                 std::vector<std::vector<Stream>>* per_thread, double seconds,
                 Tracer* tracer, WorkloadReport* report) {
  const size_t threads = per_thread->size();
  const size_t total_streams = threads * kStreamsPerThread;
  std::vector<ThreadResult> results(threads);
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  {
    std::vector<std::thread> pool;
    for (size_t t = 1; t < threads; ++t) {
      pool.emplace_back([&, t] {
        RunStreams(sources, &(*per_thread)[t], total_streams, end,
                   tracer, (uint64_t{t} + 1) << 40, &results[t]);
      });
    }
    RunStreams(sources, &(*per_thread)[0], total_streams, end, tracer,
               uint64_t{1} << 40, &results[0]);
    for (std::thread& th : pool) th.join();
  }
  StreamRun run;
  run.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  for (ThreadResult& r : results) {
    run.frame_ns.Merge(r.frame_ns);
    run.window_frames += r.window_frames;
    report->attempted += r.attempted;
    for (const std::string& f : r.failures) report->Fail(f);
    for (uint64_t i = r.failures.size(); i < r.failed; ++i) {
      report->Fail("stream failure");
    }
  }
  run.frames = run.frame_ns.count();
  return run;
}

}  // namespace

WorkloadReport RunStreamControl(const RunConfig& config) {
  WorkloadReport report;
  const std::vector<mocemg::LabeledMotion> training =
      TrainingSet(config.seed, config.smoke);
  // One CPU is left to the system, so a neighbour's burst does not
  // preempt a stream thread mid-frame.
  const size_t threads = std::max<size_t>(1, NumCpus() - 1);

  mocemg::MotionClassifier model;
  std::vector<FrameSource> sources;
  for (mocemg::CapturedMotion& c :
       HeldOutCaptures(config.seed, config.smoke)) {
    auto emg = mocemg::ConditionRecording(c.emg_raw);
    if (!emg.ok()) Die("ConditionRecording: " + emg.status().ToString());
    FrameSource src;
    src.frames = std::min(c.mocap.num_frames(), emg->num_samples());
    src.markers = c.mocap.num_markers();
    src.channels = emg->num_channels();
    for (size_t f = 0; f < src.frames; ++f) {
      for (size_t k = 0; k < 3 * src.markers; ++k) {
        src.marker_frames.push_back(c.mocap.positions()(f, k));
      }
      for (size_t ch = 0; ch < src.channels; ++ch) {
        src.emg_frames.push_back(emg->channel(ch)[f]);
      }
    }
    sources.push_back(std::move(src));
  }

  // Set-up: train, then open every stream.
  std::vector<std::vector<Stream>> per_thread;
  const double setup_s =
      MedianSetupSeconds(config.setup_repeats, [&](size_t) {
        model = TrainOrDie(training, config.seed);
        per_thread.clear();
        per_thread.resize(threads);
        for (size_t t = 0; t < threads; ++t) {
          for (size_t i = 0; i < kStreamsPerThread; ++i) {
            Stream st;
            st.source = (t * kStreamsPerThread + i) % sources.size();
            st.classifier = NewStream(model, sources[st.source]);
            per_thread[t].push_back(std::move(st));
          }
        }
      });
  // References need the final model, so they are taken after set-up.
  {
    size_t i = 0;
    for (mocemg::CapturedMotion& c :
         HeldOutCaptures(config.seed, config.smoke)) {
      auto ref = model.Classify(c.mocap, c.emg_raw);
      if (!ref.ok()) Die("reference Classify: " + ref.status().ToString());
      sources[i++].reference = *ref;
    }
  }
  report.Named("stream_control.streams",
               static_cast<double>(threads * kStreamsPerThread), "count");

  Tracer tracer(config.trace, size_t{1} << 17);
  Tracer off(false, 0);
  if (config.trace) {
    if (config.trace_setup) {
      TraceTraining(training, model, config.seed, &tracer, &report);
    }
    StreamRun untraced = RunAll(sources, &per_thread,
                                config.seconds * 0.4, &off, &report);
    StreamRun traced = RunAll(sources, &per_thread,
                              config.seconds * 0.4, &tracer, &report);
    const auto by_name = Tracer::ByName(tracer.Collect());
    auto mean_us = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : it->second.mean_us();
    };
    report.Layer("core.stream.push_window_frame_us",
                 mean_us("core.stream.push_window_frame"), "us");
    report.Layer("core.stream.push_plain_frame_us",
                 mean_us("core.stream.push_plain_frame"), "us");
    report.Layer("core.stream.decision_us", mean_us("core.stream.decision"),
                 "us");
    report.Layer("core.stream.window_frame_ratio",
                 static_cast<double>(untraced.window_frames) /
                     static_cast<double>(
                         std::max<uint64_t>(untraced.frames, 1)),
                 "ratio");
    ReportTrace("stream_control", tracer, untraced.frame_ns.mean_ns() / 1e3,
                traced.frame_ns.mean_ns() / 1e3, config.trace_dir, &report);
    return report;
  }

  // One-second slices; each metric is the median over slices, so a
  // noisy stretch of the host shorter than half the run moves none.
  StreamRun run;
  std::vector<double> slice_fps;
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  const int slices = std::max(1, static_cast<int>(config.seconds));
  for (int i = 0; i < slices; ++i) {
    StreamRun slice = RunAll(sources, &per_thread, config.seconds / slices,
                             &off, &report);
    slice_fps.push_back(static_cast<double>(slice.frames) / slice.seconds);
    slice_p50.push_back(slice.frame_ns.PercentileNs(0.50) / 1e3);
    slice_p99.push_back(slice.frame_ns.PercentileNs(0.99) / 1e3);
    run.frame_ns.Merge(slice.frame_ns);
  }
  run.frames = run.frame_ns.count();
  const double rss = PeakRssMb();
  const double p50 = Median(slice_p50);
  const double p99 = Median(slice_p99);
  const double fps = Median(slice_fps);
  report.Named("setup_s", setup_s, "s");
  report.Named("peak_rss_mb", rss, "MB");
  report.Named("error_rate",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
               "ratio");
  report.Named("frame_p50_us", p50, "us");
  report.Named("frame_p99_us", p99, "us");
  report.Named("frame_samples", static_cast<double>(run.frames), "count");
  report.Named("frames_per_s", fps, "1/s");
  report.Contract("setup_s", setup_s, "s");
  report.Contract("peak_rss_mb", rss, "MB");
  report.Contract("op_p50_us", p50, "us");
  report.Contract("op_p99_us", p99, "us");
  report.Contract("ops_per_s", fps, "1/s");
  return report;
}

}  // namespace perfbench
