// perfbench: end-to-end benchmark of the mocemg pipeline.
//
//   perfbench --workload <capture_classify|knn_serve|stream_control>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--smoke]
//
// Prints the seed, host metadata and every metric by name with its
// unit, then as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones every workload
// shares; with --trace 1 the run profiles every layer (each workload's
// traced pass, the named one first and decomposing training too) and
// the metrics are the per-layer ones. --smoke runs all three workloads
// at reduced size and fails unless every metric is present and every
// answer is right. See NOTES.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

using Runner = WorkloadReport (*)(const RunConfig&);

struct Workload {
  const char* name;
  Runner run;
  /// The workload's end-to-end metrics under their own names.
  std::vector<std::string> named;
};

const Workload kWorkloads[] = {
    {"capture_classify",
     RunCaptureClassify,
     {"setup_s", "peak_rss_mb", "error_rate", "classify_p50_ms",
      "classify_p99_ms", "captures_per_s", "classify_accuracy"}},
    {"knn_serve",
     RunKnnServe,
     {"setup_s", "peak_rss_mb", "error_rate", "knn_p50_us", "knn_p99_us",
      "knn_max_qps", "knn_capacity_qps", "update_p99_us"}},
    {"stream_control",
     RunStreamControl,
     {"setup_s", "peak_rss_mb", "error_rate", "frame_p50_us", "frame_p99_us",
      "frames_per_s"}},
};

// Metric names of the final JSON line (BENCHMARK.json lists the same).
const std::vector<std::string> kContractMetrics = {
    "setup_s", "peak_rss_mb", "op_p50_us", "op_p99_us", "ops_per_s"};

const std::vector<std::string> kLayerMetrics = {
    "core.train_featurize_s",
    "cluster.fcm_train_s",
    "cluster.fcm_iterations",
    "mocap.parse_trc_us",
    "emg.parse_csv_us",
    "emg.condition_us",
    "core.window_features_us",
    "core.normalize_us",
    "cluster.membership_us",
    "core.final_feature_us",
    "db.classify_knn_us",
    "core.gram_fallback_ratio",
    "util.parallel.scaling",
    "trace.capture_classify.parse_condition_share",
    "trace.capture_classify.overhead_ratio",
    "db.server.cache_hit_ratio",
    "db.server.coalesced_ratio",
    "db.server.mean_batch",
    "db.server.queue_high_water",
    "db.server.rejected",
    "db.server.expired",
    "db.index.batch_knn_us_per_query",
    "db.index.distance_computations_per_query",
    "db.index.partition_prune_ratio",
    "db.index.f32_refine_ratio",
    "util.kernels.bytes_per_query",
    "db.index.apply_update_us",
    "db.database.update_feature_us",
    "db.server.quiesce_us",
    "bench.generator_late_p99_us",
    "trace.knn_serve.overhead_ratio",
    "core.stream.push_window_frame_us",
    "core.stream.push_plain_frame_us",
    "core.stream.decision_us",
    "core.stream.window_frame_ratio",
    "trace.stream_control.overhead_ratio",
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<capture_classify|knn_serve|stream_control> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>] [--smoke]\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 120.0) {
        Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!config.smoke &&
      (!have_workload || FindWorkload(config.workload) == nullptr)) {
    Usage("--workload must name one of the three workloads");
  }
  return config;
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s\t%s\t%.9g\t%s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ResultJson(const WorkloadReport& report,
                       const std::vector<std::string>& names,
                       const std::vector<Metric>& metrics, bool* complete) {
  std::string out = "{\"correct\": ";
  out += report.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  *complete = true;
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : metrics) {
      if (m.name == names[i]) found = &m;
    }
    if (found == nullptr || !std::isfinite(found->value)) {
      *complete = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", found->value);
    if (out.back() != '{') out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " + value + ", \"unit\": \"" +
           found->unit + "\"}";
  }
  out += "}}";
  return out;
}

void Merge(WorkloadReport&& from, WorkloadReport* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (auto& f : from.failures) into->failures.push_back(std::move(f));
  for (auto& m : from.named) into->named.push_back(std::move(m));
  for (auto& m : from.contract) into->contract.push_back(std::move(m));
  for (auto& m : from.layers) into->layers.push_back(std::move(m));
}

void PrintFailures(const WorkloadReport& report) {
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
}

// Runs every workload at reduced size, untraced and traced, and checks
// that no answer was wrong and every metric is present: the contract
// and named metrics of each untraced run, and the per-layer metrics
// over the three traced runs. Exit status 0 only when all hold.
int Smoke(const RunConfig& base) {
  int problems = 0;
  auto require = [&](const std::vector<Metric>& have,
                     const std::vector<std::string>& names,
                     const std::string& where) {
    for (const std::string& name : names) {
      bool found = false;
      for (const Metric& m : have) found |= m.name == name;
      if (!found) {
        std::printf("smoke: %s is missing %s\n", where.c_str(), name.c_str());
        ++problems;
      }
    }
  };
  std::vector<Metric> layers;
  for (const Workload& w : kWorkloads) {
    for (bool trace : {false, true}) {
      RunConfig config = base;
      config.workload = w.name;
      config.trace = trace;
      config.seconds = 0.6;
      config.setup_repeats = 1;
      const WorkloadReport report = w.run(config);
      PrintFailures(report);
      if (report.failed != 0 || report.attempted == 0) {
        std::printf("smoke: %s trace=%d failed %llu of %llu\n", w.name, trace,
                    static_cast<unsigned long long>(report.failed),
                    static_cast<unsigned long long>(report.attempted));
        ++problems;
      }
      if (trace) {
        layers.insert(layers.end(), report.layers.begin(),
                      report.layers.end());
      } else {
        require(report.contract, kContractMetrics, w.name);
        require(report.named, w.named, w.name);
      }
      std::printf("smoke: %s trace=%d ran %llu operations\n", w.name, trace,
                  static_cast<unsigned long long>(report.attempted));
    }
  }
  require(layers, kLayerMetrics, "traced runs");
  std::printf("smoke: %s\n", problems == 0 ? "ok" : "FAILED");
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config = ParseArgs(argc, argv);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.smoke ? " smoke" : "");
  std::printf("host\t%s\n", HostJson().c_str());
  std::fflush(stdout);
  if (config.smoke) return Smoke(config);

  WorkloadReport report;
  if (config.trace) {
    // Every layer is profiled on every traced run: the named workload
    // first (it also decomposes training), then the other two, each on
    // a third of the time.
    std::vector<const Workload*> order = {FindWorkload(config.workload)};
    for (const Workload& w : kWorkloads) {
      if (&w != order[0]) order.push_back(&w);
    }
    for (const Workload* w : order) {
      RunConfig sub = config;
      sub.workload = w->name;
      sub.seconds = config.seconds / 3.0;
      sub.setup_repeats = 1;
      sub.trace_setup = w == order[0];
      Merge(w->run(sub), &report);
    }
  } else {
    report = FindWorkload(config.workload)->run(config);
  }
  PrintFailures(report);
  PrintMetrics("metric", report.named);
  PrintMetrics("layer", report.layers);
  std::printf("seed\t%llu\n", static_cast<unsigned long long>(config.seed));
  bool complete = false;
  const std::string json =
      config.trace
          ? ResultJson(report, kLayerMetrics, report.layers, &complete)
          : ResultJson(report, kContractMetrics, report.contract, &complete);
  if (!complete) {
    std::fprintf(stderr, "perfbench: a metric is missing or not finite\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
