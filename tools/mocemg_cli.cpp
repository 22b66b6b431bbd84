// mocemg — command-line front end for the library.
//
// Subcommands:
//   train    --manifest <csv> --model <out> [--clusters N] [--window MS]
//            [--hop MS] [--kmeans] [--no-emg | --no-mocap]
//   classify --model <file> --trc <file> --emg <file> [--k N]
//   info     --model <file>
//   serve-bench [--records N] [--dim D] [--queries Q] [--unique U]
//               [--k K] [--batch B] [--threads 1,2,8] [--seed S] [--json]
//               [--deadline-us N] [--watermark N] [--snapshot <path>]
//               [--shards N] [--pipeline D]
//   kernel-info [--json]       dispatch report + backend equivalence gate
//
// Every subcommand accepts --kernel {auto,scalar,avx2,avx512} to
// force the SIMD kernel backend (same semantics as MOCEMG_KERNEL, but
// forcing an unusable backend is a hard error here), and
// --exact-precision {f64,f32} to pick the exact-scan tier (overrides
// MOCEMG_EXACT_PRECISION; an unknown name is a hard error).
//
// The manifest is a CSV with header `trc,emg,label,label_name`; each row
// names one captured motion: a TRC marker file, an EMG CSV (raw, with a
// sample_rate_hz comment), its integer class label and class name.
//
// Example session:
//   mocemg_cli train --manifest lab/session1.csv --model hand.model
//   mocemg_cli classify --model hand.model --trc q.trc --emg q.csv --k 5

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/model_io.h"
#include "db/index_snapshot.h"
#include "db/motion_database.h"
#include "db/query_server.h"
#include "db/sharded_index.h"
#include "emg/emg_io.h"
#include "mocap/trc_io.h"
#include "util/csv.h"
#include "util/distance_kernels.h"
#include "util/kernel_dispatch.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace mocemg;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mocemg_cli train    --manifest <csv> --model <out>\n"
               "                      [--clusters N] [--window MS] "
               "[--hop MS] [--kmeans] [--no-emg | --no-mocap]\n"
               "  mocemg_cli classify --model <file> --trc <file> "
               "--emg <file> [--k N]\n"
               "  mocemg_cli info     --model <file>\n"
               "  mocemg_cli serve-bench [--records N] [--dim D] "
               "[--queries Q] [--unique U]\n"
               "                      [--k K] [--batch B] "
               "[--threads 1,2,8] [--seed S] [--json]\n"
               "                      [--deadline-us N] [--watermark N] "
               "[--snapshot <path>]\n"
               "                      [--shards N (>= 1, default 1)] "
               "[--pipeline D]\n"
               "  mocemg_cli kernel-info [--json]\n"
               "  (any subcommand) --kernel auto|scalar|avx2|avx512\n"
               "  (any subcommand) --exact-precision f64|f32\n");
  return 2;
}

/// Resolved from --exact-precision in main(); kDefault defers to
/// MOCEMG_EXACT_PRECISION and then f64 (env < options < CLI).
ExactPrecision g_cli_exact_precision = ExactPrecision::kDefault;

/// Pulls `--flag value` pairs out of argv; returns empty for missing.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }

  std::string Get(const std::string& flag,
                  const std::string& fallback = "") const {
    for (size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i] == flag) return tokens_[i + 1];
    }
    return fallback;
  }

  bool Has(const std::string& flag) const {
    for (const auto& t : tokens_) {
      if (t == flag) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> tokens_;
};

Result<std::vector<LabeledMotion>> LoadManifest(const std::string& path) {
  MOCEMG_ASSIGN_OR_RETURN(CsvTable table, CsvTable::FromFile(path));
  MOCEMG_ASSIGN_OR_RETURN(size_t trc_col, table.ColumnIndex("trc"));
  MOCEMG_ASSIGN_OR_RETURN(size_t emg_col, table.ColumnIndex("emg"));
  MOCEMG_ASSIGN_OR_RETURN(size_t label_col, table.ColumnIndex("label"));
  MOCEMG_ASSIGN_OR_RETURN(size_t name_col,
                          table.ColumnIndex("label_name"));
  std::vector<LabeledMotion> motions;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const auto& row = table.rows()[r];
    LabeledMotion m;
    MOCEMG_ASSIGN_OR_RETURN(m.mocap, ReadTrcFile(row[trc_col]));
    MOCEMG_ASSIGN_OR_RETURN(m.emg, ReadEmgCsvFile(row[emg_col]));
    MOCEMG_ASSIGN_OR_RETURN(int64_t label, ParseInt(row[label_col]));
    m.label = static_cast<size_t>(label);
    m.label_name = row[name_col];
    motions.push_back(std::move(m));
  }
  if (motions.empty()) {
    return Status::InvalidArgument("manifest lists no motions");
  }
  return motions;
}

int RunTrain(const Args& args) {
  const std::string manifest = args.Get("--manifest");
  const std::string model_path = args.Get("--model");
  if (manifest.empty() || model_path.empty()) return Usage();

  auto motions = LoadManifest(manifest);
  if (!motions.ok()) return Fail(motions.status());
  std::printf("loaded %zu motions from %s\n", motions->size(),
              manifest.c_str());

  ClassifierOptions options;
  auto clusters = ParseInt(args.Get("--clusters", "15"));
  auto window = ParseDouble(args.Get("--window", "100"));
  auto hop = ParseDouble(args.Get("--hop", "50"));
  if (!clusters.ok()) return Fail(clusters.status());
  if (!window.ok()) return Fail(window.status());
  if (!hop.ok()) return Fail(hop.status());
  options.fcm.num_clusters = static_cast<size_t>(*clusters);
  options.features.window_ms = *window;
  options.features.hop_ms = *hop;
  if (args.Has("--kmeans")) {
    options.cluster_method = ClusterMethod::kKmeansHard;
  }
  if (args.Has("--no-emg")) options.features.use_emg = false;
  if (args.Has("--no-mocap")) options.features.use_mocap = false;

  auto clf = MotionClassifier::Train(*motions, options);
  if (!clf.ok()) return Fail(clf.status());
  Status save = SaveClassifier(*clf, model_path);
  if (!save.ok()) return Fail(save);
  std::printf("trained c=%zu, %zu-d final features; model -> %s\n",
              clf->codebook().num_clusters(),
              clf->final_features().cols(), model_path.c_str());
  return 0;
}

int RunClassify(const Args& args) {
  const std::string model_path = args.Get("--model");
  const std::string trc = args.Get("--trc");
  const std::string emg = args.Get("--emg");
  if (model_path.empty() || trc.empty() || emg.empty()) return Usage();
  auto k = ParseInt(args.Get("--k", "1"));
  if (!k.ok() || *k < 1) return Usage();

  auto model = LoadClassifier(model_path);
  if (!model.ok()) return Fail(model.status());
  auto mocap = ReadTrcFile(trc);
  if (!mocap.ok()) return Fail(mocap.status());
  auto recording = ReadEmgCsvFile(emg);
  if (!recording.ok()) return Fail(recording.status());

  auto feature = model->Featurize(*mocap, *recording);
  if (!feature.ok()) return Fail(feature.status());
  auto matches =
      model->NearestNeighbors(*feature, static_cast<size_t>(*k));
  if (!matches.ok()) return Fail(matches.status());

  std::printf("prediction: %s (label %zu)\n",
              model->label_names()[(*matches)[0].index].c_str(),
              (*matches)[0].label);
  for (const MotionMatch& m : *matches) {
    std::printf("  match %-16s label=%zu d=%.4f\n",
                model->label_names()[m.index].c_str(), m.label,
                m.distance);
  }
  return 0;
}

int RunInfo(const Args& args) {
  const std::string model_path = args.Get("--model");
  if (model_path.empty()) return Usage();
  auto model = LoadClassifier(model_path);
  if (!model.ok()) return Fail(model.status());
  const ClassifierOptions& o = model->options();
  std::printf("model: %s\n", model_path.c_str());
  std::printf("  motions:        %zu\n", model->num_motions());
  std::printf("  clusters:       %zu (m=%.2f, %s)\n",
              model->codebook().num_clusters(),
              model->codebook().fuzziness(),
              o.cluster_method == ClusterMethod::kFuzzyCMeans
                  ? "fuzzy c-means"
                  : "k-means hard");
  std::printf("  window:         %.0f ms (hop %.0f ms)\n",
              o.features.window_ms, o.features.hop_ms);
  std::printf("  modalities:     %s%s\n",
              o.features.use_emg ? "emg " : "",
              o.features.use_mocap ? "mocap" : "");
  std::printf("  window dim:     %zu\n", model->codebook().dimension());
  std::printf("  final dim:      %zu\n", model->final_features().cols());
  // Class inventory.
  std::vector<std::string> seen;
  for (size_t i = 0; i < model->num_motions(); ++i) {
    const std::string& name = model->label_names()[i];
    bool dup = false;
    for (const auto& s : seen) dup |= (s == name);
    if (!dup) seen.push_back(name);
  }
  std::printf("  classes (%zu):", seen.size());
  for (const auto& s : seen) std::printf(" %s", s.c_str());
  std::printf("\n");
  return 0;
}

// --- serve-bench: synthetic serving-throughput measurement ------------
//
// Builds a clustered synthetic database, then measures the same query
// stream three ways: per-request linear scan, per-request index, and
// the batched QueryServer (index + cache) at each requested thread
// budget. Exact served results are checked bit-identical to the
// per-request scan, and degraded ones (--watermark) against their
// certified interval, before any number is reported.
// run_benchmarks.sh consumes the --json form for BENCH_pr5.json's
// "serving" section.

using BenchClock = std::chrono::steady_clock;

double SecondsSince(BenchClock::time_point t0) {
  return std::chrono::duration<double>(BenchClock::now() - t0).count();
}

MotionDatabase MakeServeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 8;
    std::vector<double> f(dim, 0.0);
    Rng cls(seed ^ (r.label * 0x9E37ULL));
    for (int k = 0; k < 4; ++k) {
      f[cls.NextBelow(dim)] = 0.4 + 0.5 * rng.NextDouble();
    }
    r.feature = std::move(f);
    MOCEMG_CHECK_OK(db.Insert(std::move(r)));
  }
  return db;
}

/// `total` requests drawn round-robin from `unique` distinct vectors —
/// the repeat structure the result cache exists for.
std::vector<std::vector<double>> MakeServeWorkload(size_t total,
                                                   size_t unique,
                                                   size_t dim,
                                                   uint64_t seed) {
  std::vector<std::vector<double>> uniq(unique);
  for (size_t i = 0; i < unique; ++i) {
    Rng rng(seed + i);
    std::vector<double> q(dim, 0.0);
    for (int k = 0; k < 4; ++k) q[rng.NextBelow(dim)] = rng.NextDouble();
    uniq[i] = std::move(q);
  }
  std::vector<std::vector<double>> workload(total);
  for (size_t i = 0; i < total; ++i) workload[i] = uniq[i % unique];
  return workload;
}

double PercentileUs(std::vector<double> latencies_s, double pct) {
  if (latencies_s.empty()) return 0.0;
  std::sort(latencies_s.begin(), latencies_s.end());
  size_t idx = static_cast<size_t>(pct / 100.0 *
                                   double(latencies_s.size()));
  if (idx >= latencies_s.size()) idx = latencies_s.size() - 1;
  return latencies_s[idx] * 1e6;
}

struct ServeModeResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

ServeModeResult SummarizeMode(const std::vector<double>& latencies_s,
                              double elapsed_s) {
  ServeModeResult r;
  r.qps = elapsed_s > 0.0 ? double(latencies_s.size()) / elapsed_s : 0.0;
  r.p50_us = PercentileUs(latencies_s, 50.0);
  r.p99_us = PercentileUs(latencies_s, 99.0);
  return r;
}

bool SameHits(const std::vector<QueryHit>& a,
              const std::vector<QueryHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].record_index != b[i].record_index) return false;
    if (a[i].distance != b[i].distance) return false;
  }
  return true;
}

/// The degraded-answer contract (ServedAnswer): every hit's distance dᵢ
/// is the linear scan's distance of that record, the linear scan's i-th
/// distance lies in [dᵢ − B, dᵢ], and B = 0 means the linear scan's
/// answer. Returns the number of hits shared with `expected`.
Result<size_t> CheckDegraded(const MotionDatabase& db,
                             const std::vector<double>& query,
                             const ServedAnswer& answer,
                             const std::vector<QueryHit>& expected) {
  const std::vector<QueryHit>& hits = answer.hits;
  const double bound = answer.error_bound;
  const size_t dim = query.size();
  bool ok = hits.size() == expected.size() && bound >= 0.0 &&
            (bound > 0.0 || SameHits(hits, expected));
  size_t shared = 0;
  for (size_t i = 0; ok && i < hits.size(); ++i) {
    const double* row =
        db.packed_features().data() + hits[i].record_index * dim;
    ok = hits[i].distance == std::sqrt(SquaredL2(query.data(), row, dim)) &&
         expected[i].distance <= hits[i].distance &&
         hits[i].distance - bound <= expected[i].distance;
    for (const QueryHit& e : expected) {
      if (e.record_index == hits[i].record_index) ++shared;
    }
  }
  if (!ok) {
    return Status::Unknown(
        "a degraded answer broke its certified interval");
  }
  return shared;
}

int RunServeBench(const Args& args) {
  auto records = ParseInt(args.Get("--records", "20000"));
  auto dim = ParseInt(args.Get("--dim", "64"));
  auto queries = ParseInt(args.Get("--queries", "512"));
  auto unique = ParseInt(args.Get("--unique", "64"));
  auto k = ParseInt(args.Get("--k", "5"));
  auto batch = ParseInt(args.Get("--batch", "64"));
  auto seed = ParseInt(args.Get("--seed", "7"));
  auto deadline_us = ParseInt(args.Get("--deadline-us", "0"));
  auto watermark = ParseInt(args.Get("--watermark", "0"));
  auto shards = ParseInt(args.Get("--shards", "1"));
  auto pipeline = ParseInt(args.Get("--pipeline", "1"));
  const std::string snapshot_path = args.Get("--snapshot", "");
  if (!records.ok() || !dim.ok() || !queries.ok() || !unique.ok() ||
      !k.ok() || !batch.ok() || !seed.ok() || !deadline_us.ok() ||
      !watermark.ok() || !shards.ok() || !pipeline.ok()) {
    return Usage();
  }
  if (*records < 1 || *dim < 1 || *queries < 1 || *unique < 1 ||
      *k < 1 || *batch < 1 || *deadline_us < 0 || *watermark < 0 ||
      *shards < 1 || *pipeline < 1) {
    return Usage();
  }
  std::vector<size_t> threads;
  {
    const std::string spec = args.Get("--threads", "1,2,8");
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      auto t = ParseInt(spec.substr(pos, comma - pos));
      if (!t.ok() || *t < 1) return Usage();
      threads.push_back(static_cast<size_t>(*t));
      pos = comma + 1;
    }
    if (threads.empty()) return Usage();
  }
  const bool json = args.Has("--json");

  const MotionDatabase db = MakeServeDb(
      static_cast<size_t>(*records), static_cast<size_t>(*dim),
      static_cast<uint64_t>(*seed));
  ShardedIndexOptions iopts;
  iopts.num_shards = static_cast<size_t>(*shards);
  iopts.index.exact_precision = g_cli_exact_precision;
  auto index = ShardedFeatureIndex::Build(&db, iopts);
  if (!index.ok()) return Fail(index.status());

  // --snapshot: exercise the crash-safe persistence path — save the
  // built index as a manifest plus shard files, reload it (with
  // corruption-checked validation and per-shard repack), and serve
  // from the reloaded copy.
  bool used_snapshot = false;
  bool snap_loaded = false, snap_rebuilt = false;
  if (!snapshot_path.empty()) {
    Status saved = SaveShardedFeatureIndex(*index, snapshot_path);
    if (!saved.ok()) return Fail(saved);
    ShardedSnapshotLoadInfo info;
    auto reloaded =
        LoadOrRebuildShardedFeatureIndex(snapshot_path, &db, iopts, &info);
    if (!reloaded.ok()) return Fail(reloaded.status());
    *index = *std::move(reloaded);
    snap_loaded = info.loaded_from_snapshot;
    snap_rebuilt = info.rebuilt;
    used_snapshot = true;
  }
  const auto workload = MakeServeWorkload(
      static_cast<size_t>(*queries), static_cast<size_t>(*unique),
      static_cast<size_t>(*dim), static_cast<uint64_t>(*seed) + 1000);
  const size_t kk = static_cast<size_t>(*k);

  // Reference answers (also the warm-up for the scan mode).
  std::vector<std::vector<QueryHit>> expected(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto hits = db.NearestNeighbors(workload[i], kk);
    if (!hits.ok()) return Fail(hits.status());
    expected[i] = *std::move(hits);
  }

  // Mode 1: per-request exact linear scan.
  std::vector<double> lat(workload.size());
  auto t0 = BenchClock::now();
  for (size_t i = 0; i < workload.size(); ++i) {
    auto q0 = BenchClock::now();
    auto hits = db.NearestNeighbors(workload[i], kk);
    lat[i] = SecondsSince(q0);
    if (!hits.ok()) return Fail(hits.status());
  }
  const ServeModeResult exact = SummarizeMode(lat, SecondsSince(t0));

  // Mode 2: per-request index (no batching, no cache),
  // scatter-gathered across the shards.
  t0 = BenchClock::now();
  for (size_t i = 0; i < workload.size(); ++i) {
    auto q0 = BenchClock::now();
    auto hits = index->NearestNeighbors(workload[i], kk);
    lat[i] = SecondsSince(q0);
    if (!hits.ok()) return Fail(hits.status());
    if (!SameHits(*hits, expected[i])) {
      return Fail(Status::Unknown(
          "indexed results diverged from the linear scan"));
    }
  }
  const ServeModeResult indexed = SummarizeMode(lat, SecondsSince(t0));

  // Mode 3: the batched server, one run per thread budget. Requests
  // are submitted in admission windows of --batch and served by
  // DrainOnce, so a request's latency includes its wait for the
  // micro-batch — the tradeoff batching makes for throughput.
  struct ServedRow {
    size_t threads = 0;
    ServeModeResult mode;
    QueryServerStats stats;
    uint64_t degraded_taken = 0;
    uint64_t degraded_shared = 0;  ///< degraded hits in the true top k
    double degraded_bound_sum = 0.0;
    uint64_t expired_taken = 0;
    double DegradedRecall(size_t k) const {
      return double(degraded_shared) / double(degraded_taken * k);
    }
    double MeanBound() const {
      return degraded_bound_sum / double(degraded_taken);
    }
    double wall_s = 0.0;
  };
  std::vector<ServedRow> served_rows;
  for (size_t t : threads) {
    QueryServerOptions opts;
    opts.max_batch = static_cast<size_t>(*batch);
    opts.max_queue = workload.size() + 1;
    opts.parallel.max_threads = t;
    opts.default_deadline_us = static_cast<uint64_t>(*deadline_us);
    opts.degrade_watermark = static_cast<size_t>(*watermark);
    opts.pipeline_depth = static_cast<size_t>(*pipeline);
    auto server = QueryServer::Create(&db, &*index, opts);
    if (!server.ok()) return Fail(server.status());
    if (used_snapshot) {
      server->NoteSnapshotLoad(snap_loaded);
    }

    ServedRow row;
    std::vector<uint64_t> tickets(workload.size());
    std::vector<BenchClock::time_point> submitted(workload.size());
    t0 = BenchClock::now();
    size_t next = 0;
    while (next < workload.size()) {
      const size_t window_end =
          std::min(workload.size(), next + static_cast<size_t>(*batch));
      const size_t window_begin = next;
      for (; next < window_end; ++next) {
        submitted[next] = BenchClock::now();
        auto ticket =
            server->SubmitNearestNeighbors(workload[next], kk);
        if (!ticket.ok()) return Fail(ticket.status());
        tickets[next] = *ticket;
      }
      Status drained = server->DrainOnce();
      if (!drained.ok()) return Fail(drained);
      for (size_t i = window_begin; i < window_end; ++i) {
        auto answer = server->TakeAnswer(tickets[i]);
        lat[i] = std::chrono::duration<double>(BenchClock::now() -
                                               submitted[i])
                     .count();
        if (!answer.ok()) {
          // Deadline sheds are an expected outcome under --deadline-us;
          // anything else is a real failure.
          if (answer.status().IsDeadlineExceeded()) {
            ++row.expired_taken;
            continue;
          }
          return Fail(answer.status());
        }
        if (answer->degraded) {
          auto shared = CheckDegraded(db, workload[i], *answer, expected[i]);
          if (!shared.ok()) return Fail(shared.status());
          ++row.degraded_taken;
          row.degraded_shared += *shared;
          row.degraded_bound_sum += answer->error_bound;
          continue;
        }
        if (!SameHits(answer->hits, expected[i])) {
          return Fail(Status::Unknown(
              "served results diverged from the linear scan"));
        }
      }
    }
    row.threads = t;
    row.wall_s = SecondsSince(t0);
    row.mode = SummarizeMode(lat, row.wall_s);
    row.stats = server->stats();
    served_rows.push_back(row);
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"records\": %lld, \"dim\": %lld, \"queries\": %zu,"
                " \"unique\": %lld, \"k\": %zu, \"batch\": %lld,\n",
                static_cast<long long>(*records),
                static_cast<long long>(*dim), workload.size(),
                static_cast<long long>(*unique), kk,
                static_cast<long long>(*batch));
    std::printf("  \"bit_identical\": true,\n");
    std::printf("  \"shards\": %lld, \"pipeline\": %lld,\n",
                static_cast<long long>(*shards),
                static_cast<long long>(*pipeline));
    const KernelDispatchInfo kinfo = GetKernelDispatchInfo();
    std::printf("  \"kernel_backend\": \"%s\", \"cpu_features\": \"%s\",\n",
                kinfo.active.c_str(), kinfo.cpu_features.c_str());
    std::printf("  \"exact_precision\": \"%s\",\n",
                ExactPrecisionName(
                    ResolveExactPrecision(iopts.index.exact_precision)));
    if (used_snapshot) {
      std::printf("  \"snapshot\": {\"loaded\": %s, \"rebuilt\": %s},\n",
                  snap_loaded ? "true" : "false",
                  snap_rebuilt ? "true" : "false");
    }
    std::printf("  \"exact_scan\": {\"qps\": %.1f, \"p50_us\": %.1f, "
                "\"p99_us\": %.1f},\n",
                exact.qps, exact.p50_us, exact.p99_us);
    std::printf("  \"indexed\": {\"qps\": %.1f, \"p50_us\": %.1f, "
                "\"p99_us\": %.1f},\n",
                indexed.qps, indexed.p50_us, indexed.p99_us);
    std::printf("  \"served\": [\n");
    for (size_t i = 0; i < served_rows.size(); ++i) {
      const ServedRow& r = served_rows[i];
      std::printf("    {\"threads\": %zu, \"qps\": %.1f, "
                  "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                  "\"qps_vs_exact_scan\": %.3f, "
                  "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                  "\"coalesced\": %llu, "
                  "\"expired\": %llu, \"degraded\": %llu, "
                  "\"queue_high_water\": %llu, "
                  "\"snapshot_loads\": %llu, "
                  "\"snapshot_fallbacks\": %llu",
                  r.threads, r.mode.qps, r.mode.p50_us, r.mode.p99_us,
                  exact.qps > 0.0 ? r.mode.qps / exact.qps : 0.0,
                  static_cast<unsigned long long>(r.stats.cache_hits),
                  static_cast<unsigned long long>(r.stats.cache_misses),
                  static_cast<unsigned long long>(r.stats.coalesced),
                  static_cast<unsigned long long>(r.stats.expired),
                  static_cast<unsigned long long>(r.stats.degraded),
                  static_cast<unsigned long long>(r.stats.queue_high_water),
                  static_cast<unsigned long long>(r.stats.snapshot_loads),
                  static_cast<unsigned long long>(r.stats.snapshot_fallbacks));
      const IndexQueryStats& ist = r.stats.index_stats;
      std::printf(", \"f32_scans\": %llu, \"f32_refined\": %llu, "
                  "\"f32_refine_rate\": %.6f",
                  static_cast<unsigned long long>(ist.f32_scans),
                  static_cast<unsigned long long>(ist.f32_refined),
                  ist.f32_scans > 0
                      ? double(ist.f32_refined) / double(ist.f32_scans)
                      : 0.0);
      // Per-tier throughput over this run's wall clock: rows scored
      // by the f64 exact tier (full-precision distance evaluations)
      // and the fp32 mirror tier. Shows where the scan work landed and
      // how fast each tier moved.
      const double wall = r.wall_s > 0.0 ? r.wall_s : 1.0;
      std::printf(
          ", \"tier_throughput\": {\"exact_f64_rows_per_s\": %.1f, "
          "\"exact_f32_rows_per_s\": %.1f}",
          double(ist.distance_computations) / wall,
          double(ist.f32_scans) / wall);
      if (r.degraded_taken > 0) {
        std::printf(", \"degraded_recall\": %.4f, "
                    "\"degraded_mean_bound\": %.6f",
                    r.DegradedRecall(kk), r.MeanBound());
      }
      // Micro-batch size histogram: bucket 0 = size 1, bucket b >= 1
      // = sizes (2^(b-1), 2^b] (query_server.h).
      std::printf(", \"batch_size_hist\": [");
      for (size_t b = 0; b < r.stats.batch_size_hist.size(); ++b) {
        std::printf("%s%llu", b > 0 ? ", " : "",
                    static_cast<unsigned long long>(
                        r.stats.batch_size_hist[b]));
      }
      std::printf("]");
      if (!r.stats.shard_stats.empty()) {
        std::printf(", \"shard_stats\": [");
        for (size_t s = 0; s < r.stats.shard_stats.size(); ++s) {
          const ShardServeStats& ss = r.stats.shard_stats[s];
          std::printf("%s{\"shard\": %zu, \"scans\": %llu, "
                      "\"distance_computations\": %llu, "
                      "\"cache_invalidations\": %llu}",
                      s > 0 ? ", " : "", s,
                      static_cast<unsigned long long>(ss.scans),
                      static_cast<unsigned long long>(
                          ss.distance_computations),
                      static_cast<unsigned long long>(
                          ss.cache_invalidations));
        }
        std::printf("]");
      }
      std::printf("}%s\n", i + 1 < served_rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
  }

  std::printf("serve-bench: %lld records x %lld dims, %zu queries "
              "(%lld unique), k=%zu, batch=%lld\n",
              static_cast<long long>(*records),
              static_cast<long long>(*dim), workload.size(),
              static_cast<long long>(*unique), kk,
              static_cast<long long>(*batch));
  {
    const KernelDispatchInfo kinfo = GetKernelDispatchInfo();
    std::printf("  kernel backend %s (cpu: %s)\n", kinfo.active.c_str(),
                kinfo.cpu_features.c_str());
    std::printf("  exact precision %s\n",
                ExactPrecisionName(
                    ResolveExactPrecision(iopts.index.exact_precision)));
  }
  std::printf("  serving through %lld shard(s), pipeline depth %lld\n",
              static_cast<long long>(*shards),
              static_cast<long long>(*pipeline));
  std::printf("  %-22s %10s %12s %12s\n", "mode", "qps", "p50 (us)",
              "p99 (us)");
  std::printf("  %-22s %10.0f %12.1f %12.1f\n", "exact scan/request",
              exact.qps, exact.p50_us, exact.p99_us);
  std::printf("  %-22s %10.0f %12.1f %12.1f\n", "index/request",
              indexed.qps, indexed.p50_us, indexed.p99_us);
  for (const ServedRow& r : served_rows) {
    char label[32];
    std::snprintf(label, sizeof label, "served (%zu threads)",
                  r.threads);
    std::printf("  %-22s %10.0f %12.1f %12.1f   x%.2f vs scan, "
                "%llu cache hits\n",
                label, r.mode.qps, r.mode.p50_us, r.mode.p99_us,
                exact.qps > 0.0 ? r.mode.qps / exact.qps : 0.0,
                static_cast<unsigned long long>(r.stats.cache_hits));
    if (r.stats.index_stats.f32_scans > 0) {
      const IndexQueryStats& ist = r.stats.index_stats;
      std::printf("  %-22s f32_scans=%llu f32_refined=%llu "
                  "refine_rate=%.4f\n", "",
                  static_cast<unsigned long long>(ist.f32_scans),
                  static_cast<unsigned long long>(ist.f32_refined),
                  double(ist.f32_refined) / double(ist.f32_scans));
    }
    if (r.stats.expired > 0 || r.stats.degraded > 0 ||
        *watermark > 0 || *deadline_us > 0) {
      std::printf("  %-22s expired=%llu degraded=%llu "
                  "queue_high_water=%llu\n", "",
                  static_cast<unsigned long long>(r.stats.expired),
                  static_cast<unsigned long long>(r.stats.degraded),
                  static_cast<unsigned long long>(r.stats.queue_high_water));
    }
    if (r.degraded_taken > 0) {
      std::printf("  %-22s degraded recall@%zu=%.4f mean_bound=%.6f\n",
                  "", kk, r.DegradedRecall(kk), r.MeanBound());
    }
    for (size_t s = 0; s < r.stats.shard_stats.size(); ++s) {
      const ShardServeStats& ss = r.stats.shard_stats[s];
      std::printf("  %-22s shard %zu: scans=%llu dist=%llu "
                  "cache_inval=%llu\n", "", s,
                  static_cast<unsigned long long>(ss.scans),
                  static_cast<unsigned long long>(
                      ss.distance_computations),
                  static_cast<unsigned long long>(
                      ss.cache_invalidations));
    }
  }
  if (used_snapshot) {
    std::printf("  snapshot: %s\n",
                snap_loaded ? "served from reloaded on-disk index"
                            : "rebuilt or repacked from the database");
  }
  uint64_t degraded_checked = 0;
  for (const ServedRow& r : served_rows) degraded_checked += r.degraded_taken;
  std::printf("  (all exact-mode answers were bit-identical; all %llu "
              "degraded answers lay inside [d_i - B, d_i])\n",
              static_cast<unsigned long long>(degraded_checked));
  return 0;
}

// --- kernel-info: dispatch report + backend equivalence gate ----------
//
// Prints which SIMD backend the dispatcher picked (and why it could),
// then verifies every CPU-usable backend against the scalar reference
// across dims 1..67 for every table entry (five f64 ops, four
// fp32-mirror ops, and the three query-block many-to-many/gather ops,
// exercised with out_stride > rows) — the same bit-exactness contract
// the unit tests enforce, exercised on the actual production binary
// and CPU. Also reports per-op backend coverage; a compiled backend
// with a missing (null) table entry fails the gate. Exits 1 on any mismatch
// or hole, so CI can gate on `mocemg_cli kernel-info`.
// run_benchmarks.sh embeds the --json form as BENCH_pr9.json host
// metadata.

bool BitsEqual(double a, double b) {
  uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

bool BitsEqualF(float a, float b) {
  uint32_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

/// Every KernelOps entry with its field name, for coverage reporting.
auto NamedOpPresence(const KernelOps* ops) {
  using Entry = std::pair<const char*, bool>;
  return std::array{
      Entry{"squared_l2_pair", ops->squared_l2_pair != nullptr},
      Entry{"dot_pair", ops->dot_pair != nullptr},
      Entry{"l2_one_to_many", ops->l2_one_to_many != nullptr},
      Entry{"l2dot_one_to_many", ops->l2dot_one_to_many != nullptr},
      Entry{"row_norms", ops->row_norms != nullptr},
      Entry{"l2_f32_one_to_many", ops->l2_f32_one_to_many != nullptr},
      Entry{"l2dot_f32_one_to_many",
            ops->l2dot_f32_one_to_many != nullptr},
      Entry{"row_norms_f32", ops->row_norms_f32 != nullptr},
      Entry{"l2dot_f32d_one_to_many",
            ops->l2dot_f32d_one_to_many != nullptr},
      Entry{"l2dot_many_to_many", ops->l2dot_many_to_many != nullptr},
      Entry{"l2dot_f32_many_to_many",
            ops->l2dot_f32_many_to_many != nullptr},
      Entry{"l2_gather", ops->l2_gather != nullptr},
  };
}

constexpr size_t kNumKernelOps =
    std::tuple_size_v<decltype(NamedOpPresence(nullptr))>;
// A KernelOps is its name plus one function pointer per op, so an op
// added to the table without an entry above fails to compile here
// instead of slipping past the coverage gate.
static_assert(sizeof(KernelOps) ==
                  sizeof(const char*) + kNumKernelOps * sizeof(void (*)()),
              "NamedOpPresence must list every KernelOps function pointer");

Status VerifyKernelEquivalence() {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  if (ref == nullptr) {
    return Status::Unknown("scalar kernel backend missing");
  }
  for (const KernelBackend backend : UsableKernelBackends()) {
    if (backend == KernelBackend::kScalar) continue;
    const KernelOps* ops = GetKernelOps(backend);
    if (ops == nullptr) {
      return Status::Unknown(
          std::string("usable backend has no ops table: ") +
          KernelBackendName(backend));
    }
    const size_t rows = 7;
    for (size_t d = 1; d <= 67; ++d) {
      Rng rng(0xC0FFEE ^ (d * 131 + static_cast<size_t>(backend)));
      std::vector<double> x(d), block(rows * d), norms(rows);
      for (double& v : x) v = rng.Gaussian(0.0, 1.0);
      for (double& v : block) v = rng.Gaussian(0.0, 1.0);
      ref->row_norms(block.data(), rows, d, norms.data());
      const double x_sq = ref->squared_l2_pair(
          x.data(), std::vector<double>(d, 0.0).data(), d);

      const auto fail = [&](const char* op) {
        return Status::Unknown(
            std::string("kernel backend ") + KernelBackendName(backend) +
            " diverges from scalar on " + op + " at dim " +
            std::to_string(d));
      };
      for (size_t r = 0; r < rows; ++r) {
        const double* y = block.data() + r * d;
        if (!BitsEqual(ref->squared_l2_pair(x.data(), y, d),
                       ops->squared_l2_pair(x.data(), y, d))) {
          return fail("squared_l2_pair");
        }
        if (!BitsEqual(ref->dot_pair(x.data(), y, d),
                       ops->dot_pair(x.data(), y, d))) {
          return fail("dot_pair");
        }
      }
      std::vector<double> want(rows), got(rows);
      ref->l2_one_to_many(x.data(), block.data(), rows, d, want.data());
      ops->l2_one_to_many(x.data(), block.data(), rows, d, got.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqual(want[r], got[r])) return fail("l2_one_to_many");
      }
      ref->l2dot_one_to_many(x.data(), x_sq, block.data(), norms.data(),
                             rows, d, want.data());
      ops->l2dot_one_to_many(x.data(), x_sq, block.data(), norms.data(),
                             rows, d, got.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqual(want[r], got[r])) return fail("l2dot_one_to_many");
      }
      ref->row_norms(block.data(), rows, d, want.data());
      ops->row_norms(block.data(), rows, d, got.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqual(want[r], got[r])) return fail("row_norms");
      }
      // fp32-mirror ops: same fixtures narrowed to float, compared at
      // the fp32 bit level (and at the f64 bit level for the
      // fp64-accumulate variant).
      std::vector<float> xf(d), blockf(rows * d), normsf(rows);
      for (size_t i = 0; i < d; ++i) {
        xf[i] = static_cast<float>(x[i]);
      }
      for (size_t i = 0; i < rows * d; ++i) {
        blockf[i] = static_cast<float>(block[i]);
      }
      ref->row_norms_f32(blockf.data(), rows, d, normsf.data());
      float xf_sq = 0.0f;
      ref->row_norms_f32(xf.data(), 1, d, &xf_sq);
      std::vector<float> wantf(rows), gotf(rows);
      ref->l2_f32_one_to_many(xf.data(), blockf.data(), rows, d,
                              wantf.data());
      ops->l2_f32_one_to_many(xf.data(), blockf.data(), rows, d,
                              gotf.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqualF(wantf[r], gotf[r])) {
          return fail("l2_f32_one_to_many");
        }
      }
      ref->l2dot_f32_one_to_many(xf.data(), xf_sq, blockf.data(),
                                 normsf.data(), rows, d, wantf.data());
      ops->l2dot_f32_one_to_many(xf.data(), xf_sq, blockf.data(),
                                 normsf.data(), rows, d, gotf.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqualF(wantf[r], gotf[r])) {
          return fail("l2dot_f32_one_to_many");
        }
      }
      ref->row_norms_f32(blockf.data(), rows, d, wantf.data());
      ops->row_norms_f32(blockf.data(), rows, d, gotf.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqualF(wantf[r], gotf[r])) return fail("row_norms_f32");
      }
      ref->l2dot_f32d_one_to_many(xf.data(), x_sq, blockf.data(),
                                  norms.data(), rows, d, want.data());
      ops->l2dot_f32d_one_to_many(xf.data(), x_sq, blockf.data(),
                                  norms.data(), rows, d, got.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqual(want[r], got[r])) {
          return fail("l2dot_f32d_one_to_many");
        }
      }
      // Query-block many-to-many ops: the whole block must reproduce
      // the one-to-many scalar answer per (query, row) pair, with an
      // out_stride wider than the row count so stride handling is
      // exercised (DESIGN.md §16).
      const size_t nq = 3;
      const size_t ostride = rows + 2;
      std::vector<double> qs(nq * d), q_sqs(nq);
      for (double& v : qs) v = rng.Gaussian(0.0, 1.0);
      ref->row_norms(qs.data(), nq, d, q_sqs.data());
      std::vector<double> wantm(rows), gotm(nq * ostride);
      ops->l2dot_many_to_many(qs.data(), q_sqs.data(), nq, block.data(),
                              norms.data(), rows, d, gotm.data(), ostride);
      for (size_t q = 0; q < nq; ++q) {
        ref->l2dot_one_to_many(qs.data() + q * d, q_sqs[q], block.data(),
                               norms.data(), rows, d, wantm.data());
        for (size_t r = 0; r < rows; ++r) {
          if (!BitsEqual(wantm[r], gotm[q * ostride + r])) {
            return fail("l2dot_many_to_many");
          }
        }
      }
      std::vector<uint32_t> ridx;
      for (size_t r = 0; r < rows; ++r) {
        if ((r + d) % 2 == 0) ridx.push_back(static_cast<uint32_t>(r));
      }
      if (ridx.empty()) ridx.push_back(0);
      std::vector<double> gathered(ridx.size());
      ops->l2_gather(x.data(), block.data(), ridx.data(), ridx.size(), d,
                     gathered.data());
      for (size_t i = 0; i < ridx.size(); ++i) {
        if (!BitsEqual(gathered[i],
                       ref->squared_l2_pair(
                           x.data(), block.data() + ridx[i] * d, d))) {
          return fail("l2_gather");
        }
      }
      std::vector<float> qsf32(nq * d), qsq32(nq);
      for (size_t i = 0; i < nq * d; ++i) {
        qsf32[i] = static_cast<float>(qs[i]);
      }
      ref->row_norms_f32(qsf32.data(), nq, d, qsq32.data());
      std::vector<float> wantmf(rows), gotmf(nq * ostride);
      ops->l2dot_f32_many_to_many(qsf32.data(), qsq32.data(), nq,
                                  blockf.data(), normsf.data(), rows, d,
                                  gotmf.data(), ostride);
      for (size_t q = 0; q < nq; ++q) {
        ref->l2dot_f32_one_to_many(qsf32.data() + q * d, qsq32[q],
                                   blockf.data(), normsf.data(), rows, d,
                                   wantmf.data());
        for (size_t r = 0; r < rows; ++r) {
          if (!BitsEqualF(wantmf[r], gotmf[q * ostride + r])) {
            return fail("l2dot_f32_many_to_many");
          }
        }
      }
    }
  }
  return Status::OK();
}

/// Per-op backend coverage over every compiled backend: any null table
/// entry is a packaging bug worth failing CI for. Returns the coverage
/// lines to print and flags holes via the status.
Status VerifyOpCoverage(std::vector<std::string>* lines) {
  Status holes = Status::OK();
  for (const KernelBackend backend : CompiledKernelBackends()) {
    const KernelOps* ops = GetKernelOps(backend);
    if (ops == nullptr) {
      return Status::Unknown(
          std::string("compiled backend has no ops table: ") +
          KernelBackendName(backend));
    }
    const auto presence = NamedOpPresence(ops);
    std::string missing;
    for (const auto& [name, present] : presence) {
      if (!present) {
        missing += missing.empty() ? name : (std::string(", ") + name);
      }
    }
    std::string line = std::string(KernelBackendName(backend)) + ": ";
    if (missing.empty()) {
      line += "all " + std::to_string(presence.size()) + " ops";
    } else {
      line += "MISSING " + missing;
      holes = Status::Unknown(
          std::string("backend ") + KernelBackendName(backend) +
          " is missing ops: " + missing);
    }
    lines->push_back(std::move(line));
  }
  return holes;
}

int RunKernelInfo(const Args& args) {
  const bool json = args.Has("--json");
  const KernelDispatchInfo info = GetKernelDispatchInfo();
  std::vector<std::string> coverage;
  const Status holes = VerifyOpCoverage(&coverage);
  const Status equiv =
      holes.ok() ? VerifyKernelEquivalence() : holes;
  if (json) {
    std::printf("{\n");
    std::printf("  \"active\": \"%s\",\n", info.active.c_str());
    std::printf("  \"compiled\": \"%s\",\n", info.compiled.c_str());
    std::printf("  \"usable\": \"%s\",\n", info.usable.c_str());
    std::printf("  \"cpu_features\": \"%s\",\n", info.cpu_features.c_str());
    std::printf("  \"env_override\": %s,\n",
                info.env_override ? "true" : "false");
    std::printf("  \"op_coverage\": [");
    for (size_t i = 0; i < coverage.size(); ++i) {
      std::printf("%s\"%s\"", i > 0 ? ", " : "", coverage[i].c_str());
    }
    std::printf("],\n");
    std::printf("  \"op_coverage_ok\": %s,\n",
                holes.ok() ? "true" : "false");
    std::printf("  \"equivalence_ok\": %s\n}\n",
                equiv.ok() ? "true" : "false");
  } else {
    std::printf("kernel dispatch:\n");
    std::printf("  active:       %s%s\n", info.active.c_str(),
                info.env_override ? " (MOCEMG_KERNEL override)" : "");
    std::printf("  compiled:     %s\n", info.compiled.c_str());
    std::printf("  usable:       %s\n", info.usable.c_str());
    std::printf("  cpu features: %s\n", info.cpu_features.c_str());
    std::printf("  op coverage:\n");
    for (const std::string& line : coverage) {
      std::printf("    %s\n", line.c_str());
    }
    const std::string equiv_line =
        equiv.ok() ? "every usable backend bit-identical to scalar "
                     "(dims 1..67, all " +
                         std::to_string(kNumKernelOps) + " ops)"
                   : equiv.ToString();
    std::printf("  equivalence:  %s\n", equiv_line.c_str());
  }
  return equiv.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Args args(argc, argv);
  // --kernel: force the SIMD backend before any kernel runs. Unlike the
  // MOCEMG_KERNEL env override (warning + auto), an explicit flag
  // naming an unusable backend is a hard error.
  const std::string kernel = args.Get("--kernel");
  if (!kernel.empty()) {
    auto backend = ParseKernelBackend(kernel);
    if (!backend.ok()) return Usage();
    Status set = SetKernelBackend(*backend);
    if (!set.ok()) return Fail(set);
  }
  // --exact-precision: pick the exact-scan tier for the subcommands
  // that build indexes. Like --kernel, an unknown name is a hard error
  // rather than the env override's warn-and-default.
  const std::string precision = args.Get("--exact-precision");
  if (!precision.empty()) {
    auto parsed = ParseExactPrecision(precision);
    if (!parsed.ok()) return Fail(parsed.status());
    g_cli_exact_precision = *parsed;
  }
  if (std::strcmp(argv[1], "train") == 0) return RunTrain(args);
  if (std::strcmp(argv[1], "classify") == 0) return RunClassify(args);
  if (std::strcmp(argv[1], "info") == 0) return RunInfo(args);
  if (std::strcmp(argv[1], "serve-bench") == 0)
    return RunServeBench(args);
  if (std::strcmp(argv[1], "kernel-info") == 0)
    return RunKernelInfo(args);
  return Usage();
}
