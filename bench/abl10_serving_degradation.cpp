// Ablation A10 — serving under overload (§12). Sweeps synthetic batch
// stalls on a fake clock and reports, per stall severity, how the
// robustness policy splits a fixed burst of requests between exact
// answers, degraded (partition-budgeted) answers, and deadline sheds:
//   served     requests answered (exact + degraded)
//   expired    requests failed DeadlineExceeded by the expiry sweep
//   degraded   answers served by the budgeted scan
//   recall@k   degraded answers' overlap with the exact top-k
//   excess     max over degraded ranks i of the distance by which the
//              linear scan's i-th distance falls outside [dᵢ − B, dᵢ]
//              (the certified-interval check; must be <= 0)
// The run closes with a snapshot round-trip check and a determinism
// assertion: the heaviest configuration is re-run and re-threaded and
// must reproduce byte-identical outcomes.
//
// `--smoke` shrinks the dataset so CI can gate on the harness working
// (ctest -L bench-smoke) without paying full measurement cost.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "db/index_snapshot.h"
#include "db/motion_database.h"
#include "db/query_server.h"
#include "db/serving_faults.h"
#include "db/sharded_index.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/distance_kernels.h"
#include "util/logging.h"
#include "util/random.h"

using namespace mocemg;

namespace {

constexpr size_t kK = 5;
constexpr uint64_t kDeadlineUs = 10000;

MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 8;
    r.label_name = "class" + std::to_string(r.label);
    r.feature.resize(dim);
    const double cx = static_cast<double>(i % 8) * 12.0;
    for (size_t j = 0; j < dim; ++j) {
      r.feature[j] = (j == 0 ? cx : 0.0) + rng.Gaussian(0, 1.0);
    }
    MOCEMG_CHECK_OK(db.Insert(std::move(r)));
  }
  return db;
}

std::vector<std::vector<double>> MakeQueries(size_t n, size_t dim,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> queries(n);
  for (auto& q : queries) {
    q.resize(dim);
    for (double& v : q) v = rng.Gaussian(40.0, 30.0);
  }
  return queries;
}

// The linear scan's distance of one record (same kernel bits).
double ScanDistance(const MotionDatabase& db, const std::vector<double>& q,
                    size_t record) {
  return std::sqrt(SquaredL2(
      q.data(), db.packed_features().data() + record * q.size(), q.size()));
}

std::string Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(u));
  return buf;
}

struct PressureResult {
  uint64_t served = 0;
  uint64_t expired = 0;
  uint64_t degraded = 0;
  uint64_t degraded_batches = 0;
  double recall = 1.0;  // over degraded answers; 1 when none
  // Interval violation, max over degraded ranks; certified to be <= 0.
  double max_excess = -HUGE_VAL;
  std::string signature;     // byte-exact outcome tape for determinism
};

PressureResult RunPressure(const MotionDatabase& db,
                           const ShardedFeatureIndex& index,
                           const std::vector<std::vector<double>>& queries,
                           uint64_t stall_us, size_t threads) {
  FakeClock fake;
  ServingFaultOptions fopts;
  fopts.seed = 7;
  fopts.slow_batch_probability = stall_us > 0 ? 1.0 : 0.0;
  fopts.slow_batch_stall_us = stall_us;
  ServingFaultInjector injector(fopts, &fake);

  QueryServerOptions opts;
  opts.clock = &fake;
  opts.faults = &injector;
  opts.max_batch = 8;
  opts.max_queue = queries.size();
  opts.degrade_watermark = queries.size() / 2;
  opts.default_deadline_us = kDeadlineUs;
  opts.cache_capacity = 0;
  opts.parallel.max_threads = threads;
  auto server = QueryServer::Create(&db, &index, opts);
  MOCEMG_CHECK_OK(server.status());

  std::vector<uint64_t> tickets(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto ticket = server->SubmitNearestNeighbors(queries[i], kK);
    MOCEMG_CHECK_OK(ticket.status());
    tickets[i] = *ticket;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    (void)server->DrainOnce();
  }

  PressureResult out;
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto answer = server->TakeAnswer(tickets[i]);
    if (!answer.ok()) {
      MOCEMG_CHECK(answer.status().IsDeadlineExceeded());
      ++out.expired;
      out.signature += "E|";
      continue;
    }
    ++out.served;
    auto truth = db.NearestNeighbors(queries[i], kK);
    MOCEMG_CHECK_OK(truth.status());
    if (answer->degraded) {
      ++out.degraded;
      out.signature += "D:";
      std::set<size_t> exact_set;
      for (const auto& h : *truth) exact_set.insert(h.record_index);
      size_t overlap = 0;
      MOCEMG_CHECK(answer->hits.size() == truth->size());
      for (size_t h = 0; h < truth->size(); ++h) {
        const QueryHit& hit = answer->hits[h];
        MOCEMG_CHECK(hit.distance ==
                     ScanDistance(db, queries[i], hit.record_index));
        overlap += exact_set.count(hit.record_index);
        const double t = (*truth)[h].distance;
        const double excess = std::max(
            t - hit.distance, hit.distance - answer->error_bound - t);
        if (excess > out.max_excess) out.max_excess = excess;
        out.signature += std::to_string(hit.record_index) + "@" +
                         Bits(hit.distance) + ",";
      }
      out.signature += "b" + Bits(answer->error_bound) + "|";
      recall_sum +=
          static_cast<double>(overlap) / static_cast<double>(kK);
    } else {
      // Exact answers must be bit-identical to the linear scan.
      MOCEMG_CHECK(answer->hits.size() == truth->size());
      out.signature += "X:";
      for (size_t h = 0; h < truth->size(); ++h) {
        MOCEMG_CHECK(answer->hits[h].record_index ==
                     (*truth)[h].record_index);
        MOCEMG_CHECK(answer->hits[h].distance == (*truth)[h].distance);
        out.signature += std::to_string(answer->hits[h].record_index) +
                         "@" + Bits(answer->hits[h].distance) + ",";
      }
      out.signature += "|";
    }
  }
  if (out.degraded > 0) {
    out.recall = recall_sum / static_cast<double>(out.degraded);
  }
  const QueryServerStats stats = server->stats();
  MOCEMG_CHECK(stats.expired == out.expired);
  MOCEMG_CHECK(stats.degraded == out.degraded);
  out.degraded_batches = stats.degraded_batches;
  return out;
}

// Reads the manifest and its shard files as one byte string.
std::string SnapshotBytes(const std::string& path, size_t num_shards) {
  std::string bytes;
  for (size_t s = 0; s <= num_shards; ++s) {
    const std::string file =
        s == 0 ? path : path + ".shard" + std::to_string(s - 1);
    auto part = ReadFileToString(file);
    MOCEMG_CHECK_OK(part.status());
    bytes += *part;
  }
  return bytes;
}

void RemoveSnapshot(const std::string& path, size_t num_shards) {
  std::remove(path.c_str());
  for (size_t s = 0; s < num_shards; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

void CheckSnapshotRoundTrip(const MotionDatabase& db,
                            const ShardedFeatureIndex& index,
                            const ShardedIndexOptions& iopts) {
  const std::string path = "/tmp/abl10_snapshot.bin";
  const std::string resaved = path + ".resaved";
  const size_t shards = index.num_shards();
  MOCEMG_CHECK_OK(SaveShardedFeatureIndex(index, path));
  ShardedSnapshotLoadInfo info;
  auto loaded = LoadOrRebuildShardedFeatureIndex(path, &db, iopts, &info);
  MOCEMG_CHECK_OK(loaded.status());
  MOCEMG_CHECK(info.loaded_from_snapshot);
  MOCEMG_CHECK_OK(SaveShardedFeatureIndex(*loaded, resaved));
  const std::string a = SnapshotBytes(path, shards);
  MOCEMG_CHECK(a == SnapshotBytes(resaved, shards));
  RemoveSnapshot(path, shards);
  RemoveSnapshot(resaved, shards);
  std::printf("# snapshot round-trip: OK (%zu bytes, reload "
              "re-serializes bit-identically)\n",
              a.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t records = smoke ? 256 : 2048;
  const size_t dim = smoke ? 8 : 16;
  const size_t burst = smoke ? 24 : 64;

  std::printf("# Ablation A10 — serving degradation under overload\n");
  std::printf("# records=%zu dim=%zu burst=%zu k=%zu max_batch=8 "
              "watermark=burst/2 deadline=%lluus%s\n",
              records, dim, burst, kK,
              static_cast<unsigned long long>(kDeadlineUs),
              smoke ? " (smoke)" : "");

  MotionDatabase db = MakeDb(records, dim, 17);
  ShardedIndexOptions iopts;
  auto index = ShardedFeatureIndex::Build(&db, iopts);
  MOCEMG_CHECK_OK(index.status());
  auto queries = MakeQueries(burst, dim, 18);

  CheckSnapshotRoundTrip(db, *index, iopts);

  std::printf("stall_us\tserved\texpired\tdegraded\tdeg_batches\t"
              "recall@%zu\tbound_excess\n", kK);
  for (uint64_t stall_us : {0ull, 1000ull, 2000ull, 4000ull, 8000ull}) {
    PressureResult r = RunPressure(db, *index, queries, stall_us, 1);
    MOCEMG_CHECK(r.max_excess <= 0.0);
    std::printf("%llu\t%llu\t%llu\t%llu\t%llu\t%.3f\t%.3g\n",
                static_cast<unsigned long long>(stall_us),
                static_cast<unsigned long long>(r.served),
                static_cast<unsigned long long>(r.expired),
                static_cast<unsigned long long>(r.degraded),
                static_cast<unsigned long long>(r.degraded_batches),
                r.recall, r.max_excess);
    std::fflush(stdout);
  }

  // Determinism: the heaviest configuration must reproduce exactly —
  // same outcome kinds, same records, same distance bits, same bounds
  // — across a re-run and across worker-thread budgets.
  PressureResult base = RunPressure(db, *index, queries, 2000, 1);
  for (size_t threads : {1, 2, 8}) {
    PressureResult again = RunPressure(db, *index, queries, 2000, threads);
    MOCEMG_CHECK(again.signature == base.signature);
    MOCEMG_CHECK(again.served == base.served);
    MOCEMG_CHECK(again.expired == base.expired);
    MOCEMG_CHECK(again.degraded == base.degraded);
  }
  std::printf("# determinism: OK (stall=2000us byte-identical across "
              "re-run and threads 1/2/8)\n");
  return 0;
}
