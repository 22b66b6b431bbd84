// Microbenchmarks: the batched query-serving front end vs per-request
// exact scans — the §11.1 serving path measured as paired families so
// the per-pass ratio cancels host load. bench/gates.py gates the
// Robust and Mutate pairs and BM_BatchedKnn.
//
//   BM_ServedKnnBatch/<mode>   mode 0: per-request linear scan loop
//                              mode 1: QueryServer micro-batch through
//                                      the index, cache OFF —
//                                      isolates batching + index.
//   BM_ServedKnnCached/<mode>  same pairing over a workload where every
//                              query repeats, with the cache ON — the
//                              steady-state hot-working-set regime the
//                              result cache is for.
//   BM_ServedKnnRobust/<mode>  mode 0: PR 5 serving path, no robustness
//                                      features configured.
//                              mode 1: the same path with the §12
//                                      robustness machinery armed but
//                                      never firing (deadline far in the
//                                      future, watermark above any
//                                      reachable depth) — measures the
//                                      overhead of deadline stamping,
//                                      expiry sweeps, and the watermark
//                                      check on the non-degraded fast
//                                      path (gated: < 5%).
//   BM_ShardedKnn/<S>          scatter-gather batch kNN at S shards, one
//                              thread — the fan-out overhead sweep.
//   BM_ServedKnnSharded/<mode> mode 0: 1-shard server; mode 1: 4-shard
//                              server (annotated, not gated).
//   BM_ServedKnnMutate/<mode>  mutate-then-serve passes. mode 0: 1-shard
//                              index left stale (no ApplyUpdate) → exact
//                              fallback + full cache loss.
//                              mode 1: ApplyUpdate + shard-aware
//                              revalidation keeps the untouched shards'
//                              cache entries (gated: no loss).
//   BM_BatchedKnn/<batch>/<dim>/<mode>
//                              mode 0: batch × NearestNeighbors in a
//                              loop — blocks of one query through the
//                              same query-block engine; mode 1: one
//                              BatchNearestNeighbors call (blocks of
//                              up to 32). Identical index, one thread
//                              — the ratio isolates what sharing a
//                              partition's bytes across a block buys
//                              (DESIGN.md §16) from parallelism and
//                              caching (gated on SIMD hosts: no loss,
//                              1.3x at batch >= 16, dim >= 30).
//
// Results are bit-identical between the modes by construction (the
// server's contract); the families measure only how fast the same
// answers arrive.

#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "db/motion_database.h"
#include "db/query_server.h"
#include "db/sharded_index.h"
#include "util/logging.h"
#include "util/random.h"

namespace mocemg {
namespace {

constexpr size_t kRecords = 8192;
constexpr size_t kDim = 64;
constexpr size_t kK = 5;

// Clustered final-feature-like records, same shape as micro_db.
MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
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

std::vector<std::vector<double>> MakeQueries(size_t count, size_t dim,
                                             uint64_t seed) {
  std::vector<std::vector<double>> queries(count);
  for (size_t i = 0; i < count; ++i) {
    Rng rng(seed + i);
    std::vector<double> q(dim, 0.0);
    for (int k = 0; k < 4; ++k) q[rng.NextBelow(dim)] = rng.NextDouble();
    queries[i] = std::move(q);
  }
  return queries;
}

const MotionDatabase& SharedDb() {
  static const MotionDatabase* db =
      new MotionDatabase(MakeDb(kRecords, kDim, 11));
  return *db;
}

// The default (1-shard) index over SharedDb().
const ShardedFeatureIndex& SharedIndex() {
  static const ShardedFeatureIndex* index = [] {
    auto built = ShardedFeatureIndex::Build(&SharedDb());
    MOCEMG_CHECK_OK(built.status());
    return new ShardedFeatureIndex(std::move(*built));
  }();
  return *index;
}

void ServeWorkload(benchmark::State& state,
                   const std::vector<std::vector<double>>& workload,
                   size_t cache_capacity) {
  const bool served = state.range(0) == 1;
  if (served) {
    QueryServerOptions opts;
    opts.max_batch = 64;
    opts.cache_capacity = cache_capacity;
    opts.parallel.max_threads = 1;
    auto server = QueryServer::Create(&SharedDb(), &SharedIndex(), opts);
    MOCEMG_CHECK_OK(server.status());
    for (auto _ : state) {
      auto hits = server->NearestNeighborsBatch(workload, kK);
      benchmark::DoNotOptimize(hits);
      MOCEMG_CHECK_OK(hits.status());
    }
  } else {
    for (auto _ : state) {
      for (const auto& q : workload) {
        auto hits = SharedDb().NearestNeighbors(q, kK);
        benchmark::DoNotOptimize(hits);
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload.size()));
}

// All-unique workload, cache off: the win is micro-batching through the
// index alone.
void BM_ServedKnnBatch(benchmark::State& state) {
  static const auto* workload =
      new std::vector<std::vector<double>>(MakeQueries(64, kDim, 101));
  ServeWorkload(state, *workload, /*cache_capacity=*/0);
}
BENCHMARK(BM_ServedKnnBatch)->Arg(0)->Arg(1);

// Hot-working-set workload (16 unique queries, each repeated 4x) with
// the cache on. After the first iteration every request is a cache hit
// — the steady state a serving front end actually runs in.
void BM_ServedKnnCached(benchmark::State& state) {
  static const auto* workload = [] {
    auto uniq = MakeQueries(16, kDim, 202);
    auto* w = new std::vector<std::vector<double>>();
    for (size_t rep = 0; rep < 4; ++rep) {
      for (const auto& q : uniq) w->push_back(q);
    }
    return w;
  }();
  ServeWorkload(state, *workload, /*cache_capacity=*/4096);
}
BENCHMARK(BM_ServedKnnCached)->Arg(0)->Arg(1);

// Scatter-gather through a ShardedFeatureIndex at S shards, single
// thread: measures the pure cost of per-shard heaps + fixed-order
// merge relative to the one-shard scan (S=1). The answers are
// bit-identical at every S; with one worker the fan-out is overhead,
// and the sweep quantifies it. On multi-core hosts the shards scan
// concurrently and the sweep turns into the speedup curve.
void BM_ShardedKnn(benchmark::State& state) {
  static const auto* workload =
      new std::vector<std::vector<double>>(MakeQueries(64, kDim, 404));
  const size_t shards = static_cast<size_t>(state.range(0));
  ShardedIndexOptions sopts;
  sopts.num_shards = shards;
  sopts.index.parallel.max_threads = 1;
  auto index = ShardedFeatureIndex::Build(&SharedDb(), sopts);
  MOCEMG_CHECK_OK(index.status());
  for (auto _ : state) {
    auto hits = index->BatchNearestNeighbors(*workload, kK);
    benchmark::DoNotOptimize(hits);
    MOCEMG_CHECK_OK(hits.status());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload->size()));
}
BENCHMARK(BM_ShardedKnn)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// 1-shard serving vs 4-shard serving, identical workload and answers:
// the pair measures what fanning one address space out into shards
// costs or buys. The ratio is recorded, not gated.
void BM_ServedKnnSharded(benchmark::State& state) {
  static const auto* workload =
      new std::vector<std::vector<double>>(MakeQueries(64, kDim, 505));
  const bool sharded = state.range(0) == 1;
  QueryServerOptions opts;
  opts.max_batch = 16;
  opts.cache_capacity = 0;
  opts.parallel.max_threads = 1;
  if (sharded) {
    static const ShardedFeatureIndex* index = [] {
      ShardedIndexOptions sopts;
      sopts.num_shards = 4;
      sopts.index.parallel.max_threads = 1;
      auto built = ShardedFeatureIndex::Build(&SharedDb(), sopts);
      MOCEMG_CHECK_OK(built.status());
      return new ShardedFeatureIndex(std::move(*built));
    }();
    auto server = QueryServer::Create(&SharedDb(), index, opts);
    MOCEMG_CHECK_OK(server.status());
    for (auto _ : state) {
      auto hits = server->NearestNeighborsBatch(*workload, kK);
      benchmark::DoNotOptimize(hits);
      MOCEMG_CHECK_OK(hits.status());
    }
  } else {
    auto server = QueryServer::Create(&SharedDb(), &SharedIndex(), opts);
    MOCEMG_CHECK_OK(server.status());
    for (auto _ : state) {
      auto hits = server->NearestNeighborsBatch(*workload, kK);
      benchmark::DoNotOptimize(hits);
      MOCEMG_CHECK_OK(hits.status());
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload->size()));
}
BENCHMARK(BM_ServedKnnSharded)->Arg(0)->Arg(1);

// The mutate-while-serving regime the sharded cache key exists for:
// each pass mutates one record, then serves a hot working set of
// queries whose answers live mostly in OTHER shards.
//
//   mode 0: 1-shard server that never applies the update. The
//           mutation leaves the index stale — every request falls back
//           to the exact scan and the whole result cache invalidates
//           on the epoch bump.
//   mode 1: 4-shard server with ApplyUpdate absorbed between passes —
//           the index stays fresh, and only cache entries that
//           provably depended on the mutated shard re-evaluate; the
//           rest revalidate in place.
//
// The mutation alternates between two values so every pass does the
// same work and the pair stays deterministic.
void BM_ServedKnnMutate(benchmark::State& state) {
  const bool sharded = state.range(0) == 1;
  constexpr size_t kMutated = 7;
  // Per-mode database: mutations must not leak across modes.
  static MotionDatabase* dbs[2] = {nullptr, nullptr};
  MotionDatabase*& db = dbs[sharded ? 1 : 0];
  if (db == nullptr) db = new MotionDatabase(MakeDb(kRecords, kDim, 11));
  // Hot working set: perturbed copies of stored records, so each
  // query's neighbours sit tightly in one partition and the
  // revalidation certificate has small radii to certify against.
  static const auto* workload = [] {
    auto* w = new std::vector<std::vector<double>>();
    const MotionDatabase& seed_db = SharedDb();
    for (size_t i = 0; i < 48; ++i) {
      std::vector<double> q = seed_db.record((i * 37 + 1) % kRecords).feature;
      q[(i * 5) % kDim] += 0.01;
      w->push_back(std::move(q));
    }
    return w;
  }();
  QueryServerOptions opts;
  opts.max_batch = 16;
  opts.cache_capacity = 4096;
  opts.parallel.max_threads = 1;

  std::vector<double> base = db->record(kMutated).feature;
  std::vector<double> alt = base;
  alt[1] += 0.1;
  bool flip = false;

  if (sharded) {
    ShardedIndexOptions sopts;
    sopts.num_shards = 4;
    sopts.index.parallel.max_threads = 1;
    auto built = ShardedFeatureIndex::Build(db, sopts);
    MOCEMG_CHECK_OK(built.status());
    ShardedFeatureIndex index(std::move(*built));
    auto server = QueryServer::Create(db, &index, opts);
    MOCEMG_CHECK_OK(server.status());
    for (auto _ : state) {
      MOCEMG_CHECK_OK(
          db->UpdateFeature(kMutated, (flip = !flip) ? alt : base));
      // The inline serve path is synchronous — nothing is in flight,
      // so the in-place ApplyUpdate is quiesced by construction.
      MOCEMG_CHECK_OK(index.ApplyUpdate(kMutated));
      auto hits = server->NearestNeighborsBatch(*workload, kK);
      benchmark::DoNotOptimize(hits);
      MOCEMG_CHECK_OK(hits.status());
    }
  } else {
    auto built = ShardedFeatureIndex::Build(db);
    MOCEMG_CHECK_OK(built.status());
    ShardedFeatureIndex index(std::move(*built));
    auto server = QueryServer::Create(db, &index, opts);
    MOCEMG_CHECK_OK(server.status());
    for (auto _ : state) {
      MOCEMG_CHECK_OK(
          db->UpdateFeature(kMutated, (flip = !flip) ? alt : base));
      auto hits = server->NearestNeighborsBatch(*workload, kK);
      benchmark::DoNotOptimize(hits);
      MOCEMG_CHECK_OK(hits.status());
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload->size()));
}
BENCHMARK(BM_ServedKnnMutate)->Arg(0)->Arg(1);

// Robustness-armed vs plain serving over the identical workload. Both
// modes run the server; mode 1 additionally stamps deadlines, sweeps
// for expiry at batch formation, and evaluates the degradation
// watermark — none of which fire (the deadline is an hour, the
// watermark is far above the queue's reach), so the pair isolates the
// pure bookkeeping overhead of the robustness layer.
void BM_ServedKnnRobust(benchmark::State& state) {
  static const auto* workload =
      new std::vector<std::vector<double>>(MakeQueries(64, kDim, 303));
  const bool robust = state.range(0) == 1;
  QueryServerOptions opts;
  opts.max_batch = 64;
  opts.cache_capacity = 0;
  opts.parallel.max_threads = 1;
  if (robust) {
    opts.default_deadline_us = 3600ULL * 1000 * 1000;  // never expires
    opts.degrade_watermark = opts.max_queue;           // never reached
  }
  auto server = QueryServer::Create(&SharedDb(), &SharedIndex(), opts);
  MOCEMG_CHECK_OK(server.status());
  for (auto _ : state) {
    auto hits = server->NearestNeighborsBatch(*workload, kK);
    benchmark::DoNotOptimize(hits);
    MOCEMG_CHECK_OK(hits.status());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload->size()));
}
// 1 s per mode: at the suite's 0.1 s the pair read 0.88–0.99 on
// identical binaries, too noisy for its 0.95 gate.
BENCHMARK(BM_ServedKnnRobust)->Arg(0)->Arg(1)->MinTime(1.0);

// Per-query loop (blocks of one) vs whole-batch query blocks over the
// identical single-thread index and the same scan engine. Answers are
// bit-identical by the §16 contract; the pair measures only how fast
// the same answers arrive as the block grows and the per-partition
// bytes amortize.
void BM_BatchedKnn(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const bool batched = state.range(2) == 1;
  struct Fixture {
    MotionDatabase db;
    ShardedFeatureIndex index;
  };
  static std::map<size_t, Fixture*>* fixtures =
      new std::map<size_t, Fixture*>();
  Fixture*& fx = (*fixtures)[dim];
  if (fx == nullptr) {
    fx = new Fixture{MakeDb(kRecords, dim, 11), ShardedFeatureIndex()};
    ShardedIndexOptions iopts;
    iopts.index.parallel.max_threads = 1;
    auto built = ShardedFeatureIndex::Build(&fx->db, iopts);
    MOCEMG_CHECK_OK(built.status());
    fx->index = std::move(*built);
  }
  const std::vector<std::vector<double>> workload =
      MakeQueries(batch, dim, 606 + dim);
  if (batched) {
    for (auto _ : state) {
      auto hits = fx->index.BatchNearestNeighbors(workload, kK);
      benchmark::DoNotOptimize(hits);
      MOCEMG_CHECK_OK(hits.status());
    }
  } else {
    for (auto _ : state) {
      for (const auto& q : workload) {
        auto hits = fx->index.NearestNeighbors(q, kK);
        benchmark::DoNotOptimize(hits);
        MOCEMG_CHECK_OK(hits.status());
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * workload.size()));
}
BENCHMARK(BM_BatchedKnn)
    ->Args({4, 16, 0})
    ->Args({4, 16, 1})
    ->Args({16, 64, 0})
    ->Args({16, 64, 1})
    ->Args({64, 64, 0})
    ->Args({64, 64, 1})
    ->Args({64, 240, 0})
    ->Args({64, 240, 1});

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
