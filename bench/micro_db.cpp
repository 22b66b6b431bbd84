// Microbenchmarks: retrieval scaling — linear kNN scan vs the
// cluster-pruned index over growing database sizes, at the final-feature
// dimensionality of the paper's configuration (2c = 30 for c = 15).

#include <benchmark/benchmark.h>

#include <map>

#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "util/logging.h"
#include "util/random.h"

namespace mocemg {
namespace {

// Clustered final-feature-like records (sparse non-negative blocks).
MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 8;
    std::vector<double> f(dim, 0.0);
    // Each class activates its own few clusters, like real final
    // features.
    Rng cls(seed ^ (r.label * 0x9E37ULL));
    for (int k = 0; k < 4; ++k) {
      const size_t at = static_cast<size_t>(cls.NextBelow(dim));
      f[at] = 0.4 + 0.5 * rng.NextDouble();
    }
    r.feature = std::move(f);
    MOCEMG_CHECK_OK(db.Insert(std::move(r)));
  }
  return db;
}

std::vector<double> MakeQuery(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(dim, 0.0);
  for (int k = 0; k < 4; ++k) {
    q[rng.NextBelow(dim)] = rng.NextDouble();
  }
  return q;
}

void BM_LinearKnn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MotionDatabase db = MakeDb(n, 30, 3);
  const auto query = MakeQuery(30, 4);
  for (auto _ : state) {
    auto hits = db.NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_LinearKnn)->Arg(100)->Arg(1000)->Arg(10000);

void BM_IndexedKnn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MotionDatabase db = MakeDb(n, 30, 3);
  auto index = ShardedFeatureIndex::Build(&db);
  MOCEMG_CHECK_OK(index.status());
  const auto query = MakeQuery(30, 4);
  for (auto _ : state) {
    auto hits = index->NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IndexedKnn)->Arg(100)->Arg(1000)->Arg(10000);

// Dimension sweep at fixed n: the paper-typical final-feature width
// (2c = 30) up to 8x wider, where the SoA dot-form scan's advantage
// over pointer-chased AoS rows grows with the row length. Reported in
// BENCH_pr4.json alongside the paired kernel-vs-scalar families of
// micro_distance.
void BM_IndexedKnnDim(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 4000;
  MotionDatabase db = MakeDb(n, dim, 3);
  auto index = ShardedFeatureIndex::Build(&db);
  MOCEMG_CHECK_OK(index.status());
  const auto query = MakeQuery(dim, 4);
  for (auto _ : state) {
    auto hits = index->NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IndexedKnnDim)->Arg(30)->Arg(64)->Arg(128)->Arg(240);

// Paired fp32-exact-tier family (BENCH_pr9.json): mode 0 answers
// through the f64 dot-form scan, mode 1 through the certified fp32
// mirror scan with error-bound-gated double refine. Same binary, same
// pass, identical (bit-for-bit) answers — the ratio is the end-to-end
// indexed-kNN win from halving scan bandwidth. The partition count is
// pinned low so the in-partition scan dominates.
void BM_IndexedKnnF32(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool f32 = state.range(1) == 1;
  const size_t n = 20000;
  static std::map<size_t, MotionDatabase>* dbs =
      new std::map<size_t, MotionDatabase>();
  if (dbs->find(dim) == dbs->end()) {
    dbs->emplace(dim, MakeDb(n, dim, 5));
  }
  const MotionDatabase& db = dbs->at(dim);
  ShardedIndexOptions opts;
  opts.index.num_partitions = 8;
  opts.index.exact_precision =
      f32 ? ExactPrecision::kF32 : ExactPrecision::kF64;
  auto index = ShardedFeatureIndex::Build(&db, opts);
  MOCEMG_CHECK_OK(index.status());
  const auto query = MakeQuery(dim, 6);
  for (auto _ : state) {
    auto hits = index->NearestNeighbors(query, 5);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IndexedKnnF32)
    ->Args({30, 0})->Args({30, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Args({128, 0})->Args({128, 1})
    ->Args({240, 0})->Args({240, 1});

void BM_IndexBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MotionDatabase db = MakeDb(n, 30, 3);
  for (auto _ : state) {
    auto index = ShardedFeatureIndex::Build(&db);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexBuild)->Arg(1000);

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
