/// Query-block batch-scan edge cases (DESIGN.md §16): every block
/// size, thread count, shard count, and kernel backend must yield
/// hits, error bounds, and stats bit-identical to the per-query scan.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "db/feature_index.h"
#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "util/kernel_dispatch.h"
#include "util/random.h"

namespace mocemg {
namespace {

MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 4;
    r.label_name = "class" + std::to_string(r.label);
    r.feature.resize(dim);
    const double cx = static_cast<double>(i % 4) * 20.0;
    for (size_t j = 0; j < dim; ++j) {
      r.feature[j] = (j == 0 ? cx : 0.0) + rng.Gaussian(0, 1.0);
    }
    EXPECT_TRUE(db.Insert(std::move(r)).ok());
  }
  return db;
}

std::vector<std::vector<double>> MakeQueries(size_t n, size_t dim,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> queries(n);
  for (auto& q : queries) {
    q.resize(dim);
    for (double& v : q) v = rng.Gaussian(10.0, 15.0);
  }
  return queries;
}

/// The default one-shard index with the given layout/scan options.
Result<ShardedFeatureIndex> BuildIndex(const MotionDatabase* db,
                                       const FeatureIndexOptions& options = {}) {
  ShardedIndexOptions sharded;
  sharded.index = options;
  return ShardedFeatureIndex::Build(db, sharded);
}

void ExpectHitsIdentical(const std::vector<QueryHit>& a,
                         const std::vector<QueryHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record_index, b[i].record_index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

void ExpectStatsEqual(const IndexQueryStats& a, const IndexQueryStats& b) {
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.partitions_visited, b.partitions_visited);
  EXPECT_EQ(a.partitions_pruned, b.partitions_pruned);
  EXPECT_EQ(a.coarse_computations, b.coarse_computations);
  EXPECT_EQ(a.coarse_pruned, b.coarse_pruned);
  EXPECT_EQ(a.f32_scans, b.f32_scans);
  EXPECT_EQ(a.f32_refined, b.f32_refined);
}

struct BackendScope {
  ~BackendScope() { (void)SetKernelBackend(KernelBackend::kAuto); }
};

// Block size 1 degenerates every block to the solo path's shape;
// query counts not divisible by the block leave a ragged tail; a
// block larger than the batch clamps. All must be bit-identical —
// hits AND stats — to the per-query scan, on every usable backend
// and at both exact-tier precisions.
TEST(QueryBlockTest, BlockSizeSweepBitIdenticalToPerQuery) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 41);
  const auto queries = MakeQueries(37, kDim, 42);  // 37: prime, ragged
  BackendScope restore;
  for (KernelBackend backend : UsableKernelBackends()) {
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    for (ExactPrecision prec : {ExactPrecision::kF64, ExactPrecision::kF32}) {
      FeatureIndexOptions opts;
      opts.exact_precision = prec;
      auto index = BuildIndex(&db, opts);
      ASSERT_TRUE(index.ok()) << index.status();
      // Per-query reference answers and per-query summed stats.
      std::vector<std::vector<QueryHit>> ref(queries.size());
      IndexQueryStats ref_stats;
      for (size_t q = 0; q < queries.size(); ++q) {
        IndexQueryStats st;
        auto hits = index->NearestNeighbors(queries[q], 5, &st);
        ASSERT_TRUE(hits.ok()) << hits.status();
        ref[q] = std::move(*hits);
        ref_stats += st;
      }
      for (size_t block : {1, 3, 7, 32, 64}) {
        FeatureIndexOptions bopts = opts;
        bopts.query_block = block;
        auto bindex = BuildIndex(&db, bopts);
        ASSERT_TRUE(bindex.ok()) << bindex.status();
        IndexQueryStats st;
        auto hits = bindex->BatchNearestNeighbors(queries, 5, &st);
        ASSERT_TRUE(hits.ok()) << hits.status();
        ASSERT_EQ(hits->size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          ExpectHitsIdentical(ref[q], (*hits)[q]);
        }
        SCOPED_TRACE(std::string("backend=") + KernelBackendName(backend) +
                     " prec=" + std::to_string(static_cast<int>(prec)) +
                     " block=" + std::to_string(block));
        ExpectStatsEqual(ref_stats, st);
      }
    }
  }
}

// k at or beyond the partition size (and beyond the whole database)
// exercises the never-full-heap paths: the coarse seed loop, the
// frozen entry gate with entry_full=false, and heap_k clamping.
TEST(QueryBlockTest, KAtAndBeyondPartitionAndDatabaseSize) {
  const size_t kDim = 6;
  MotionDatabase db = MakeDb(120, kDim, 51);
  const auto queries = MakeQueries(9, kDim, 52);
  FeatureIndexOptions opts;
  opts.num_partitions = 4;  // ~30 records per partition
  opts.quantized_min_rows = 1;  // force the coarse tier on
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  for (size_t k : {30, 120, 500}) {
    std::vector<std::vector<QueryHit>> ref(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto hits = index->NearestNeighbors(queries[q], k);
      ASSERT_TRUE(hits.ok()) << hits.status();
      ref[q] = std::move(*hits);
    }
    for (size_t block : {1, 4, 32}) {
      FeatureIndexOptions bopts = opts;
      bopts.query_block = block;
      auto bindex = BuildIndex(&db, bopts);
      ASSERT_TRUE(bindex.ok()) << bindex.status();
      auto hits = bindex->BatchNearestNeighbors(queries, k);
      ASSERT_TRUE(hits.ok()) << hits.status();
      for (size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(ref[q].size(), std::min(k, db.size()));
        ExpectHitsIdentical(ref[q], (*hits)[q]);
      }
    }
  }
}

// A non-finite query anywhere in the batch fails the whole batch with
// the offending query's slot in the error context, matching the
// per-query validation error.
TEST(QueryBlockTest, NonFiniteQueriesRejectedWithSlotContext) {
  const size_t kDim = 6;
  MotionDatabase db = MakeDb(80, kDim, 61);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok()) << index.status();
  auto queries = MakeQueries(8, kDim, 62);
  queries[2][3] = std::numeric_limits<double>::quiet_NaN();
  queries[5][0] = std::numeric_limits<double>::infinity();
  auto solo = index->NearestNeighbors(queries[2], 3);
  ASSERT_FALSE(solo.ok());
  auto batch = index->BatchNearestNeighbors(queries, 3);
  ASSERT_FALSE(batch.ok());
  // Lowest offending slot wins; message carries both the per-query
  // validation text and the batch-slot context.
  EXPECT_NE(batch.status().message().find("batch query 2"),
            std::string::npos)
      << batch.status();
  EXPECT_NE(batch.status().message().find("non-finite"), std::string::npos)
      << batch.status();
  auto coarse = index->BatchCoarseNearestNeighbors(queries, 3);
  ASSERT_FALSE(coarse.ok());
  EXPECT_NE(coarse.status().message().find("batch query 2"),
            std::string::npos)
      << coarse.status();
}

// Duplicate queries sharing one block must not perturb each other:
// every copy gets the identical answer, equal to the solo scan.
TEST(QueryBlockTest, DuplicateQueriesInOneBlock) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(200, kDim, 71);
  FeatureIndexOptions opts;
  opts.query_block = 8;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  const auto base = MakeQueries(3, kDim, 72);
  // 8 queries, one block: [a, b, a, a, c, b, a, c].
  std::vector<std::vector<double>> queries = {base[0], base[1], base[0],
                                              base[0], base[2], base[1],
                                              base[0], base[2]};
  auto hits = index->BatchNearestNeighbors(queries, 4);
  ASSERT_TRUE(hits.ok()) << hits.status();
  for (size_t q = 0; q < queries.size(); ++q) {
    auto solo = index->NearestNeighbors(queries[q], 4);
    ASSERT_TRUE(solo.ok());
    ExpectHitsIdentical(*solo, (*hits)[q]);
  }
}

// The sharded (query-block × shard) grid: thread counts 1/2/8 and
// shard counts 1/4 against several block sizes — hits and stats all
// bit-identical to the per-query sharded scan.
TEST(QueryBlockTest, ShardedGridBitIdenticalAcrossThreadsAndBlocks) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 81);
  const auto queries = MakeQueries(23, kDim, 82);  // ragged vs any block
  for (size_t shards : {1, 4}) {
    // Per-query reference through a 1-thread build.
    ShardedIndexOptions ropts;
    ropts.num_shards = shards;
    auto rindex = ShardedFeatureIndex::Build(&db, ropts);
    ASSERT_TRUE(rindex.ok()) << rindex.status();
    std::vector<std::vector<QueryHit>> ref(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto hits = rindex->NearestNeighbors(queries[q], 5);
      ASSERT_TRUE(hits.ok()) << hits.status();
      ref[q] = std::move(*hits);
    }
    std::vector<IndexQueryStats> run_stats;
    for (size_t threads : {1, 2, 8}) {
      for (size_t block : {1, 5, 32}) {
        ShardedIndexOptions opts;
        opts.num_shards = shards;
        opts.index.parallel.max_threads = threads;
        opts.index.query_block = block;
        auto index = ShardedFeatureIndex::Build(&db, opts);
        ASSERT_TRUE(index.ok()) << index.status();
        IndexQueryStats stats;
        auto hits = index->BatchNearestNeighbors(queries, 5, &stats);
        ASSERT_TRUE(hits.ok()) << hits.status();
        for (size_t q = 0; q < queries.size(); ++q) {
          ExpectHitsIdentical(ref[q], (*hits)[q]);
        }
        run_stats.push_back(stats);
      }
    }
    for (size_t r = 1; r < run_stats.size(); ++r) {
      ExpectStatsEqual(run_stats[0], run_stats[r]);
    }
  }
}

// The blocked coarse scan: batch answers AND certified error bounds
// equal CoarseNearestNeighbors per query, across shard counts, thread
// counts, and block sizes.
TEST(QueryBlockTest, CoarseBatchMatchesPerQueryWithBounds) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 91);
  const auto queries = MakeQueries(19, kDim, 92);
  for (size_t shards : {1, 4}) {
    ShardedIndexOptions ropts;
    ropts.num_shards = shards;
    ropts.index.quantized_min_rows = 1;
    auto rindex = ShardedFeatureIndex::Build(&db, ropts);
    ASSERT_TRUE(rindex.ok()) << rindex.status();
    ASSERT_TRUE(rindex->has_quantized_tier());
    std::vector<std::vector<QueryHit>> ref(queries.size());
    std::vector<double> ref_bounds(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto hits =
          rindex->CoarseNearestNeighbors(queries[q], 5, &ref_bounds[q]);
      ASSERT_TRUE(hits.ok()) << hits.status();
      ref[q] = std::move(*hits);
    }
    for (size_t threads : {1, 8}) {
      for (size_t block : {1, 6, 32}) {
        ShardedIndexOptions opts = ropts;
        opts.index.parallel.max_threads = threads;
        opts.index.query_block = block;
        auto index = ShardedFeatureIndex::Build(&db, opts);
        ASSERT_TRUE(index.ok()) << index.status();
        std::vector<double> bounds;
        auto hits = index->BatchCoarseNearestNeighbors(queries, 5, &bounds);
        ASSERT_TRUE(hits.ok()) << hits.status();
        ASSERT_EQ(bounds.size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          ExpectHitsIdentical(ref[q], (*hits)[q]);
          EXPECT_EQ(ref_bounds[q], bounds[q]);
        }
      }
    }
  }
}

// The one-shard coarse batch entry point (the query server's degraded
// drain at the default shard count) against its per-query counterpart.
TEST(QueryBlockTest, SingleIndexCoarseBatchMatchesPerQuery) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(250, kDim, 101);
  const auto queries = MakeQueries(11, kDim, 102);
  FeatureIndexOptions opts;
  opts.quantized_min_rows = 1;
  opts.query_block = 4;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  std::vector<double> bounds;
  auto batch = index->BatchCoarseNearestNeighbors(queries, 5, &bounds);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (size_t q = 0; q < queries.size(); ++q) {
    double bound = 0.0;
    auto solo = index->CoarseNearestNeighbors(queries[q], 5, &bound);
    ASSERT_TRUE(solo.ok());
    ExpectHitsIdentical(*solo, (*batch)[q]);
    EXPECT_EQ(bound, bounds[q]);
  }
}

}  // namespace
}  // namespace mocemg
