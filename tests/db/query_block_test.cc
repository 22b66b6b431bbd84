/// Query-block scan edge cases (DESIGN.md §16). Single queries and
/// batches of every size run through the same (query-block × shard)
/// engine, so the reference is the database's linear scan: exact hits
/// must equal it bit for bit on every backend and precision, and stats
/// must not depend on the batch size, thread count or shard count.
/// Degraded (budgeted) answers must keep their certified interval and
/// equal their single-query answers; the full degraded grid is the kNN
/// oracle's (knn_oracle_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
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

/// Exact hits equal the database's linear scan, bit for bit.
void ExpectMatchesLinearScan(const MotionDatabase& db,
                             const std::vector<double>& query, size_t k,
                             const std::vector<QueryHit>& hits) {
  auto linear = db.NearestNeighbors(query, k);
  ASSERT_TRUE(linear.ok()) << linear.status();
  ExpectHitsIdentical(*linear, hits);
}

/// The degraded answer keeps the ServedAnswer contract against the
/// linear scan: every hit's distance is the linear-scan distance of the
/// record it names, bit for bit, and the linear scan's i-th distance
/// lies in [dᵢ − B, dᵢ].
void ExpectCertified(const MotionDatabase& db,
                     const std::vector<double>& query,
                     const std::vector<QueryHit>& hits, double bound) {
  auto all = db.NearestNeighbors(query, db.size());
  ASSERT_TRUE(all.ok()) << all.status();
  std::vector<double> record_distance(db.size());
  for (const QueryHit& h : *all) record_distance[h.record_index] = h.distance;
  ASSERT_GE(bound, 0.0);
  ASSERT_LE(hits.size(), all->size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].distance, record_distance[hits[i].record_index])
        << "rank " << i;
    EXPECT_LE((*all)[i].distance, hits[i].distance) << "rank " << i;
    EXPECT_LE(hits[i].distance - bound, (*all)[i].distance)
        << "rank " << i << " bound " << bound;
  }
}

void ExpectStatsEqual(const IndexQueryStats& a, const IndexQueryStats& b) {
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.partitions_visited, b.partitions_visited);
  EXPECT_EQ(a.partitions_pruned, b.partitions_pruned);
  EXPECT_EQ(a.f32_scans, b.f32_scans);
  EXPECT_EQ(a.f32_refined, b.f32_refined);
}

/// Answers `queries` in consecutive batches of `batch` (the last one
/// ragged) and returns every query's hits plus the summed stats.
/// Batch size 1 goes through the single-query entry point.
std::vector<std::vector<QueryHit>> AnswerInBatches(
    const ShardedFeatureIndex& index,
    const std::vector<std::vector<double>>& queries, size_t k, size_t batch,
    IndexQueryStats* total) {
  std::vector<std::vector<QueryHit>> out;
  *total = IndexQueryStats{};
  for (size_t q0 = 0; q0 < queries.size(); q0 += batch) {
    IndexQueryStats st;
    if (batch == 1) {
      auto hits = index.NearestNeighbors(queries[q0], k, &st);
      EXPECT_TRUE(hits.ok()) << hits.status();
      if (!hits.ok()) return out;
      out.push_back(std::move(*hits));
    } else {
      const size_t q1 = std::min(queries.size(), q0 + batch);
      std::vector<std::vector<double>> slice(queries.begin() + q0,
                                             queries.begin() + q1);
      auto hits = index.BatchNearestNeighbors(slice, k, &st);
      EXPECT_TRUE(hits.ok()) << hits.status();
      if (!hits.ok()) return out;
      for (auto& h : *hits) out.push_back(std::move(h));
    }
    *total += st;
  }
  return out;
}

struct BackendScope {
  ~BackendScope() { (void)SetKernelBackend(KernelBackend::kAuto); }
};

// The batch sizes cover a single query (1), ragged tails (3, 7, 31,
// 33, 70 against the 32-query block), an exactly full block (32) and
// several whole blocks (64). Every shape must equal the linear scan —
// on every usable backend, at both exact-tier precisions — and must
// fold to the same stats.
TEST(QueryBlockTest, BatchSizeSweepBitIdenticalToLinearScan) {
  const size_t kDim = 8;
  const size_t kBatches[] = {1, 3, 7, 31, 32, 33, 64, 70};
  MotionDatabase db = MakeDb(300, kDim, 41);
  const auto queries = MakeQueries(70, kDim, 42);
  BackendScope restore;
  for (KernelBackend backend : UsableKernelBackends()) {
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    for (ExactPrecision prec : {ExactPrecision::kF64, ExactPrecision::kF32}) {
      SCOPED_TRACE(std::string("backend=") + KernelBackendName(backend) +
                   " prec=" + ExactPrecisionName(prec));
      FeatureIndexOptions opts;
      opts.exact_precision = prec;
      opts.num_partitions = 8;  // ~37 rows each
      auto index = BuildIndex(&db, opts);
      ASSERT_TRUE(index.ok()) << index.status();
      IndexQueryStats ref_stats;
      for (size_t batch : kBatches) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        IndexQueryStats st;
        const auto hits = AnswerInBatches(*index, queries, 5, batch, &st);
        ASSERT_EQ(hits.size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          ExpectMatchesLinearScan(db, queries[q], 5, hits[q]);
        }
        if (batch == 1) {
          ref_stats = st;
          // The sweep exercises the tier it claims to.
          EXPECT_EQ(st.f32_scans > 0, prec == ExactPrecision::kF32);
        }
        ExpectStatsEqual(ref_stats, st);
      }
    }
  }
}

// k at or beyond the partition size (and beyond the whole database)
// exercises the never-full-heap paths: the frozen entry gate with
// entry_full=false and heap_k clamping.
TEST(QueryBlockTest, KAtAndBeyondPartitionAndDatabaseSize) {
  const size_t kDim = 6;
  MotionDatabase db = MakeDb(120, kDim, 51);
  const auto queries = MakeQueries(9, kDim, 52);
  FeatureIndexOptions opts;
  opts.num_partitions = 4;  // ~30 records per partition
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  for (size_t k : {30, 120, 500}) {
    for (size_t batch : {1, 4, 9}) {
      IndexQueryStats st;
      const auto hits = AnswerInBatches(*index, queries, k, batch, &st);
      ASSERT_EQ(hits.size(), queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(hits[q].size(), std::min(k, db.size()));
        ExpectMatchesLinearScan(db, queries[q], k, hits[q]);
      }
    }
  }
}

// A non-finite query anywhere in the batch fails the whole batch with
// the offending query's slot in the error context; the same query
// answered alone fails with the bare validation error.
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
  EXPECT_EQ(solo.status().message().find("batch query"), std::string::npos)
      << solo.status();
  auto batch = index->BatchNearestNeighbors(queries, 3);
  ASSERT_FALSE(batch.ok());
  // Lowest offending slot wins; message carries both the per-query
  // validation text and the batch-slot context.
  EXPECT_NE(batch.status().message().find("batch query 2"),
            std::string::npos)
      << batch.status();
  EXPECT_NE(batch.status().message().find("non-finite"), std::string::npos)
      << batch.status();
  auto budgeted = index->BatchBudgetedNearestNeighbors(queries, 3);
  ASSERT_FALSE(budgeted.ok());
  EXPECT_NE(budgeted.status().message().find("batch query 2"),
            std::string::npos)
      << budgeted.status();
}

// The single-query entry point validates exactly like the batch ones
// but reports the bare per-query error: code and full text are pinned
// for every precondition. The budgeted batch entry point fails with the
// same code and text behind its slot context.
TEST(QueryBlockTest, SingleQueryErrorStatusesPinned) {
  const size_t kDim = 4;
  MotionDatabase db = MakeDb(60, kDim, 65);
  FeatureIndexOptions opts;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::vector<double> good = {1, 2, 3, 4};
  const std::vector<double> nan = {
      1, std::numeric_limits<double>::quiet_NaN(), 3, 4};
  ShardedFeatureIndex unbuilt;
  struct Case {
    const char* name;
    const ShardedFeatureIndex* index;
    std::vector<double> query;
    size_t k;
    StatusCode code;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"unbuilt", &unbuilt, good, 3, StatusCode::kFailedPrecondition,
       "index is not built"},
      {"dimension", &*index, {1.0}, 3, StatusCode::kInvalidArgument,
       "query dimension mismatch"},
      {"k=0", &*index, good, 0, StatusCode::kInvalidArgument,
       "k must be >= 1"},
      {"non-finite", &*index, nan, 3, StatusCode::kInvalidArgument,
       "query feature contains a non-finite value"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto exact = c.index->NearestNeighbors(c.query, c.k);
    ASSERT_FALSE(exact.ok());
    EXPECT_EQ(exact.status().code(), c.code);
    EXPECT_EQ(exact.status().message(), c.message);
    std::vector<double> bounds = {-1.0};
    auto budgeted =
        c.index->BatchBudgetedNearestNeighbors({c.query}, c.k, &bounds);
    ASSERT_FALSE(budgeted.ok());
    EXPECT_EQ(budgeted.status().code(), c.code);
    EXPECT_EQ(budgeted.status().message(),
              "while answering batch query 0: " + c.message);
    EXPECT_EQ(bounds, std::vector<double>{-1.0});  // untouched on failure
  }
  // Stale epoch: the database mutated past the index's applied epoch.
  MotionDatabase stale_db = MakeDb(60, kDim, 66);
  auto stale = BuildIndex(&stale_db, opts);
  ASSERT_TRUE(stale.ok()) << stale.status();
  ASSERT_TRUE(stale_db.UpdateFeature(0, good).ok());
  const std::string stale_msg =
      "index is stale: the database mutated (epoch 61) past the last "
      "applied epoch 60; call ApplyUpdate() or Rebuild()";
  auto exact = stale->NearestNeighbors(good, 3);
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(exact.status().message(), stale_msg);
  auto budgeted = stale->BatchBudgetedNearestNeighbors({good}, 3);
  ASSERT_FALSE(budgeted.ok());
  EXPECT_EQ(budgeted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(budgeted.status().message(),
            "while answering batch query 0: " + stale_msg);
}

// Duplicate queries sharing one block must not perturb each other:
// every copy gets the identical answer, equal to the linear scan.
TEST(QueryBlockTest, DuplicateQueriesInOneBlock) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(200, kDim, 71);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok()) << index.status();
  const auto base = MakeQueries(3, kDim, 72);
  // 8 queries, one block: [a, b, a, a, c, b, a, c].
  std::vector<std::vector<double>> queries = {base[0], base[1], base[0],
                                              base[0], base[2], base[1],
                                              base[0], base[2]};
  auto hits = index->BatchNearestNeighbors(queries, 4);
  ASSERT_TRUE(hits.ok()) << hits.status();
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectMatchesLinearScan(db, queries[q], 4, (*hits)[q]);
  }
}

// The sharded (query-block × shard) grid: thread counts 1/2/8 and
// shard counts 1/4 against several batch sizes — hits equal the linear
// scan and stats are identical across the whole grid.
TEST(QueryBlockTest, ShardedGridBitIdenticalAcrossThreadsAndBlocks) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 81);
  const auto queries = MakeQueries(23, kDim, 82);  // ragged vs any block
  for (size_t shards : {1, 4}) {
    std::vector<IndexQueryStats> run_stats;
    for (size_t threads : {1, 2, 8}) {
      ShardedIndexOptions opts;
      opts.num_shards = shards;
      opts.index.parallel.max_threads = threads;
      auto index = ShardedFeatureIndex::Build(&db, opts);
      ASSERT_TRUE(index.ok()) << index.status();
      for (size_t batch : {1, 5, 23}) {
        IndexQueryStats stats;
        const auto hits = AnswerInBatches(*index, queries, 5, batch, &stats);
        ASSERT_EQ(hits.size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          ExpectMatchesLinearScan(db, queries[q], 5, hits[q]);
        }
        run_stats.push_back(stats);
      }
    }
    for (size_t r = 1; r < run_stats.size(); ++r) {
      ExpectStatsEqual(run_stats[0], run_stats[r]);
    }
  }
}

// The blocked degraded scan: every answer keeps its certified interval
// against the linear scan, and batch answers AND bounds equal the
// single-query answers across shard counts, thread counts, and batch
// sizes.
TEST(QueryBlockTest, CoarseBatchMatchesPerQueryWithBounds) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 91);
  const auto queries = MakeQueries(19, kDim, 92);
  for (size_t shards : {1, 4}) {
    ShardedIndexOptions ropts;
    ropts.num_shards = shards;
    auto rindex = ShardedFeatureIndex::Build(&db, ropts);
    ASSERT_TRUE(rindex.ok()) << rindex.status();
    std::vector<std::vector<QueryHit>> ref(queries.size());
    std::vector<double> ref_bounds(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      std::vector<double> bound;
      auto hits =
          rindex->BatchBudgetedNearestNeighbors({queries[q]}, 5, &bound);
      ASSERT_TRUE(hits.ok()) << hits.status();
      ASSERT_EQ(bound.size(), 1u);
      ref_bounds[q] = bound[0];
      ExpectCertified(db, queries[q], (*hits)[0], ref_bounds[q]);
      ref[q] = std::move((*hits)[0]);
    }
    for (size_t threads : {1, 8}) {
      ShardedIndexOptions opts = ropts;
      opts.index.parallel.max_threads = threads;
      auto index = ShardedFeatureIndex::Build(&db, opts);
      ASSERT_TRUE(index.ok()) << index.status();
      for (size_t batch : {1, 6, 19}) {
        for (size_t q0 = 0; q0 < queries.size(); q0 += batch) {
          const size_t q1 = std::min(queries.size(), q0 + batch);
          std::vector<std::vector<double>> slice(queries.begin() + q0,
                                                 queries.begin() + q1);
          std::vector<double> bounds;
          auto hits = index->BatchBudgetedNearestNeighbors(slice, 5, &bounds);
          ASSERT_TRUE(hits.ok()) << hits.status();
          ASSERT_EQ(bounds.size(), slice.size());
          for (size_t i = 0; i < slice.size(); ++i) {
            ExpectHitsIdentical(ref[q0 + i], (*hits)[i]);
            EXPECT_EQ(ref_bounds[q0 + i], bounds[i]);
          }
        }
      }
    }
  }
}

// The one-shard degraded batch (the query server's degraded drain at
// the default shard count): certified against the linear scan, and
// equal to its single-query counterpart.
TEST(QueryBlockTest, SingleIndexCoarseBatchMatchesPerQuery) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(250, kDim, 101);
  const auto queries = MakeQueries(40, kDim, 102);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok()) << index.status();
  std::vector<double> bounds;
  auto batch = index->BatchBudgetedNearestNeighbors(queries, 5, &bounds);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(bounds.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<double> bound;
    auto solo =
        index->BatchBudgetedNearestNeighbors({queries[q]}, 5, &bound);
    ASSERT_TRUE(solo.ok()) << solo.status();
    ASSERT_EQ(bound.size(), 1u);
    ExpectCertified(db, queries[q], (*solo)[0], bound[0]);
    ExpectHitsIdentical((*solo)[0], (*batch)[q]);
    EXPECT_EQ(bound[0], bounds[q]);
  }
}

}  // namespace
}  // namespace mocemg
