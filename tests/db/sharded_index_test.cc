#include "db/sharded_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "db/feature_index.h"
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

void ExpectHitsIdentical(const std::vector<QueryHit>& a,
                         const std::vector<QueryHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record_index, b[i].record_index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

/// Every coarse estimate lies within `bound` of the true distance of
/// the record it names (DESIGN.md §12.2); the tiny relative slack
/// covers only this check's own rounding of the true distance.
void ExpectCertified(const MotionDatabase& db,
                     const std::vector<double>& query,
                     const std::vector<QueryHit>& hits, double bound) {
  for (const QueryHit& hit : hits) {
    const std::vector<double>& r = db.record(hit.record_index).feature;
    double sq = 0.0;
    for (size_t j = 0; j < query.size(); ++j) {
      sq += (query[j] - r[j]) * (query[j] - r[j]);
    }
    const double truth = std::sqrt(sq);
    EXPECT_LE(std::abs(hit.distance - truth),
              bound + 1e-12 * (1.0 + truth))
        << "record " << hit.record_index;
  }
}

struct BackendScope {
  ~BackendScope() { (void)SetKernelBackend(KernelBackend::kAuto); }
};

TEST(ShardedIndexTest, BuildValidations) {
  EXPECT_FALSE(ShardedFeatureIndex::Build(nullptr).ok());
  MotionDatabase empty;
  EXPECT_FALSE(ShardedFeatureIndex::Build(&empty).ok());
}

// One shard is the default; zero shards is an invalid request, not a
// request for an automatic count.
TEST(ShardedIndexTest, ZeroShardsRejectedAndExcessShards) {
  MotionDatabase db = MakeDb(120, 6, 11);
  auto index = ShardedFeatureIndex::Build(&db);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->num_shards(), 1u);
  ShardedIndexOptions zero;
  zero.num_shards = 0;
  auto rejected = ShardedFeatureIndex::Build(&db, zero);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // More shards than partitions: the excess shards are empty but the
  // index still answers correctly.
  ShardedIndexOptions opts;
  opts.index.num_partitions = 3;
  opts.num_shards = 9;
  auto wide = ShardedFeatureIndex::Build(&db, opts);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->num_shards(), 9u);
  auto query = MakeQueries(1, 6, 12)[0];
  auto linear = db.NearestNeighbors(query, 5);
  auto sharded = wide->NearestNeighbors(query, 5);
  ASSERT_TRUE(linear.ok());
  ASSERT_TRUE(sharded.ok());
  ExpectHitsIdentical(*linear, *sharded);
}

// The bit-identity claim: for every shard count, exact kNN answers
// (records AND distance bits) equal the linear scan, for several k —
// on every usable backend, at both exact-tier precisions and both code
// widths (eight ~37-row partitions around a 40-row code floor, so
// coded and uncoded partitions both serve).
TEST(ShardedIndexTest, ExactBitIdenticalAcrossShardCounts) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 21);
  const auto queries = MakeQueries(25, kDim, 22);
  BackendScope restore;
  for (KernelBackend backend : UsableKernelBackends()) {
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    for (ExactPrecision prec : {ExactPrecision::kF64, ExactPrecision::kF32}) {
      for (size_t bits : {8, 4}) {
        SCOPED_TRACE(std::string("backend=") + KernelBackendName(backend) +
                     " prec=" + ExactPrecisionName(prec) +
                     " bits=" + std::to_string(bits));
        for (size_t shards : {1, 2, 3, 8}) {
          ShardedIndexOptions sopts;
          sopts.index.exact_precision = prec;
          sopts.index.num_partitions = 8;
          sopts.index.quant_bits = bits;
          sopts.index.quantized_min_rows = 40;
          sopts.num_shards = shards;
          auto index = ShardedFeatureIndex::Build(&db, sopts);
          ASSERT_TRUE(index.ok()) << index.status();
          EXPECT_EQ(index->num_shards(), shards);
          EXPECT_TRUE(index->has_quantized_tier());
          for (size_t k : {1, 3, 10}) {
            for (const auto& q : queries) {
              auto linear = db.NearestNeighbors(q, k);
              auto viaShards = index->NearestNeighbors(q, k);
              ASSERT_TRUE(linear.ok());
              ASSERT_TRUE(viaShards.ok()) << viaShards.status();
              ExpectHitsIdentical(*linear, *viaShards);
            }
          }
        }
      }
    }
  }
}

// Batch answers must be bit-identical at every thread count: the
// (query × shard) task grid is merged per query in fixed shard order.
TEST(ShardedIndexTest, ParallelBatchDeterministicAcrossThreads) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 31);
  const auto queries = MakeQueries(40, kDim, 32);
  for (size_t shards : {2, 3}) {
    std::vector<std::vector<std::vector<QueryHit>>> runs;
    std::vector<IndexQueryStats> run_stats;
    for (size_t threads : {1, 2, 8}) {
      ShardedIndexOptions opts;
      opts.num_shards = shards;
      opts.index.parallel.max_threads = threads;
      auto index = ShardedFeatureIndex::Build(&db, opts);
      ASSERT_TRUE(index.ok()) << index.status();
      IndexQueryStats stats;
      auto hits = index->BatchNearestNeighbors(queries, 5, &stats);
      ASSERT_TRUE(hits.ok()) << hits.status();
      runs.push_back(*hits);
      run_stats.push_back(stats);
    }
    for (size_t r = 1; r < runs.size(); ++r) {
      ASSERT_EQ(runs[0].size(), runs[r].size());
      for (size_t q = 0; q < runs[0].size(); ++q) {
        ExpectHitsIdentical(runs[0][q], runs[r][q]);
      }
      EXPECT_EQ(run_stats[0].distance_computations,
                run_stats[r].distance_computations);
      EXPECT_EQ(run_stats[0].partitions_visited,
                run_stats[r].partitions_visited);
      EXPECT_EQ(run_stats[0].partitions_pruned,
                run_stats[r].partitions_pruned);
    }
    // Batch element i equals the linear scan exactly.
    for (size_t q = 0; q < queries.size(); ++q) {
      auto linear = db.NearestNeighbors(queries[q], 5);
      ASSERT_TRUE(linear.ok());
      ExpectHitsIdentical(*linear, runs[0][q]);
    }
  }
}

// Degraded answers must regroup identically too: the coarse estimates
// and the certified bound are pure functions of the owning partition,
// so every shard count answers exactly like the one-shard index — and
// every estimate lies within that bound of the linear-scan distance.
TEST(ShardedIndexTest, CoarseBitIdenticalAcrossShardCounts) {
  const size_t kDim = 8;
  MotionDatabase db = MakeDb(300, kDim, 41);
  ShardedIndexOptions one;
  one.index.quantized_min_rows = 1;  // quantize every partition
  const FeatureIndexOptions& fopts = one.index;
  auto single = ShardedFeatureIndex::Build(&db, one);
  ASSERT_TRUE(single.ok()) << single.status();
  ASSERT_TRUE(single->has_quantized_tier());
  const auto queries = MakeQueries(20, kDim, 42);
  for (size_t shards : {1, 2, 3, 8}) {
    ShardedIndexOptions sopts;
    sopts.index = fopts;
    sopts.num_shards = shards;
    auto index = ShardedFeatureIndex::Build(&db, sopts);
    ASSERT_TRUE(index.ok()) << index.status();
    ASSERT_TRUE(index->has_quantized_tier());
    for (const auto& q : queries) {
      double bound_single = 0.0, bound_sharded = 0.0;
      auto ref = single->CoarseNearestNeighbors(q, 5, &bound_single);
      auto got = index->CoarseNearestNeighbors(q, 5, &bound_sharded);
      ASSERT_TRUE(ref.ok()) << ref.status();
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectHitsIdentical(*ref, *got);
      EXPECT_EQ(bound_single, bound_sharded);
      ExpectCertified(db, q, *got, bound_sharded);
    }
  }
}

// The 4-bit coarse tier shards exactly like the 8-bit one: exact kNN
// stays bit-identical to the linear scan at every shard count, and the
// degraded coarse answers + certified bound regroup identically to the
// one-shard index and hold against the linear-scan distances.
TEST(ShardedIndexTest, FourBitShardedMatchesSingleIndex) {
  const size_t kDim = 9;
  MotionDatabase db = MakeDb(300, kDim, 91);
  ShardedIndexOptions one;
  one.index.quant_bits = 4;
  one.index.quantized_min_rows = 1;
  const FeatureIndexOptions& fopts = one.index;
  auto single = ShardedFeatureIndex::Build(&db, one);
  ASSERT_TRUE(single.ok()) << single.status();
  ASSERT_TRUE(single->has_quantized_tier());
  const auto queries = MakeQueries(15, kDim, 92);
  for (size_t shards : {1, 2, 3, 8}) {
    ShardedIndexOptions sopts;
    sopts.index = fopts;
    sopts.num_shards = shards;
    auto index = ShardedFeatureIndex::Build(&db, sopts);
    ASSERT_TRUE(index.ok()) << index.status();
    for (const auto& q : queries) {
      auto linear = db.NearestNeighbors(q, 5);
      auto viaShards = index->NearestNeighbors(q, 5);
      ASSERT_TRUE(linear.ok());
      ASSERT_TRUE(viaShards.ok()) << viaShards.status();
      ExpectHitsIdentical(*linear, *viaShards);
      double bound_single = 0.0, bound_sharded = 0.0;
      auto ref = single->CoarseNearestNeighbors(q, 5, &bound_single);
      auto got = index->CoarseNearestNeighbors(q, 5, &bound_sharded);
      ASSERT_TRUE(ref.ok()) << ref.status();
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectHitsIdentical(*ref, *got);
      EXPECT_EQ(bound_single, bound_sharded);
      ExpectCertified(db, q, *got, bound_sharded);
    }
  }
}

TEST(ShardedIndexTest, QueryValidations) {
  MotionDatabase db = MakeDb(100, 4, 51);
  auto index = ShardedFeatureIndex::Build(&db);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->NearestNeighbors({1.0}, 3).ok());  // wrong dim
  EXPECT_FALSE(index->NearestNeighbors({1, 2, 3, 4}, 0).ok());
  // Oversized k clamps to the database size.
  auto all = index->NearestNeighbors({1, 2, 3, 4}, 101);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 100u);
  ShardedFeatureIndex unbuilt;
  EXPECT_FALSE(unbuilt.NearestNeighbors({1, 2, 3, 4}, 3).ok());
  EXPECT_FALSE(unbuilt.BatchNearestNeighbors({{1, 2, 3, 4}}, 3).ok());
  // An empty batch has nothing to validate: it answers with nothing,
  // built or not, and zero stats.
  for (const ShardedFeatureIndex* idx : {&*index, &unbuilt}) {
    IndexQueryStats stats;
    stats.partitions_visited = 99;
    auto none = idx->BatchNearestNeighbors({}, 3, &stats);
    ASSERT_TRUE(none.ok()) << none.status();
    EXPECT_TRUE(none->empty());
    EXPECT_EQ(stats.partitions_visited, 0u);
    std::vector<double> bounds = {1.0};
    auto coarse = idx->BatchCoarseNearestNeighbors({}, 3, &bounds);
    ASSERT_TRUE(coarse.ok()) << coarse.status();
    EXPECT_TRUE(coarse->empty());
    EXPECT_TRUE(bounds.empty());
  }
}

TEST(ShardedIndexTest, ApplyUpdateBumpsOnlyOwningShard) {
  const size_t kDim = 6;
  MotionDatabase db = MakeDb(200, kDim, 61);
  ShardedIndexOptions opts;
  opts.num_shards = 4;
  auto index = ShardedFeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::vector<uint64_t> before = index->shard_epochs();
  const size_t rec = 17;
  auto owner = index->ShardOfRecord(rec);
  ASSERT_TRUE(owner.ok());
  std::vector<double> moved(kDim, 123.0);
  ASSERT_TRUE(db.UpdateFeature(rec, moved).ok());
  ASSERT_TRUE(index->ApplyUpdate(rec).ok());
  EXPECT_EQ(index->applied_epoch(), db.epoch());
  const std::vector<uint64_t>& after = index->shard_epochs();
  for (size_t s = 0; s < after.size(); ++s) {
    if (s == *owner) {
      EXPECT_GT(after[s], before[s]);
    } else {
      EXPECT_EQ(after[s], before[s]);
    }
  }
  // Post-update answers equal a fresh linear scan over the mutated db.
  const auto queries = MakeQueries(10, kDim, 62);
  for (const auto& q : queries) {
    auto linear = db.NearestNeighbors(q, 5);
    auto sharded = index->NearestNeighbors(q, 5);
    ASSERT_TRUE(linear.ok());
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    ExpectHitsIdentical(*linear, *sharded);
  }
}

TEST(ShardedIndexTest, ApplyUpdateContract) {
  const size_t kDim = 4;
  MotionDatabase db = MakeDb(100, kDim, 71);
  auto index = ShardedFeatureIndex::Build(&db);
  ASSERT_TRUE(index.ok());
  // Nothing to apply yet: the database epoch equals the applied epoch.
  EXPECT_FALSE(index->ApplyUpdate(3).ok());
  std::vector<double> f(kDim, 9.0);
  ASSERT_TRUE(db.UpdateFeature(3, f).ok());
  // Stale index refuses queries until the update is applied.
  EXPECT_FALSE(index->NearestNeighbors(f, 3).ok());
  // Applying the wrong record is allowed by the epoch contract only
  // for the actual mutation sequence; out-of-range is rejected.
  EXPECT_FALSE(index->ApplyUpdate(1000).ok());
  ASSERT_TRUE(index->ApplyUpdate(3).ok());
  EXPECT_TRUE(index->NearestNeighbors(f, 3).ok());
  // Two mutations without an ApplyUpdate in between: the strict 1:1
  // in-order contract fails and a Rebuild is required.
  ASSERT_TRUE(db.UpdateFeature(4, f).ok());
  ASSERT_TRUE(db.UpdateFeature(5, f).ok());
  EXPECT_FALSE(index->ApplyUpdate(4).ok());
  ASSERT_TRUE(index->Rebuild().ok());
  EXPECT_TRUE(index->NearestNeighbors(f, 3).ok());
  // Insert changes the record set: ApplyUpdate must refuse.
  MotionRecord r;
  r.name = "new";
  r.label = 0;
  r.label_name = "class0";
  r.feature = f;
  ASSERT_TRUE(db.Insert(std::move(r)).ok());
  EXPECT_FALSE(index->ApplyUpdate(0).ok());
  ASSERT_TRUE(index->Rebuild().ok());
  auto linear = db.NearestNeighbors(f, 3);
  auto sharded = index->NearestNeighbors(f, 3);
  ASSERT_TRUE(linear.ok());
  ASSERT_TRUE(sharded.ok());
  ExpectHitsIdentical(*linear, *sharded);
}

TEST(ShardedIndexTest, ShardAllBeyondCertificate) {
  const size_t kDim = 4;
  MotionDatabase db = MakeDb(200, kDim, 81);
  ShardedIndexOptions opts;
  opts.num_shards = 3;
  auto index = ShardedFeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok());
  const auto queries = MakeQueries(15, kDim, 82);
  for (const auto& q : queries) {
    auto hits = index->NearestNeighbors(q, 5);
    ASSERT_TRUE(hits.ok());
    const double kth = hits->back().distance;
    auto all = db.NearestNeighbors(q, db.size());
    ASSERT_TRUE(all.ok());
    std::vector<double> dist(db.size(), 0.0);
    for (const QueryHit& h : *all) dist[h.record_index] = h.distance;
    for (size_t s = 0; s < index->num_shards(); ++s) {
      if (!index->ShardAllBeyond(s, q, kth)) continue;
      // The certificate must be SOUND: no record in shard s may lie
      // within the kth radius.
      for (size_t rec = 0; rec < db.size(); ++rec) {
        auto owner = index->ShardOfRecord(rec);
        ASSERT_TRUE(owner.ok());
        if (*owner != s) continue;
        EXPECT_GT(dist[rec], kth) << "certificate lied for record " << rec;
      }
    }
    // Degenerate radii never certify.
    EXPECT_FALSE(index->ShardAllBeyond(0, q,
                                       std::numeric_limits<double>::infinity()));
    EXPECT_FALSE(index->ShardAllBeyond(index->num_shards(), q, kth));
  }
}

}  // namespace
}  // namespace mocemg
