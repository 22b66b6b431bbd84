#include "db/feature_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "db/sharded_index.h"
#include "util/distance_kernels.h"
#include "util/random.h"

namespace mocemg {
namespace {

/// The default one-shard index with the given layout/scan options.
Result<ShardedFeatureIndex> BuildIndex(const MotionDatabase* db,
                                       const FeatureIndexOptions& options = {}) {
  ShardedIndexOptions sharded;
  sharded.index = options;
  return ShardedFeatureIndex::Build(db, sharded);
}

MotionDatabase MakeDb(size_t n, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 4;
    r.label_name = "class" + std::to_string(r.label);
    // Clustered structure so partition pruning has something to prune.
    const double cx = static_cast<double>(i % 4) * 20.0;
    r.feature = {cx + rng.Gaussian(0, 1.0), rng.Gaussian(0, 1.0),
                 rng.Gaussian(0, 1.0)};
    EXPECT_TRUE(db.Insert(std::move(r)).ok());
  }
  return db;
}

TEST(FeatureIndexTest, BuildValidations) {
  EXPECT_FALSE(BuildIndex(nullptr).ok());
  MotionDatabase empty;
  EXPECT_FALSE(BuildIndex(&empty).ok());
}

TEST(FeatureIndexTest, ResultsMatchLinearScanExactly) {
  MotionDatabase db = MakeDb(200, 7);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok()) << index.status();
  Rng rng(8);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> query = {rng.Uniform(-5.0, 65.0),
                                 rng.Gaussian(0, 2.0),
                                 rng.Gaussian(0, 2.0)};
    auto linear = db.NearestNeighbors(query, 5);
    auto indexed = index->NearestNeighbors(query, 5);
    ASSERT_TRUE(linear.ok());
    ASSERT_TRUE(indexed.ok());
    ASSERT_EQ(linear->size(), indexed->size());
    for (size_t i = 0; i < linear->size(); ++i) {
      EXPECT_EQ((*linear)[i].record_index, (*indexed)[i].record_index);
      EXPECT_NEAR((*linear)[i].distance, (*indexed)[i].distance, 1e-12);
    }
  }
}

// Higher-dimensional clustered database exercising the SoA dot-form
// scan with non-trivial unroll remainders.
MotionDatabase MakeDbDim(size_t n, size_t dim, uint64_t seed) {
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

// The dot-form scan is approximate, but candidates within the error
// bound are re-checked with the exact pair kernel — so the index must be
// *bit-identical* to the linear scan, not merely close, at every
// dimension (each 4-way unroll remainder included).
TEST(FeatureIndexTest, ResultsBitIdenticalToLinearScanAcrossDims) {
  for (size_t dim : {5, 16, 30, 33, 67}) {
    MotionDatabase db = MakeDbDim(150, dim, 40 + dim);
    auto index = BuildIndex(&db);
    ASSERT_TRUE(index.ok()) << index.status();
    Rng rng(50 + dim);
    for (int q = 0; q < 20; ++q) {
      std::vector<double> query(dim);
      for (size_t j = 0; j < dim; ++j) {
        query[j] = (j == 0 ? rng.Uniform(-5.0, 65.0)
                           : rng.Gaussian(0, 2.0));
      }
      auto linear = db.NearestNeighbors(query, 5);
      auto indexed = index->NearestNeighbors(query, 5);
      ASSERT_TRUE(linear.ok());
      ASSERT_TRUE(indexed.ok());
      ASSERT_EQ(linear->size(), indexed->size());
      for (size_t i = 0; i < linear->size(); ++i) {
        EXPECT_EQ((*linear)[i].record_index, (*indexed)[i].record_index)
            << "dim " << dim << " query " << q << " rank " << i;
        EXPECT_EQ((*linear)[i].distance, (*indexed)[i].distance)
            << "dim " << dim << " query " << q << " rank " << i;
      }
    }
  }
}

// Batch answers — and the accumulated IndexQueryStats — must not depend
// on the thread count: per-chunk stats are combined in ascending chunk
// order (DESIGN.md §8.1). The name keeps this test in the tsan
// multi-thread rerun.
TEST(FeatureIndexTest, ParallelBatchBitIdenticalAcrossThreadCounts) {
  MotionDatabase db = MakeDbDim(300, 17, 60);
  std::vector<std::vector<double>> queries;
  Rng rng(61);
  for (int q = 0; q < 64; ++q) {
    std::vector<double> query(17);
    for (double& v : query) v = rng.Gaussian(10.0, 15.0);
    queries.push_back(std::move(query));
  }
  std::vector<std::vector<std::vector<QueryHit>>> all_results;
  std::vector<IndexQueryStats> all_stats;
  for (size_t threads : {1, 2, 8}) {
    FeatureIndexOptions opts;
    opts.parallel.max_threads = threads;
    auto index = BuildIndex(&db, opts);
    ASSERT_TRUE(index.ok()) << index.status();
    IndexQueryStats stats;
    auto results = index->BatchNearestNeighbors(queries, 4, &stats);
    ASSERT_TRUE(results.ok()) << results.status();
    all_results.push_back(*std::move(results));
    all_stats.push_back(stats);
  }
  for (size_t v = 1; v < all_results.size(); ++v) {
    ASSERT_EQ(all_results[v].size(), all_results[0].size());
    for (size_t q = 0; q < all_results[0].size(); ++q) {
      ASSERT_EQ(all_results[v][q].size(), all_results[0][q].size());
      for (size_t i = 0; i < all_results[0][q].size(); ++i) {
        EXPECT_EQ(all_results[v][q][i].record_index,
                  all_results[0][q][i].record_index);
        EXPECT_EQ(all_results[v][q][i].distance,
                  all_results[0][q][i].distance);
      }
    }
    EXPECT_EQ(all_stats[v].distance_computations,
              all_stats[0].distance_computations);
    EXPECT_EQ(all_stats[v].partitions_visited,
              all_stats[0].partitions_visited);
    EXPECT_EQ(all_stats[v].partitions_pruned,
              all_stats[0].partitions_pruned);
  }
}

TEST(FeatureIndexTest, PruningActuallyHappens) {
  MotionDatabase db = MakeDb(400, 9);
  FeatureIndexOptions opts;
  opts.num_partitions = 8;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok());
  IndexQueryStats stats;
  // A query deep inside one cluster prunes distant partitions.
  auto hits = index->NearestNeighbors({0.0, 0.0, 0.0}, 3, &stats);
  ASSERT_TRUE(hits.ok());
  EXPECT_GT(stats.partitions_pruned, 0u);
  EXPECT_LT(stats.distance_computations, db.size() + 8);
}

TEST(FeatureIndexTest, KLargerThanDatabase) {
  MotionDatabase db = MakeDb(10, 10);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  auto hits = index->NearestNeighbors({0.0, 0.0, 0.0}, 100);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 10u);
}

TEST(FeatureIndexTest, QueryValidations) {
  MotionDatabase db = MakeDb(20, 11);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->NearestNeighbors({1.0}, 3).ok());
  EXPECT_FALSE(index->NearestNeighbors({1.0, 2.0, 3.0}, 0).ok());
  ShardedFeatureIndex unbuilt;
  EXPECT_FALSE(unbuilt.NearestNeighbors({1.0}, 1).ok());
}

TEST(FeatureIndexTest, AutoPartitionCountIsSqrtN) {
  MotionDatabase db = MakeDb(100, 12);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  EXPECT_GE(index->num_partitions(), 5u);
  EXPECT_LE(index->num_partitions(), 10u);
}

TEST(FeatureIndexTest, SingletonDatabase) {
  MotionDatabase db = MakeDb(1, 13);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  auto hits = index->NearestNeighbors(db.record(0).feature, 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].record_index, 0u);
}

// Satellite 1 regression: the index's packed mirror of the database
// must never be read stale. Any mutation after Build — Insert or
// UpdateFeature — moves the epoch, and queries fail with a Status
// until Rebuild instead of silently scanning outdated blocks.
TEST(FeatureIndexTest, StaleAfterMutationFailsUntilRebuild) {
  MotionDatabase db = MakeDb(80, 21);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->NearestNeighbors({0.0, 0.0, 0.0}, 3).ok());

  ASSERT_TRUE(db.UpdateFeature(5, {100.0, 100.0, 100.0}).ok());
  auto stale = index->NearestNeighbors({100.0, 100.0, 100.0}, 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  auto stale_batch = index->BatchNearestNeighbors({{0.0, 0.0, 0.0}}, 1);
  ASSERT_FALSE(stale_batch.ok());
  EXPECT_EQ(stale_batch.status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(index->Rebuild().ok());
  EXPECT_EQ(index->applied_epoch(), db.epoch());
  auto hits = index->NearestNeighbors({100.0, 100.0, 100.0}, 1);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)[0].record_index, 5u);
  EXPECT_EQ((*hits)[0].distance, 0.0);

  MotionRecord extra;
  extra.name = "late";
  extra.label = 0;
  extra.feature = {-50.0, 0.0, 0.0};
  ASSERT_TRUE(db.Insert(std::move(extra)).ok());
  EXPECT_FALSE(index->NearestNeighbors({0.0, 0.0, 0.0}, 1).ok());
}

// The coarse tier must actually prune full-precision work on clustered
// data — that is the whole point of the int8 codes.
TEST(FeatureIndexTest, CoarseTierPrunesExactEvaluations) {
  MotionDatabase db = MakeDbDim(2000, 32, 70);
  FeatureIndexOptions opts;
  opts.num_partitions = 4;  // fat partitions: little triangle pruning
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok());
  Rng rng(71);
  IndexQueryStats stats;
  for (int q = 0; q < 10; ++q) {
    std::vector<double> query(32);
    for (size_t j = 0; j < query.size(); ++j) {
      query[j] = (j == 0 ? rng.Uniform(-5.0, 65.0) : rng.Gaussian(0, 2.0));
    }
    auto hits = index->NearestNeighbors(query, 5, &stats);
    ASSERT_TRUE(hits.ok());
    EXPECT_GT(stats.coarse_pruned, 0u) << "query " << q;
    EXPECT_LT(stats.distance_computations,
              stats.coarse_computations / 2 + 64)
        << "query " << q
        << ": coarse tier should discard most of the partition";
    auto linear = db.NearestNeighbors(query, 5);
    ASSERT_TRUE(linear.ok());
    for (size_t i = 0; i < linear->size(); ++i) {
      EXPECT_EQ((*hits)[i].record_index, (*linear)[i].record_index);
      EXPECT_EQ((*hits)[i].distance, (*linear)[i].distance);
    }
  }
}

// Satellite 3: randomized property test that the quantized bound never
// prunes a true top-k neighbour. Dimensions 1..128 sweep every unroll
// remainder; the adversarial geometry puts large fractions of the
// records at near-identical distances (differences far below the
// quantization error), so any unsound bound WOULD reorder or drop
// hits. quantized_min_rows = 1 forces codes onto every partition.
TEST(FeatureIndexTest, QuantizedPruneNeverDropsTrueNeighbors) {
  for (size_t dim : {1, 2, 3, 5, 16, 31, 64, 128}) {
    Rng rng(90 + dim);
    MotionDatabase db;
    const size_t n = 160;
    for (size_t i = 0; i < n; ++i) {
      MotionRecord r;
      r.name = "m" + std::to_string(i);
      r.label = i % 3;
      r.label_name = "c";
      r.feature.resize(dim);
      if (i % 2 == 0) {
        // Near-tie shell: unit-ish direction scaled to radius 10, then
        // jitter ~1e-13 — thousands of ULPs below the int8 grid step.
        double norm_sq = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          r.feature[j] = rng.Gaussian(0, 1.0);
          norm_sq += r.feature[j] * r.feature[j];
        }
        const double scale =
            10.0 / std::sqrt(std::max(norm_sq, 1e-300));
        for (size_t j = 0; j < dim; ++j) {
          r.feature[j] = r.feature[j] * scale + rng.Gaussian(0, 1e-13);
        }
      } else {
        // Background spread, including coordinates of wildly different
        // magnitude to stress the per-dimension affine grid.
        for (size_t j = 0; j < dim; ++j) {
          r.feature[j] = rng.Gaussian(0, (j % 2) ? 100.0 : 0.01);
        }
      }
      ASSERT_TRUE(db.Insert(std::move(r)).ok());
    }
    FeatureIndexOptions opts;
    opts.quantized_min_rows = 1;
    opts.num_partitions = 4;
    auto index = BuildIndex(&db, opts);
    ASSERT_TRUE(index.ok()) << index.status();
    for (int q = 0; q < 25; ++q) {
      std::vector<double> query(dim, 0.0);
      if (q % 3 == 1) {
        for (double& v : query) v = rng.Gaussian(0, 5.0);
      } else if (q % 3 == 2) {
        // On the shell itself: everything is a near-tie.
        const size_t src = static_cast<size_t>(q) % n;
        query = db.record(src - src % 2).feature;
      }
      const size_t k = 1 + static_cast<size_t>(q) % 9;
      auto linear = db.NearestNeighbors(query, k);
      auto indexed = index->NearestNeighbors(query, k);
      ASSERT_TRUE(linear.ok());
      ASSERT_TRUE(indexed.ok()) << indexed.status();
      ASSERT_EQ(linear->size(), indexed->size());
      for (size_t i = 0; i < linear->size(); ++i) {
        ASSERT_EQ((*linear)[i].record_index, (*indexed)[i].record_index)
            << "dim " << dim << " query " << q << " rank " << i
            << ": a true neighbour was pruned or reordered";
        ASSERT_EQ((*linear)[i].distance, (*indexed)[i].distance)
            << "dim " << dim << " query " << q << " rank " << i;
      }
    }
    // Non-finite queries are rejected up front, never scanned.
    std::vector<double> bad(dim, 0.0);
    bad[0] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(index->NearestNeighbors(bad, 1).ok());
    bad[0] = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(index->NearestNeighbors(bad, 1).ok());
  }
}

// quantized_scan = false must give the same bits through the dot-form
// path alone (the coarse tier is a pure work optimization).
TEST(FeatureIndexTest, QuantizedOffMatchesQuantizedOn) {
  MotionDatabase db = MakeDbDim(300, 33, 80);
  FeatureIndexOptions on;
  on.quantized_min_rows = 1;
  FeatureIndexOptions off;
  off.quantized_scan = false;
  auto index_on = BuildIndex(&db, on);
  auto index_off = BuildIndex(&db, off);
  ASSERT_TRUE(index_on.ok());
  ASSERT_TRUE(index_off.ok());
  Rng rng(81);
  for (int q = 0; q < 20; ++q) {
    std::vector<double> query(33);
    for (double& v : query) v = rng.Gaussian(10.0, 15.0);
    auto a = index_on->NearestNeighbors(query, 6);
    auto b = index_off->NearestNeighbors(query, 6);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].record_index, (*b)[i].record_index);
      EXPECT_EQ((*a)[i].distance, (*b)[i].distance);
    }
  }
}

// The code width is a coarse-tier implementation detail: 4-bit codes
// must give exactly the linear scan's answers (and therefore exactly
// the 8-bit index's answers) — the weaker grid only weakens pruning.
TEST(FeatureIndexTest, FourBitResultsBitIdenticalToLinearAndEightBit) {
  for (size_t dim : {1, 2, 5, 16, 33, 67}) {
    MotionDatabase db = MakeDbDim(200, dim, 100 + dim);
    FeatureIndexOptions opts8;
    opts8.quantized_min_rows = 1;
    opts8.num_partitions = 4;
    FeatureIndexOptions opts4 = opts8;
    opts4.quant_bits = 4;
    auto index8 = BuildIndex(&db, opts8);
    auto index4 = BuildIndex(&db, opts4);
    ASSERT_TRUE(index8.ok()) << index8.status();
    ASSERT_TRUE(index4.ok()) << index4.status();
    EXPECT_TRUE(index4->has_quantized_tier());
    Rng rng(110 + dim);
    for (int q = 0; q < 20; ++q) {
      std::vector<double> query(dim);
      for (size_t j = 0; j < dim; ++j) {
        query[j] = (j == 0 ? rng.Uniform(-5.0, 65.0)
                           : rng.Gaussian(0, 2.0));
      }
      auto linear = db.NearestNeighbors(query, 5);
      auto h8 = index8->NearestNeighbors(query, 5);
      auto h4 = index4->NearestNeighbors(query, 5);
      ASSERT_TRUE(linear.ok());
      ASSERT_TRUE(h8.ok());
      ASSERT_TRUE(h4.ok());
      ASSERT_EQ(linear->size(), h4->size());
      for (size_t i = 0; i < linear->size(); ++i) {
        EXPECT_EQ((*linear)[i].record_index, (*h4)[i].record_index)
            << "dim " << dim << " query " << q << " rank " << i;
        EXPECT_EQ((*linear)[i].distance, (*h4)[i].distance)
            << "dim " << dim << " query " << q << " rank " << i;
        EXPECT_EQ((*h8)[i].record_index, (*h4)[i].record_index);
        EXPECT_EQ((*h8)[i].distance, (*h4)[i].distance);
      }
    }
  }
}

TEST(FeatureIndexTest, InvalidQuantBitsRejected) {
  MotionDatabase db = MakeDb(50, 120);
  for (size_t bits : {0, 1, 2, 3, 5, 7, 16}) {
    FeatureIndexOptions opts;
    opts.quant_bits = bits;
    auto index = BuildIndex(&db, opts);
    ASSERT_FALSE(index.ok()) << "quant_bits " << bits;
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  }
}

// The degraded coarse path's certified bound must hold at 4 bits too —
// the coarser grid widens B, it never invalidates it.
TEST(FeatureIndexTest, FourBitCoarseErrorBoundHolds) {
  MotionDatabase db = MakeDbDim(600, 24, 130);
  FeatureIndexOptions opts;
  opts.quant_bits = 4;
  opts.quantized_min_rows = 1;
  opts.num_partitions = 6;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  ASSERT_TRUE(index->has_quantized_tier());
  Rng rng(131);
  for (int q = 0; q < 25; ++q) {
    std::vector<double> query(24);
    for (size_t j = 0; j < query.size(); ++j) {
      query[j] = (j == 0 ? rng.Uniform(-5.0, 65.0) : rng.Gaussian(0, 2.0));
    }
    double bound = -1.0;
    auto hits = index->CoarseNearestNeighbors(query, 5, &bound);
    ASSERT_TRUE(hits.ok()) << hits.status();
    EXPECT_GE(bound, 0.0);
    for (const QueryHit& h : *hits) {
      const double truth = std::sqrt(SquaredL2(
          query.data(), db.record(h.record_index).feature.data(), 24));
      EXPECT_LE(std::abs(h.distance - truth), bound)
          << "query " << q << " record " << h.record_index;
    }
  }
}

FeatureIndexOptions F32TierOptions(size_t threads = 0) {
  FeatureIndexOptions opts;
  opts.quantized_scan = false;  // non-coded partitions carry the mirror
  opts.exact_precision = ExactPrecision::kF32;
  opts.num_partitions = 4;
  if (threads > 0) opts.parallel.max_threads = threads;
  return opts;
}

// The fp32 tier's contract: same bits as the f64 path, not merely
// close. Swept across dims (every unroll remainder flavor) and thread
// counts 1/2/8 — the refine gate must neither depend on chunking nor
// on which backend scanned which partition.
TEST(FeatureIndexTest, F32TierBitIdenticalToF64AcrossDimsAndThreads) {
  for (size_t dim : {1, 5, 16, 33, 67}) {
    MotionDatabase db = MakeDbDim(200, dim, 140 + dim);
    FeatureIndexOptions f64opts;
    f64opts.quantized_scan = false;
    f64opts.num_partitions = 4;
    auto f64idx = BuildIndex(&db, f64opts);
    ASSERT_TRUE(f64idx.ok()) << f64idx.status();

    std::vector<std::vector<double>> queries;
    Rng rng(150 + dim);
    for (int q = 0; q < 32; ++q) {
      std::vector<double> query(dim);
      for (size_t j = 0; j < dim; ++j) {
        query[j] = (j == 0 ? rng.Uniform(-5.0, 65.0)
                           : rng.Gaussian(0, 2.0));
      }
      queries.push_back(std::move(query));
    }
    auto baseline = f64idx->BatchNearestNeighbors(queries, 5);
    ASSERT_TRUE(baseline.ok());

    for (size_t threads : {1, 2, 8}) {
      auto f32idx = BuildIndex(&db, F32TierOptions(threads));
      ASSERT_TRUE(f32idx.ok()) << f32idx.status();
      IndexQueryStats stats;
      auto results = f32idx->BatchNearestNeighbors(queries, 5, &stats);
      ASSERT_TRUE(results.ok());
      EXPECT_GT(stats.f32_scans, 0u)
          << "dim " << dim << " threads " << threads
          << ": fp32 tier never engaged";
      ASSERT_EQ(results->size(), baseline->size());
      for (size_t q = 0; q < baseline->size(); ++q) {
        ASSERT_EQ((*results)[q].size(), (*baseline)[q].size());
        for (size_t i = 0; i < (*baseline)[q].size(); ++i) {
          ASSERT_EQ((*results)[q][i].record_index,
                    (*baseline)[q][i].record_index)
              << "dim " << dim << " threads " << threads << " query " << q
              << " rank " << i;
          ASSERT_EQ((*results)[q][i].distance, (*baseline)[q][i].distance)
              << "dim " << dim << " threads " << threads << " query " << q
              << " rank " << i;
        }
      }
    }
  }
}

// Satellite 4: randomized property test that the fp32 refine gate is
// conservative — the true kth neighbour is never excluded, at any
// thread count. Adversarial data per trial: near-tie shells jittered
// ~1e-13 (thousands of fp32 ULPs below resolution, so the fp32 scan
// cannot rank them — only the certified margin forces the double
// re-check), mixed-magnitude rows (1e7 against 1e-40, narrowing to
// fp32 subnormals/zero), and 1e30-scale rows the norm gate must route
// to the f64 path entirely. Whatever the gating decisions, the top-k
// must equal the linear scan's bits.
TEST(FeatureIndexTest, F32RefineGateNeverDropsTrueNeighbors) {
  uint64_t total_f32_scans = 0;
  uint64_t total_f32_refined = 0;
  Rng dim_rng(160);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t dim = 1 + dim_rng.NextBelow(67);
    Rng rng(161 + trial * 7);
    MotionDatabase db;
    const size_t n = 120;
    for (size_t i = 0; i < n; ++i) {
      MotionRecord r;
      r.name = "m" + std::to_string(i);
      r.label = i % 3;
      r.label_name = "c";
      r.feature.resize(dim);
      // Beyond-the-gate rows only on even trials: k-means spreads them
      // across partitions, suppressing every mirror — odd trials keep
      // all partitions mirrored so the fp32 tier provably engages.
      size_t style = i % 4;
      if (style == 2 && trial % 2 == 1) style = 3;
      switch (style) {
        case 0: {
          // Near-tie shell at radius 10, jitter far below fp32 ULP.
          double norm_sq = 0.0;
          for (size_t j = 0; j < dim; ++j) {
            r.feature[j] = rng.Gaussian(0, 1.0);
            norm_sq += r.feature[j] * r.feature[j];
          }
          const double scale =
              10.0 / std::sqrt(std::max(norm_sq, 1e-300));
          for (size_t j = 0; j < dim; ++j) {
            r.feature[j] = r.feature[j] * scale + rng.Gaussian(0, 1e-13);
          }
          break;
        }
        case 1:
          // Mixed magnitudes: catastrophic fp32 cancellation, with the
          // small elements narrowing to fp32 subnormals or zero.
          for (size_t j = 0; j < dim; ++j) {
            const double mag = (j % 2 == 0) ? 1e7 : 1e-40;
            r.feature[j] = (rng.NextBelow(2) ? 1.0 : -1.0) * mag;
          }
          break;
        case 2:
          // Beyond the norm gate: these rows' partitions must fall
          // back to the f64 scan (1e30² ≫ the 1e30 norms_sq gate).
          for (size_t j = 0; j < dim; ++j) {
            r.feature[j] = rng.Gaussian(0, 1e30);
          }
          break;
        default:
          for (size_t j = 0; j < dim; ++j) {
            r.feature[j] = rng.Gaussian(0, (j % 2) ? 100.0 : 0.01);
          }
      }
      ASSERT_TRUE(db.Insert(std::move(r)).ok());
    }

    std::vector<std::vector<double>> queries;
    for (int q = 0; q < 16; ++q) {
      std::vector<double> query(dim, 0.0);
      switch (q % 4) {
        case 1:
          for (double& v : query) v = rng.Gaussian(0, 5.0);
          break;
        case 2:
          // On the shell: everything is a near-tie.
          query = db.record((static_cast<size_t>(q) * 4) % n).feature;
          break;
        case 3:
          // A huge query trips the scan-side gate even where the
          // pack-side gate admitted the partition.
          for (double& v : query) v = rng.Gaussian(0, 1e20);
          break;
        default:
          break;  // origin
      }
      queries.push_back(std::move(query));
    }

    for (size_t threads : {1, 2, 8}) {
      auto index = BuildIndex(&db, F32TierOptions(threads));
      ASSERT_TRUE(index.ok()) << index.status();
      IndexQueryStats stats;
      const size_t k = 1 + static_cast<size_t>(trial) % 9;
      auto indexed = index->BatchNearestNeighbors(queries, k, &stats);
      ASSERT_TRUE(indexed.ok()) << indexed.status();
      total_f32_scans += stats.f32_scans;
      total_f32_refined += stats.f32_refined;
      for (size_t q = 0; q < queries.size(); ++q) {
        auto linear = db.NearestNeighbors(queries[q], k);
        ASSERT_TRUE(linear.ok());
        ASSERT_EQ((*indexed)[q].size(), linear->size());
        for (size_t i = 0; i < linear->size(); ++i) {
          ASSERT_EQ((*indexed)[q][i].record_index,
                    (*linear)[i].record_index)
              << "trial " << trial << " dim " << dim << " threads "
              << threads << " query " << q << " rank " << i
              << ": a true neighbour was excluded by the fp32 gate";
          ASSERT_EQ((*indexed)[q][i].distance, (*linear)[i].distance)
              << "trial " << trial << " dim " << dim << " threads "
              << threads << " query " << q << " rank " << i;
        }
      }
    }
  }
  // The sweep must actually have exercised the tier, scans and
  // refines both — otherwise the property was vacuous.
  EXPECT_GT(total_f32_scans, 0u);
  EXPECT_GT(total_f32_refined, 0u);
}

// Both halves of the overflow gate: partitions packed from 1e20-scale
// rows carry no mirror (pack-side), and a 1e20-scale query skips the
// mirror even where one exists (scan-side) — in each case the f64
// path serves, bit-identical, with zero fp32 scans recorded.
TEST(FeatureIndexTest, F32NormGateFallsBackToF64) {
  const size_t dim = 12;
  // Pack-side: every record is far beyond the gate.
  {
    Rng rng(170);
    MotionDatabase db;
    for (size_t i = 0; i < 80; ++i) {
      MotionRecord r;
      r.name = "m" + std::to_string(i);
      r.label = 0;
      r.label_name = "c";
      r.feature.resize(dim);
      for (double& v : r.feature) v = rng.Gaussian(0, 1e20);
      ASSERT_TRUE(db.Insert(std::move(r)).ok());
    }
    auto f32idx = BuildIndex(&db, F32TierOptions());
    ASSERT_TRUE(f32idx.ok()) << f32idx.status();
    FeatureIndexOptions f64opts;
    f64opts.quantized_scan = false;
    f64opts.num_partitions = 4;
    auto f64idx = BuildIndex(&db, f64opts);
    ASSERT_TRUE(f64idx.ok());
    IndexQueryStats stats;
    for (int q = 0; q < 10; ++q) {
      std::vector<double> query(dim);
      for (double& v : query) v = rng.Gaussian(0, 1e20);
      auto a = f32idx->NearestNeighbors(query, 4, &stats);
      auto b = f64idx->NearestNeighbors(query, 4);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(a->size(), b->size());
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].record_index, (*b)[i].record_index);
        EXPECT_EQ((*a)[i].distance, (*b)[i].distance);
      }
    }
    EXPECT_EQ(stats.f32_scans, 0u)
        << "pack-side norm gate failed to suppress the mirror";
  }
  // Scan-side: small records (mirrors packed), huge query.
  {
    MotionDatabase db = MakeDbDim(100, dim, 171);
    auto f32idx = BuildIndex(&db, F32TierOptions());
    ASSERT_TRUE(f32idx.ok());
    Rng rng(172);
    IndexQueryStats small_stats, huge_stats;
    std::vector<double> small_query(dim, 1.0);
    ASSERT_TRUE(
        f32idx->NearestNeighbors(small_query, 4, &small_stats).ok());
    EXPECT_GT(small_stats.f32_scans, 0u)
        << "mirrors should exist for small-magnitude records";
    std::vector<double> huge_query(dim);
    for (double& v : huge_query) v = rng.Gaussian(0, 1e20);
    auto hits = f32idx->NearestNeighbors(huge_query, 4, &huge_stats);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(huge_stats.f32_scans, 0u)
        << "scan-side norm gate must skip the mirror for a huge query";
    auto linear = db.NearestNeighbors(huge_query, 4);
    ASSERT_TRUE(linear.ok());
    for (size_t i = 0; i < hits->size(); ++i) {
      EXPECT_EQ((*hits)[i].record_index, (*linear)[i].record_index);
      EXPECT_EQ((*hits)[i].distance, (*linear)[i].distance);
    }
  }
}

// MOCEMG_EXACT_PRECISION resolves kDefault at build: the resolved
// value is stored back into options(), and an explicit option wins
// over the environment (precedence: env < options).
TEST(FeatureIndexTest, ExactPrecisionResolutionAndParsing) {
  EXPECT_STREQ(ExactPrecisionName(ExactPrecision::kDefault), "default");
  EXPECT_STREQ(ExactPrecisionName(ExactPrecision::kF64), "f64");
  EXPECT_STREQ(ExactPrecisionName(ExactPrecision::kF32), "f32");
  for (const char* name : {"f64", "double"}) {
    auto parsed = ParseExactPrecision(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, ExactPrecision::kF64);
  }
  for (const char* name : {"f32", "float"}) {
    auto parsed = ParseExactPrecision(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, ExactPrecision::kF32);
  }
  auto dflt = ParseExactPrecision("default");
  ASSERT_TRUE(dflt.ok());
  EXPECT_EQ(*dflt, ExactPrecision::kDefault);
  EXPECT_FALSE(ParseExactPrecision("f16").ok());
  EXPECT_FALSE(ParseExactPrecision("").ok());

  // Explicit options resolve to themselves regardless of environment.
  EXPECT_EQ(ResolveExactPrecision(ExactPrecision::kF64),
            ExactPrecision::kF64);
  EXPECT_EQ(ResolveExactPrecision(ExactPrecision::kF32),
            ExactPrecision::kF32);
  // kDefault resolves to a concrete value (f64 unless the environment
  // overrides), and Build stores the resolution back into options().
  const ExactPrecision resolved =
      ResolveExactPrecision(ExactPrecision::kDefault);
  EXPECT_NE(resolved, ExactPrecision::kDefault);
  MotionDatabase db = MakeDb(30, 180);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->options().index.exact_precision, resolved);
}

// operator+= is the one fold every stat total goes through: each field
// gets a distinct value on both sides, so a counter dropped from the
// sum (or summed into the wrong field) fails here.
TEST(FeatureIndexTest, StatsAccumulatorSumsEveryField) {
  IndexQueryStats a;
  a.distance_computations = 1;
  a.partitions_visited = 2;
  a.partitions_pruned = 3;
  a.coarse_computations = 4;
  a.coarse_pruned = 5;
  a.f32_scans = 6;
  a.f32_refined = 7;
  IndexQueryStats b;
  b.distance_computations = 100;
  b.partitions_visited = 200;
  b.partitions_pruned = 300;
  b.coarse_computations = 400;
  b.coarse_pruned = 500;
  b.f32_scans = 600;
  b.f32_refined = 700;
  // Every field is a size_t: a new counter changes the struct size and
  // must be added to operator+= and to this test.
  static_assert(sizeof(IndexQueryStats) == 7 * sizeof(size_t),
                "update IndexQueryStats::operator+= and this test");
  IndexQueryStats& ret = (a += b);
  EXPECT_EQ(&ret, &a);
  EXPECT_EQ(a.distance_computations, 101u);
  EXPECT_EQ(a.partitions_visited, 202u);
  EXPECT_EQ(a.partitions_pruned, 303u);
  EXPECT_EQ(a.coarse_computations, 404u);
  EXPECT_EQ(a.coarse_pruned, 505u);
  EXPECT_EQ(a.f32_scans, 606u);
  EXPECT_EQ(a.f32_refined, 707u);
  EXPECT_EQ(b.distance_computations, 100u) << "the right side is unchanged";
}

TEST(FeatureIndexTest, RebuildAfterInsert) {
  MotionDatabase db = MakeDb(50, 14);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  MotionRecord extra;
  extra.name = "new";
  extra.label = 0;
  extra.feature = {100.0, 100.0, 100.0};
  ASSERT_TRUE(db.Insert(extra).ok());
  ASSERT_TRUE(index->Rebuild().ok());
  auto hits = index->NearestNeighbors({100.0, 100.0, 100.0}, 1);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(db.record((*hits)[0].record_index).name, "new");
}

}  // namespace
}  // namespace mocemg
