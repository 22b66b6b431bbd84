#include "db/query_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "db/serving_faults.h"
#include "db/sharded_index.h"
#include "util/clock.h"
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

void ExpectHitsEqual(const std::vector<QueryHit>& a,
                     const std::vector<QueryHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record_index, b[i].record_index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

TEST(QueryServerTest, CreateValidations) {
  EXPECT_FALSE(QueryServer::Create(nullptr).ok());
  MotionDatabase empty;
  EXPECT_FALSE(QueryServer::Create(&empty).ok());
  MotionDatabase db = MakeDb(10, 3, 1);
  QueryServerOptions bad;
  bad.max_queue = 0;
  EXPECT_FALSE(QueryServer::Create(&db, nullptr, bad).ok());
  bad = QueryServerOptions{};
  bad.max_batch = 0;
  EXPECT_FALSE(QueryServer::Create(&db, nullptr, bad).ok());
  EXPECT_TRUE(QueryServer::Create(&db).ok());
}

TEST(QueryServerTest, SubmitValidations) {
  MotionDatabase db = MakeDb(10, 3, 2);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server->SubmitNearestNeighbors({1.0}, 1).ok());
  EXPECT_FALSE(
      server->SubmitNearestNeighbors({1.0, 2.0, 3.0}, 0).ok());
  const double nan = std::nan("");
  EXPECT_FALSE(
      server->SubmitNearestNeighbors({nan, 0.0, 0.0}, 1).ok());
  EXPECT_TRUE(server->SubmitNearestNeighbors({1.0, 2.0, 3.0}, 1).ok());
}

// The served results — through the exact blocked fallback — must be
// bit-identical to the database's linear scan, per element.
TEST(QueryServerTest, ExactFallbackBitIdenticalToLinearScan) {
  MotionDatabase db = MakeDb(200, 17, 3);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  const auto queries = MakeQueries(40, 17, 4);
  auto batch = server->NearestNeighborsBatch(queries, 5);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 5);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual((*batch)[i], *linear);
  }
}

// Served through a fresh index the answers are the same bits again —
// the quantized coarse tier and the server batching change only the
// work done, never the hits.
TEST(QueryServerTest, IndexPathBitIdenticalToLinearScan) {
  MotionDatabase db = MakeDb(300, 17, 5);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  auto server = QueryServer::Create(&db, &*index);
  ASSERT_TRUE(server.ok());
  const auto queries = MakeQueries(40, 17, 6);
  auto batch = server->NearestNeighborsBatch(queries, 5);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const QueryServerStats stats = server->stats();
  EXPECT_GT(stats.index_stats.partitions_visited, 0u)
      << "expected the fresh index to serve the batch";
  // Index serving always keeps the per-shard counters, one shard here.
  ASSERT_EQ(stats.shard_stats.size(), 1u);
  EXPECT_EQ(stats.shard_stats[0].scans, queries.size());
  EXPECT_EQ(stats.shard_stats[0].distance_computations,
            stats.index_stats.distance_computations);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 5);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual((*batch)[i], *linear);
  }
}

TEST(QueryServerTest, AdmissionBoundRejectsWithOutOfRange) {
  MotionDatabase db = MakeDb(20, 3, 7);
  QueryServerOptions opts;
  opts.max_queue = 4;
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  const std::vector<double> q = {1.0, 2.0, 3.0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server->SubmitNearestNeighbors(q, 1).ok());
  }
  auto rejected = server->SubmitNearestNeighbors(q, 1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(server->stats().rejected, 1u);
  ASSERT_TRUE(server->Drain().ok());
  // Space freed: admission works again.
  EXPECT_TRUE(server->SubmitNearestNeighbors(q, 1).ok());
}

// The batch conveniences must survive request sets far larger than the
// admission queue (backpressure, not failure).
TEST(QueryServerTest, BatchLargerThanQueueBackpressures) {
  MotionDatabase db = MakeDb(50, 5, 8);
  QueryServerOptions opts;
  opts.max_queue = 3;
  opts.max_batch = 2;
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  const auto queries = MakeQueries(20, 5, 9);
  auto batch = server->NearestNeighborsBatch(queries, 2);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 2);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual((*batch)[i], *linear);
  }
  // Rejections happened internally (the queue is 3 deep) but were
  // absorbed by backpressure, never surfaced to the caller.
  EXPECT_EQ(server->stats().served, queries.size());
}

TEST(QueryServerTest, RepeatedQueriesHitTheCache) {
  MotionDatabase db = MakeDb(100, 5, 10);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  const auto queries = MakeQueries(4, 5, 11);
  ASSERT_TRUE(server->NearestNeighborsBatch(queries, 3).ok());
  EXPECT_EQ(server->stats().cache_hits, 0u);
  EXPECT_EQ(server->stats().cache_misses, 4u);
  auto again = server->NearestNeighborsBatch(queries, 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(server->stats().cache_hits, 4u);
  EXPECT_EQ(server->stats().cache_misses, 4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 3);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual((*again)[i], *linear);
  }
  // Different k is a different key.
  ASSERT_TRUE(server->NearestNeighborsBatch(queries, 4).ok());
  EXPECT_EQ(server->stats().cache_hits, 4u);
  EXPECT_EQ(server->stats().cache_misses, 8u);
}

// Database mutation moves the epoch: cached entries keyed under the
// old epoch can never match again, and re-serving reflects the new
// feature values.
TEST(QueryServerTest, CacheInvalidatedByEpochOnMutation) {
  MotionDatabase db = MakeDb(50, 3, 12);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  const std::vector<double> q = {0.0, 0.0, 0.0};
  auto before = server->NearestNeighbors(q, 1);
  ASSERT_TRUE(before.ok());
  // Move some record onto the query point; the cached answer is stale.
  ASSERT_TRUE(db.UpdateFeature(7, {0.0, 0.0, 0.0}).ok());
  auto after = server->NearestNeighbors(q, 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(server->stats().cache_hits, 0u)
      << "epoch moved, the old entry must not match";
  EXPECT_EQ((*after)[0].record_index, 7u);
  EXPECT_EQ((*after)[0].distance, 0.0);
}

// A stale index must not be consulted: the server falls back to the
// exact scan (correct answers, zero index stats deltas).
TEST(QueryServerTest, StaleIndexFallsBackToExactScan) {
  MotionDatabase db = MakeDb(100, 5, 13);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  auto server = QueryServer::Create(&db, &*index);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(db.UpdateFeature(0, db.record(1).feature).ok());
  const auto queries = MakeQueries(8, 5, 14);
  auto batch = server->NearestNeighborsBatch(queries, 3);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(server->stats().index_stats.partitions_visited, 0u)
      << "stale index must not serve";
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 3);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual((*batch)[i], *linear);
  }
}

TEST(QueryServerTest, DuplicateQueriesInOneBatchCoalesce) {
  MotionDatabase db = MakeDb(60, 3, 15);
  QueryServerOptions opts;
  opts.cache_capacity = 0;  // isolate coalescing from caching
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  const std::vector<double> q = {1.0, 2.0, 3.0};
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 6; ++i) {
    auto t = server->SubmitNearestNeighbors(q, 2);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  ASSERT_TRUE(server->Drain().ok());
  const QueryServerStats stats = server->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced, 5u);
  auto linear = db.NearestNeighbors(q, 2);
  ASSERT_TRUE(linear.ok());
  for (uint64_t t : tickets) {
    auto hits = server->TakeHits(t);
    ASSERT_TRUE(hits.ok());
    ExpectHitsEqual(*hits, *linear);
  }
  // A ticket can be taken exactly once.
  EXPECT_FALSE(server->TakeHits(tickets[0]).ok());
}

TEST(QueryServerTest, CacheEvictionRespectsCapacity) {
  MotionDatabase db = MakeDb(40, 4, 16);
  QueryServerOptions opts;
  opts.cache_capacity = 3;
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  const auto queries = MakeQueries(10, 4, 17);
  ASSERT_TRUE(server->NearestNeighborsBatch(queries, 1).ok());
  const QueryServerStats stats = server->stats();
  EXPECT_EQ(stats.cache_misses, 10u);
  EXPECT_EQ(stats.evictions, 7u);
  // The most recent 3 still hit; the oldest was evicted.
  ASSERT_TRUE(server->NearestNeighbors(queries[9], 1).ok());
  EXPECT_EQ(server->stats().cache_hits, 1u);
  ASSERT_TRUE(server->NearestNeighbors(queries[0], 1).ok());
  EXPECT_EQ(server->stats().cache_hits, 1u);
}

TEST(QueryServerTest, ClassifyMatchesDatabaseVote) {
  MotionDatabase db = MakeDb(120, 5, 18);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  auto server = QueryServer::Create(&db, &*index);
  ASSERT_TRUE(server.ok());
  const auto queries = MakeQueries(25, 5, 19);
  auto labels = server->ClassifyBatch(queries, 5);
  ASSERT_TRUE(labels.ok()) << labels.status();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto want = db.ClassifyByVote(queries[i], 5);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ((*labels)[i], *want) << "query " << i;
  }
}

// Satellite 4: the same request sequence must produce bit-identical
// results AND identical cache-hit counts at every thread budget. The
// "Parallel" in the name keeps this test in the tsan multi-thread
// rerun (tools/run_sanitized_tests.sh).
TEST(QueryServerTest, ParallelServingBitIdenticalAcrossThreadCounts) {
  MotionDatabase db = MakeDb(250, 17, 20);
  auto index = BuildIndex(&db);
  ASSERT_TRUE(index.ok());
  // A request mix with repeats (cache hits), in-batch duplicates
  // (coalescing), and two distinct k values (k-grouping).
  auto queries = MakeQueries(30, 17, 21);
  for (int i = 0; i < 10; ++i) queries.push_back(queries[i % 5]);
  std::vector<std::vector<std::vector<QueryHit>>> all_results;
  std::vector<QueryServerStats> all_stats;
  for (size_t threads : {1, 2, 8}) {
    QueryServerOptions opts;
    opts.max_batch = 16;
    opts.parallel.max_threads = threads;
    auto server = QueryServer::Create(&db, &*index, opts);
    ASSERT_TRUE(server.ok());
    std::vector<uint64_t> tickets;
    for (const auto& q : queries) {
      auto t = server->SubmitNearestNeighbors(q, (tickets.size() % 2)
                                                     ? size_t{3}
                                                     : size_t{7});
      ASSERT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    ASSERT_TRUE(server->Drain().ok());
    std::vector<std::vector<QueryHit>> results;
    for (uint64_t t : tickets) {
      auto hits = server->TakeHits(t);
      ASSERT_TRUE(hits.ok());
      results.push_back(*std::move(hits));
    }
    all_results.push_back(std::move(results));
    all_stats.push_back(server->stats());
  }
  for (size_t v = 1; v < all_results.size(); ++v) {
    ASSERT_EQ(all_results[v].size(), all_results[0].size());
    for (size_t i = 0; i < all_results[0].size(); ++i) {
      ExpectHitsEqual(all_results[v][i], all_results[0][i]);
    }
    EXPECT_EQ(all_stats[v].cache_hits, all_stats[0].cache_hits);
    EXPECT_EQ(all_stats[v].cache_misses, all_stats[0].cache_misses);
    EXPECT_EQ(all_stats[v].coalesced, all_stats[0].coalesced);
    EXPECT_EQ(all_stats[v].batches, all_stats[0].batches);
  }
  EXPECT_GT(all_stats[0].cache_hits, 0u) << "mix should exercise the cache";
}

// Background worker + concurrent submitters: every synchronous request
// still gets the linear scan's exact bits. (tsan covers the locking in
// the multi-thread rerun; the name keeps it in that pass.)
TEST(QueryServerTest, ParallelWorkerServesConcurrentClients) {
  MotionDatabase db = MakeDb(150, 9, 22);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  const auto queries = MakeQueries(24, 9, 23);
  std::vector<std::vector<QueryHit>> got(queries.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < queries.size(); i += 3) {
        auto hits = server->NearestNeighbors(queries[i], 4);
        ASSERT_TRUE(hits.ok());
        got[i] = *std::move(hits);
      }
    });
  }
  for (auto& t : clients) t.join();
  server->Stop();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 4);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual(got[i], *linear);
  }
  EXPECT_EQ(server->stats().served, queries.size());
}

// ---------------------------------------------------------------------
// Robustness layer (DESIGN.md §12): deadlines, shedding, degradation,
// backoff, fault injection.
// ---------------------------------------------------------------------

/// Index options that force the int8 tier on at test scale (the
/// default quantized_min_rows=256 would leave √N-sized partitions
/// unquantized and degradation could never fire).
FeatureIndexOptions QuantizedIndexOptions() {
  FeatureIndexOptions opts;
  opts.num_partitions = 4;
  opts.quantized_min_rows = 1;
  return opts;
}

double TrueDistance(const MotionDatabase& db, const std::vector<double>& q,
                    size_t record) {
  const std::vector<double>& f = db.record(record).feature;
  double acc = 0.0;
  for (size_t j = 0; j < q.size(); ++j) {
    const double d = q[j] - f[j];
    acc += d * d;
  }
  return std::sqrt(acc);
}

TEST(QueryServerTest, CreateRejectsWatermarkAboveMaxQueue) {
  MotionDatabase db = MakeDb(10, 3, 50);
  QueryServerOptions opts;
  opts.max_queue = 8;
  opts.degrade_watermark = 9;
  auto bad = QueryServer::Create(&db, nullptr, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  opts.degrade_watermark = 8;
  EXPECT_TRUE(QueryServer::Create(&db, nullptr, opts).ok());
}

TEST(QueryServerTest, SubmitRejectsKLargerThanDatabase) {
  MotionDatabase db = MakeDb(10, 3, 51);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  auto too_big = server->SubmitNearestNeighbors({1.0, 2.0, 3.0}, 11);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(server->SubmitNearestNeighbors({1.0, 2.0, 3.0}, 10).ok());
}

// Expiry sweep semantics: only overdue requests fail, with
// DeadlineExceeded; still-live requests are served in their original
// FIFO order, and expired requests never occupy batch slots.
TEST(QueryServerTest, DeadlineExpiryShedsOnlyOverdueRequests) {
  MotionDatabase db = MakeDb(60, 4, 52);
  FakeClock clock;
  QueryServerOptions opts;
  opts.clock = &clock;
  opts.max_batch = 8;
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  const auto queries = MakeQueries(6, 4, 53);
  // Alternate short (100µs) and long (1s) budgets.
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto t = server->SubmitNearestNeighbors(
        queries[i], 2, (i % 2 == 0) ? uint64_t{100} : uint64_t{1000000});
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  clock.Advance(500);  // past the short budgets, inside the long ones
  ASSERT_TRUE(server->Drain().ok());
  const QueryServerStats stats = server->stats();
  EXPECT_EQ(stats.expired, 3u);
  EXPECT_EQ(stats.served, 3u);
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto hits = server->TakeHits(tickets[i]);
    if (i % 2 == 0) {
      ASSERT_FALSE(hits.ok()) << "short-budget request " << i;
      EXPECT_EQ(hits.status().code(), StatusCode::kDeadlineExceeded);
    } else {
      ASSERT_TRUE(hits.ok()) << hits.status();
      auto linear = db.NearestNeighbors(queries[i], 2);
      ASSERT_TRUE(linear.ok());
      ExpectHitsEqual(*hits, *linear);
    }
  }
}

// default_deadline_us applies to submits without an explicit budget.
TEST(QueryServerTest, DefaultDeadlineAppliesToPlainSubmits) {
  MotionDatabase db = MakeDb(30, 3, 54);
  FakeClock clock;
  QueryServerOptions opts;
  opts.clock = &clock;
  opts.default_deadline_us = 1000;
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  auto t = server->SubmitNearestNeighbors({1.0, 2.0, 3.0}, 1);
  ASSERT_TRUE(t.ok());
  clock.Advance(1000);
  ASSERT_TRUE(server->Drain().ok());
  auto hits = server->TakeHits(*t);
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server->stats().expired, 1u);
}

TEST(QueryServerTest, RetryAfterHintParsesAndGrowsWithQueueDepth) {
  // Parser corners first.
  EXPECT_EQ(RetryAfterMicros(Status::OK()), 0u);
  EXPECT_EQ(RetryAfterMicros(Status::OutOfRange("queue full")), 0u);
  EXPECT_EQ(RetryAfterMicros(Status::OutOfRange("retry_after_us=1234")),
            1234u);
  EXPECT_EQ(
      RetryAfterMicros(Status::OutOfRange("full; retry_after_us=77 now")),
      77u);

  // The hint is (depth + 1) × EWMA drain time: a deeper queue at
  // rejection time must produce a larger hint.
  MotionDatabase db = MakeDb(20, 3, 55);
  FakeClock clock;
  const std::vector<double> q = {1.0, 2.0, 3.0};
  std::vector<uint64_t> hints;
  for (size_t max_queue : {2, 6, 11}) {
    QueryServerOptions opts;
    opts.clock = &clock;
    opts.max_queue = max_queue;
    auto server = QueryServer::Create(&db, nullptr, opts);
    ASSERT_TRUE(server.ok());
    for (size_t i = 0; i < max_queue; ++i) {
      ASSERT_TRUE(server->SubmitNearestNeighbors(q, 1).ok());
    }
    auto rejected = server->SubmitNearestNeighbors(q, 1);
    ASSERT_FALSE(rejected.ok());
    ASSERT_TRUE(rejected.status().IsOutOfRange());
    const uint64_t hint = RetryAfterMicros(rejected.status());
    EXPECT_GT(hint, 0u);
    hints.push_back(hint);
  }
  EXPECT_LT(hints[0], hints[1]);
  EXPECT_LT(hints[1], hints[2]);
}

// Watermark degradation end to end: while the queue is at or above the
// watermark the batches answer from the coarse tier (tagged, bounded),
// and once pressure clears the remaining batches are exact again — all
// within one deterministic drain.
TEST(QueryServerTest, WatermarkDegradesAndRecoversDeterministically) {
  MotionDatabase db = MakeDb(200, 9, 56);
  auto index = BuildIndex(&db, QuantizedIndexOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->has_quantized_tier());
  const auto queries = MakeQueries(24, 9, 57);

  QueryServerOptions opts;
  opts.max_batch = 4;
  opts.degrade_watermark = 12;
  auto server = QueryServer::Create(&db, &*index, opts);
  ASSERT_TRUE(server.ok());
  std::vector<uint64_t> tickets;
  for (const auto& q : queries) {
    auto t = server->SubmitNearestNeighbors(q, 3);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  ASSERT_TRUE(server->Drain().ok());
  const QueryServerStats stats = server->stats();
  // Depth at formation: 24, 20, 16, 12 (degraded) then 8, 4 (exact).
  EXPECT_EQ(stats.degraded_batches, 4u);
  EXPECT_EQ(stats.degraded, 16u);
  EXPECT_EQ(stats.served, 24u);

  for (size_t i = 0; i < tickets.size(); ++i) {
    auto answer = server->TakeAnswer(tickets[i]);
    ASSERT_TRUE(answer.ok()) << answer.status();
    auto linear = db.NearestNeighbors(queries[i], 3);
    ASSERT_TRUE(linear.ok());
    if (i < 16) {
      EXPECT_TRUE(answer->degraded) << "request " << i;
      EXPECT_GT(answer->error_bound, 0.0);
      // Certified bound: every reported distance is within B of that
      // record's true distance.
      for (const QueryHit& hit : answer->hits) {
        const double truth = TrueDistance(db, queries[i], hit.record_index);
        EXPECT_LE(std::abs(hit.distance - truth),
                  answer->error_bound + 1e-9)
            << "request " << i << " record " << hit.record_index;
      }
    } else {
      EXPECT_FALSE(answer->degraded) << "request " << i;
      EXPECT_EQ(answer->error_bound, 0.0);
      ExpectHitsEqual(answer->hits, *linear);
    }
  }
}

// Degraded answers must never poison the cache: re-asking the same
// query under no pressure gets the exact answer, not a cached
// approximation.
TEST(QueryServerTest, DegradedAnswersAreNotCached) {
  MotionDatabase db = MakeDb(150, 5, 58);
  auto index = BuildIndex(&db, QuantizedIndexOptions());
  ASSERT_TRUE(index.ok());
  const auto queries = MakeQueries(8, 5, 59);

  QueryServerOptions opts;
  opts.max_batch = 8;
  opts.degrade_watermark = 8;
  auto server = QueryServer::Create(&db, &*index, opts);
  ASSERT_TRUE(server.ok());
  std::vector<uint64_t> tickets;
  for (const auto& q : queries) {
    auto t = server->SubmitNearestNeighbors(q, 2);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  ASSERT_TRUE(server->Drain().ok());
  ASSERT_EQ(server->stats().degraded, 8u);
  for (uint64_t t : tickets) ASSERT_TRUE(server->TakeHits(t).ok());

  // Pressure cleared: the same queries must be evaluated afresh.
  for (const auto& q : queries) {
    auto hits = server->NearestNeighbors(q, 2);
    ASSERT_TRUE(hits.ok());
    auto linear = db.NearestNeighbors(q, 2);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual(*hits, *linear);
  }
  EXPECT_EQ(server->stats().cache_hits, 0u)
      << "degraded batch results must not have been cached";
}

// Satellite 4, tsan-joined by name: the degradation pattern — which
// batches degrade, which requests are tagged, the exact bits of every
// answer — is identical at every kernel-thread budget.
TEST(QueryServerTest, ParallelDegradationIdenticalAcrossThreadCounts) {
  MotionDatabase db = MakeDb(220, 9, 60);
  auto index = BuildIndex(&db, QuantizedIndexOptions());
  ASSERT_TRUE(index.ok());
  const auto queries = MakeQueries(30, 9, 61);
  std::vector<std::vector<std::pair<bool, std::vector<QueryHit>>>> runs;
  std::vector<QueryServerStats> run_stats;
  for (size_t threads : {1, 2, 8}) {
    QueryServerOptions opts;
    opts.max_batch = 5;
    opts.degrade_watermark = 15;
    opts.parallel.max_threads = threads;
    auto server = QueryServer::Create(&db, &*index, opts);
    ASSERT_TRUE(server.ok());
    std::vector<uint64_t> tickets;
    for (const auto& q : queries) {
      auto t = server->SubmitNearestNeighbors(q, 4);
      ASSERT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    ASSERT_TRUE(server->Drain().ok());
    std::vector<std::pair<bool, std::vector<QueryHit>>> outcomes;
    for (uint64_t t : tickets) {
      auto answer = server->TakeAnswer(t);
      ASSERT_TRUE(answer.ok());
      outcomes.emplace_back(answer->degraded, std::move(answer->hits));
    }
    runs.push_back(std::move(outcomes));
    run_stats.push_back(server->stats());
  }
  for (size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[v][i].first, runs[0][i].first) << "request " << i;
      ExpectHitsEqual(runs[v][i].second, runs[0][i].second);
    }
    EXPECT_EQ(run_stats[v].degraded, run_stats[0].degraded);
    EXPECT_EQ(run_stats[v].degraded_batches, run_stats[0].degraded_batches);
    EXPECT_EQ(run_stats[v].batches, run_stats[0].batches);
  }
  EXPECT_GT(run_stats[0].degraded, 0u);
  EXPECT_LT(run_stats[0].degraded, queries.size())
      << "the mix should cover both degraded and exact batches";
}

TEST(QueryServerTest, BackoffScheduleIsSeededAndBounded) {
  BackoffOptions opts;
  opts.initial_us = 1000;
  opts.max_us = 16000;
  opts.multiplier = 2.0;
  opts.jitter = 0.2;
  opts.seed = 42;
  JitteredBackoff a(opts);
  JitteredBackoff b(opts);
  uint64_t prev_base = 0;
  for (int i = 0; i < 8; ++i) {
    const uint64_t da = a.NextDelayUs();
    const uint64_t db2 = b.NextDelayUs();
    EXPECT_EQ(da, db2) << "same seed, same schedule (draw " << i << ")";
    // Within ±jitter of the exponential base, clamped at max_us.
    const double base = std::min<double>(
        1000.0 * std::pow(2.0, i), static_cast<double>(opts.max_us));
    EXPECT_GE(static_cast<double>(da), base * 0.8 - 1.0);
    EXPECT_LE(static_cast<double>(da), base * 1.2 + 1.0);
    prev_base = da;
  }
  (void)prev_base;
  // Different seed, different jitter draws.
  BackoffOptions other = opts;
  other.seed = 43;
  JitteredBackoff c(other);
  JitteredBackoff d(opts);
  int diffs = 0;
  for (int i = 0; i < 8; ++i) {
    if (c.NextDelayUs() != d.NextDelayUs()) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

// A full server that never drains: SubmitWithBackoff must sleep at
// least the server's retry_after hint between attempts (on the fake
// clock) and surface the final rejection.
TEST(QueryServerTest, SubmitWithBackoffHonorsRetryAfterHint) {
  MotionDatabase db = MakeDb(20, 3, 62);
  FakeClock clock;
  QueryServerOptions opts;
  opts.clock = &clock;
  opts.max_queue = 4;
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  const std::vector<double> q = {1.0, 2.0, 3.0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server->SubmitNearestNeighbors(q, 1).ok());
  }
  auto probe = server->SubmitNearestNeighbors(q, 1);
  ASSERT_FALSE(probe.ok());
  const uint64_t hint = RetryAfterMicros(probe.status());
  ASSERT_GT(hint, 0u);

  BackoffOptions backoff;
  backoff.initial_us = 1;  // make the hint the binding constraint
  backoff.max_us = 2;
  backoff.max_attempts = 4;
  const uint64_t before = clock.NowMicros();
  auto result = SubmitWithBackoff(&*server, q, 1, false, backoff, &clock);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange());
  // Three sleeps (between four attempts), each >= the hint.
  EXPECT_GE(clock.NowMicros() - before, 3 * hint);
  EXPECT_EQ(server->stats().rejected, 1u + 4u);
}

TEST(QueryServerTest, SubmitWithBackoffSucceedsOnceQueueDrains) {
  MotionDatabase db = MakeDb(40, 3, 63);
  QueryServerOptions opts;
  opts.max_queue = 2;
  auto server = QueryServer::Create(&db, nullptr, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  const std::vector<double> q = {1.0, 2.0, 3.0};
  // With the worker draining, a burst beyond the queue bound succeeds
  // through retries.
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 10; ++i) {
    BackoffOptions backoff;
    backoff.initial_us = 100;
    backoff.max_attempts = 50;
    auto t = SubmitWithBackoff(&*server, q, 2, false, backoff);
    ASSERT_TRUE(t.ok()) << t.status();
    tickets.push_back(*t);
  }
  for (uint64_t t : tickets) {
    ASSERT_TRUE(server->TakeHits(t).ok());
  }
  server->Stop();
}

TEST(QueryServerTest, NoteSnapshotLoadFeedsCounters) {
  MotionDatabase db = MakeDb(10, 3, 64);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  server->NoteSnapshotLoad(true);
  server->NoteSnapshotLoad(false);
  const QueryServerStats stats = server->stats();
  EXPECT_EQ(stats.snapshot_loads, 2u);
  EXPECT_EQ(stats.snapshot_fallbacks, 1u);
}

TEST(QueryServerTest, QueueHighWaterTracksPeakDepth) {
  MotionDatabase db = MakeDb(20, 3, 65);
  auto server = QueryServer::Create(&db);
  ASSERT_TRUE(server.ok());
  const std::vector<double> q = {1.0, 2.0, 3.0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server->SubmitNearestNeighbors(q, 1).ok());
  }
  ASSERT_TRUE(server->Drain().ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(server->SubmitNearestNeighbors(q, 1).ok());
  }
  ASSERT_TRUE(server->Drain().ok());
  EXPECT_EQ(server->stats().queue_high_water, 5u);
}

// The PR 6 acceptance test: a stress run under injected slow batches,
// evaluation failures, clock skew, deadlines, and the degradation
// watermark must produce the SAME outcome for every request — shed /
// degraded / exact / failed, with identical bits — on every rerun and
// at every thread budget. ("ServingFault" in the name joins the tsan
// multi-thread rerun.)
TEST(QueryServerTest, ServingFaultInjectedStressDeterministic) {
  MotionDatabase db = MakeDb(240, 9, 66);
  auto index = BuildIndex(&db, QuantizedIndexOptions());
  ASSERT_TRUE(index.ok());
  auto queries = MakeQueries(48, 9, 67);
  for (int i = 0; i < 12; ++i) queries.push_back(queries[i % 6]);

  struct RunResult {
    std::vector<std::string> outcomes;  ///< per-ticket signature
    QueryServerStats stats;
  };
  auto run = [&](size_t threads) -> RunResult {
    FakeClock clock;
    ServingFaultOptions fopts;
    fopts.seed = 7;
    fopts.slow_batch_probability = 0.5;
    fopts.slow_batch_stall_us = 2000;
    fopts.eval_failure_probability = 0.15;
    fopts.clock_skew_probability = 0.1;
    fopts.clock_skew_us = 500;
    ServingFaultInjector injector(fopts, &clock);
    QueryServerOptions opts;
    opts.clock = &clock;
    opts.max_batch = 4;
    opts.degrade_watermark = 24;
    opts.default_deadline_us = 9000;
    opts.faults = &injector;
    opts.parallel.max_threads = threads;
    auto server = QueryServer::Create(&db, &*index, opts);
    EXPECT_TRUE(server.ok());
    std::vector<uint64_t> tickets;
    for (const auto& q : queries) {
      auto t = server->SubmitNearestNeighbors(q, 3);
      EXPECT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    // Drain through the faults: batch failures surface per ticket,
    // the pump keeps going.
    size_t served = 0;
    do {
      (void)server->DrainOnce(&served);
    } while (served > 0);
    RunResult result;
    for (uint64_t t : tickets) {
      auto answer = server->TakeAnswer(t);
      std::string sig;
      if (!answer.ok()) {
        sig = std::string("err:") +
              StatusCodeToString(answer.status().code());
      } else {
        sig = answer->degraded ? "degraded:" : "exact:";
        for (const QueryHit& hit : answer->hits) {
          sig += std::to_string(hit.record_index) + "@" +
                 std::to_string(hit.distance) + ";";
        }
      }
      result.outcomes.push_back(std::move(sig));
    }
    result.stats = server->stats();
    return result;
  };

  const RunResult base = run(1);
  const RunResult rerun = run(1);
  const RunResult mt2 = run(2);
  const RunResult mt8 = run(8);

  // The stress must actually exercise every mechanism.
  uint64_t n_expired = 0, n_failed = 0;
  for (const std::string& sig : base.outcomes) {
    if (sig == "err:DeadlineExceeded") ++n_expired;
    if (sig == "err:Unavailable") ++n_failed;
  }
  EXPECT_GT(n_expired, 0u) << "stalls should push requests past deadline";
  EXPECT_GT(n_failed, 0u) << "eval failures should surface";
  EXPECT_GT(base.stats.degraded, 0u) << "watermark should fire";
  EXPECT_EQ(base.stats.expired, n_expired);

  for (const RunResult* other : {&rerun, &mt2, &mt8}) {
    ASSERT_EQ(other->outcomes.size(), base.outcomes.size());
    for (size_t i = 0; i < base.outcomes.size(); ++i) {
      EXPECT_EQ(other->outcomes[i], base.outcomes[i]) << "request " << i;
    }
    EXPECT_EQ(other->stats.served, base.stats.served);
    EXPECT_EQ(other->stats.expired, base.stats.expired);
    EXPECT_EQ(other->stats.degraded, base.stats.degraded);
    EXPECT_EQ(other->stats.degraded_batches, base.stats.degraded_batches);
    EXPECT_EQ(other->stats.batches, base.stats.batches);
    EXPECT_EQ(other->stats.rejected, base.stats.rejected);
  }
}

// Concurrent Start()/Submit/Take with live fault injection: the locks
// and condition variables must hold up under stalls and batch
// failures (this is the asan/tsan target; both "Parallel" and
// "ServingFault" keep it in the multi-thread rerun).
TEST(QueryServerTest, ParallelServingFaultInjectedClientsSurvive) {
  MotionDatabase db = MakeDb(150, 5, 68);
  auto index = BuildIndex(&db, QuantizedIndexOptions());
  ASSERT_TRUE(index.ok());
  ServingFaultOptions fopts;
  fopts.seed = 11;
  fopts.slow_batch_probability = 0.3;
  fopts.slow_batch_stall_us = 500;  // real sleeps: no fake clock here
  fopts.eval_failure_probability = 0.2;
  ServingFaultInjector injector(fopts);
  QueryServerOptions opts;
  opts.max_queue = 16;
  opts.max_batch = 4;
  opts.degrade_watermark = 8;
  opts.faults = &injector;
  auto server = QueryServer::Create(&db, &*index, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  const auto queries = MakeQueries(30, 5, 69);
  std::atomic<int> ok_count{0}, fail_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < queries.size(); i += 3) {
        BackoffOptions backoff;
        backoff.initial_us = 200;
        backoff.max_attempts = 100;
        backoff.seed = 100 + i;
        auto t = SubmitWithBackoff(&*server, queries[i], 3, false, backoff);
        if (!t.ok()) {
          ++fail_count;
          continue;
        }
        auto answer = server->TakeAnswer(*t);
        if (answer.ok()) {
          ++ok_count;
        } else {
          // Injected failures surface as Unavailable; nothing else may.
          EXPECT_TRUE(answer.status().IsUnavailable()) << answer.status();
          ++fail_count;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server->Stop();
  EXPECT_EQ(ok_count + fail_count, 30);
  EXPECT_GT(ok_count.load(), 0);
  const QueryServerStats stats = server->stats();
  // Conservation: every admitted request was either answered (served,
  // possibly with an injected failure) or shed by a deadline sweep.
  EXPECT_EQ(stats.served + stats.expired, stats.submitted);
}

TEST(QueryServerTest, CreateRejectsZeroPipelineDepth) {
  MotionDatabase db = MakeDb(10, 3, 70);
  QueryServerOptions opts;
  opts.pipeline_depth = 0;
  EXPECT_FALSE(QueryServer::Create(&db, nullptr, opts).ok());
}

TEST(QueryServerTest, ShardedServingBitIdenticalToLinearScan) {
  const size_t kDim = 7;
  MotionDatabase db = MakeDb(220, kDim, 71);
  ShardedIndexOptions sopts;
  sopts.num_shards = 3;
  auto index = ShardedFeatureIndex::Build(&db, sopts);
  ASSERT_TRUE(index.ok()) << index.status();
  QueryServerOptions opts;
  opts.max_batch = 8;
  auto server = QueryServer::Create(&db, &*index, opts);
  ASSERT_TRUE(server.ok()) << server.status();
  const auto queries = MakeQueries(24, kDim, 72);
  auto got = server->NearestNeighborsBatch(queries, 5);
  ASSERT_TRUE(got.ok()) << got.status();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 5);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual(*linear, (*got)[i]);
  }
  // The per-shard counters must be populated, deterministic, and sum
  // to the aggregate.
  const QueryServerStats stats = server->stats();
  ASSERT_EQ(stats.shard_stats.size(), index->num_shards());
  uint64_t scans = 0, dists = 0;
  for (const ShardServeStats& ss : stats.shard_stats) {
    EXPECT_GT(ss.scans, 0u);
    scans += ss.scans;
    dists += ss.distance_computations;
  }
  EXPECT_EQ(scans, stats.cache_misses * index->num_shards() -
                       stats.coalesced * index->num_shards());
  EXPECT_EQ(dists, stats.index_stats.distance_computations);
}

// The same sharded workload must produce identical per-shard counters
// at every thread count: stats are folded in fixed (query, shard)
// order at commit.
TEST(QueryServerTest, ParallelShardedStatsDeterministicAcrossThreads) {
  const size_t kDim = 7;
  MotionDatabase db = MakeDb(220, kDim, 73);
  const auto queries = MakeQueries(24, kDim, 74);
  auto run = [&](size_t threads) -> QueryServerStats {
    ShardedIndexOptions sopts;
    sopts.num_shards = 3;
    sopts.index.parallel.max_threads = threads;
    auto index = ShardedFeatureIndex::Build(&db, sopts);
    EXPECT_TRUE(index.ok());
    QueryServerOptions opts;
    opts.max_batch = 8;
    opts.parallel.max_threads = threads;
    auto server = QueryServer::Create(&db, &*index, opts);
    EXPECT_TRUE(server.ok());
    auto got = server->NearestNeighborsBatch(queries, 5);
    EXPECT_TRUE(got.ok());
    return server->stats();
  };
  const QueryServerStats base = run(1);
  for (size_t threads : {2, 8}) {
    const QueryServerStats other = run(threads);
    ASSERT_EQ(other.shard_stats.size(), base.shard_stats.size());
    for (size_t s = 0; s < base.shard_stats.size(); ++s) {
      EXPECT_EQ(other.shard_stats[s].scans, base.shard_stats[s].scans);
      EXPECT_EQ(other.shard_stats[s].distance_computations,
                base.shard_stats[s].distance_computations);
      EXPECT_EQ(other.shard_stats[s].coarse_computations,
                base.shard_stats[s].coarse_computations);
      EXPECT_EQ(other.shard_stats[s].coarse_pruned,
                base.shard_stats[s].coarse_pruned);
    }
  }
}

// Pipelined waves must answer every request with the same bits as the
// one-batch-at-a-time schedule. (Cache-hit counts may legitimately
// differ — batches of one wave cannot see each other's inserts — so
// only answers and batch structure are compared.)
TEST(QueryServerTest, PipelinedServingIdenticalAcrossDepths) {
  const size_t kDim = 6;
  MotionDatabase db = MakeDb(200, kDim, 75);
  auto queries = MakeQueries(36, kDim, 76);
  for (int i = 0; i < 8; ++i) queries.push_back(queries[i]);  // dupes
  auto run = [&](size_t depth) {
    ShardedIndexOptions sopts;
    sopts.num_shards = 3;
    auto index = ShardedFeatureIndex::Build(&db, sopts);
    EXPECT_TRUE(index.ok());
    QueryServerOptions opts;
    opts.max_batch = 4;
    opts.pipeline_depth = depth;
    auto server = QueryServer::Create(&db, &*index, opts);
    EXPECT_TRUE(server.ok());
    std::vector<uint64_t> tickets;
    for (const auto& q : queries) {
      auto t = server->SubmitNearestNeighbors(q, 5);
      EXPECT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    EXPECT_TRUE(server->Drain().ok());
    std::vector<std::vector<QueryHit>> answers;
    for (uint64_t t : tickets) {
      auto hits = server->TakeHits(t);
      EXPECT_TRUE(hits.ok());
      answers.push_back(*hits);
    }
    return std::make_pair(std::move(answers), server->stats());
  };
  const auto base = run(1);
  for (size_t depth : {2, 4}) {
    const auto other = run(depth);
    ASSERT_EQ(other.first.size(), base.first.size());
    for (size_t i = 0; i < base.first.size(); ++i) {
      ExpectHitsEqual(base.first[i], other.first[i]);
    }
    EXPECT_EQ(other.second.served, base.second.served);
    EXPECT_EQ(other.second.batches, base.second.batches);
    EXPECT_EQ(other.second.expired, base.second.expired);
  }
  // And the depth-1 answers themselves are exact.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 5);
    ASSERT_TRUE(linear.ok());
    ExpectHitsEqual(*linear, base.first[i]);
  }
}

// A mutation to one shard must invalidate only the cache entries that
// provably depended on it. Two well-separated clusters land in two
// partitions (and with 2 shards, one partition per shard): a query
// into cluster A stays a cache hit across a mutation in cluster B,
// and misses after a mutation in cluster A.
TEST(QueryServerTest, ShardedCacheSurvivesOtherShardMutation) {
  const size_t kDim = 5;
  MotionDatabase db;
  {
    Rng rng(97);
    for (size_t i = 0; i < 80; ++i) {
      MotionRecord r;
      const size_t cluster = i % 2;
      r.name = "m" + std::to_string(i);
      r.label = cluster;
      r.label_name = "class" + std::to_string(cluster);
      r.feature.resize(kDim);
      const double cx = cluster == 0 ? 0.0 : 1000.0;
      for (size_t j = 0; j < kDim; ++j) {
        r.feature[j] = (j == 0 ? cx : 0.0) + rng.Gaussian(0, 1.0);
      }
      ASSERT_TRUE(db.Insert(std::move(r)).ok());
    }
  }
  ShardedIndexOptions sopts;
  sopts.index.num_partitions = 2;
  sopts.num_shards = 2;
  auto index = ShardedFeatureIndex::Build(&db, sopts);
  ASSERT_TRUE(index.ok()) << index.status();
  auto shard_a = index->ShardOfRecord(0);  // cluster 0
  auto shard_b = index->ShardOfRecord(1);  // cluster 1
  ASSERT_TRUE(shard_a.ok());
  ASSERT_TRUE(shard_b.ok());
  ASSERT_NE(*shard_a, *shard_b)
      << "test construction requires one cluster per shard";
  auto server = QueryServer::Create(&db, &*index, QueryServerOptions{});
  ASSERT_TRUE(server.ok());
  // Query inside cluster 0; all its hits live in shard A.
  std::vector<double> q = db.record(0).feature;
  q[1] += 0.25;
  auto first = server->NearestNeighbors(q, 3);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(server->stats().cache_misses, 1u);
  // Mutate a cluster-1 record (stays near its centroid) and absorb it.
  std::vector<double> moved = db.record(1).feature;
  moved[2] += 0.5;
  ASSERT_TRUE(db.UpdateFeature(1, moved).ok());
  ASSERT_TRUE(index->ApplyUpdate(1).ok());
  // The entry revalidates: shard B moved, but no hit lives there and
  // every cluster-1 record is provably ~1000 away from q.
  auto second = server->NearestNeighbors(q, 3);
  ASSERT_TRUE(second.ok());
  ExpectHitsEqual(*first, *second);
  {
    const QueryServerStats stats = server->stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.cache_revalidations, 1u);
    ASSERT_EQ(stats.shard_stats.size(), 2u);
    EXPECT_EQ(stats.shard_stats[*shard_a].cache_invalidations, 0u);
    EXPECT_EQ(stats.shard_stats[*shard_b].cache_invalidations, 0u);
  }
  // Now mutate the query's own nearest neighbour: the entry's shard-A
  // dependency breaks and the next lookup must re-evaluate.
  std::vector<double> pulled = db.record(0).feature;
  pulled[1] += 5.0;
  ASSERT_TRUE(db.UpdateFeature(0, pulled).ok());
  ASSERT_TRUE(index->ApplyUpdate(0).ok());
  auto third = server->NearestNeighbors(q, 3);
  ASSERT_TRUE(third.ok());
  auto linear = db.NearestNeighbors(q, 3);
  ASSERT_TRUE(linear.ok());
  ExpectHitsEqual(*linear, *third);
  {
    const QueryServerStats stats = server->stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 2u);
    EXPECT_EQ(stats.cache_revalidations, 1u);
    EXPECT_EQ(stats.shard_stats[*shard_a].cache_invalidations, 1u);
    EXPECT_EQ(stats.shard_stats[*shard_b].cache_invalidations, 0u);
  }
}

// Degraded (watermark) serving through the sharded index must be
// bit-identical to the one-shard coarse path at every shard count.
TEST(QueryServerTest, ShardedWatermarkDegradedIdenticalAcrossShardCounts) {
  const size_t kDim = 9;
  MotionDatabase db = MakeDb(240, kDim, 77);
  const auto queries = MakeQueries(16, kDim, 78);
  auto run = [&](size_t shards) {
    ShardedIndexOptions sopts;
    sopts.index = QuantizedIndexOptions();
    sopts.num_shards = shards;
    auto index = ShardedFeatureIndex::Build(&db, sopts);
    EXPECT_TRUE(index.ok());
    EXPECT_TRUE(index->has_quantized_tier());
    QueryServerOptions opts;
    opts.max_batch = 4;
    opts.degrade_watermark = 8;
    auto server = QueryServer::Create(&db, &*index, opts);
    EXPECT_TRUE(server.ok());
    std::vector<uint64_t> tickets;
    for (const auto& q : queries) {
      auto t = server->SubmitNearestNeighbors(q, 3);
      EXPECT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    EXPECT_TRUE(server->Drain().ok());
    std::vector<std::string> sigs;
    size_t degraded = 0;
    for (uint64_t t : tickets) {
      auto answer = server->TakeAnswer(t);
      EXPECT_TRUE(answer.ok());
      std::string sig = answer->degraded ? "degraded:" : "exact:";
      sig += std::to_string(answer->error_bound) + "|";
      for (const QueryHit& hit : answer->hits) {
        sig += std::to_string(hit.record_index) + "@" +
               std::to_string(hit.distance) + ";";
      }
      if (answer->degraded) ++degraded;
      sigs.push_back(std::move(sig));
    }
    EXPECT_GT(degraded, 0u) << "watermark should fire";
    return sigs;
  };
  const auto base = run(1);
  for (size_t shards : {3, 8}) {
    const auto other = run(shards);
    ASSERT_EQ(other.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(other[i], base[i]) << "request " << i;
    }
  }
}

// SwapIndex under a live worker with racing submitters: every answer
// must equal the linear scan no matter which index (one shard, three
// shards, none) happened to serve it — a torn swap would corrupt bits or
// crash under tsan.
TEST(QueryServerTest, ParallelSwapIndexConcurrentSubmitsNeverTorn) {
  const size_t kDim = 6;
  MotionDatabase db = MakeDb(180, kDim, 79);
  auto plain = BuildIndex(&db);
  ASSERT_TRUE(plain.ok());
  ShardedIndexOptions sopts;
  sopts.num_shards = 3;
  auto sharded = ShardedFeatureIndex::Build(&db, sopts);
  ASSERT_TRUE(sharded.ok());
  const auto queries = MakeQueries(60, kDim, 80);
  std::vector<std::vector<QueryHit>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto linear = db.NearestNeighbors(queries[i], 4);
    ASSERT_TRUE(linear.ok());
    expected[i] = *linear;
  }
  QueryServerOptions opts;
  opts.max_batch = 4;
  opts.cache_capacity = 0;  // force every request through evaluation
  opts.pipeline_depth = 2;
  auto server = QueryServer::Create(&db, &*plain, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    size_t round = 0;
    while (!done.load()) {
      switch (round++ % 3) {
        case 0:
          EXPECT_TRUE(server->SwapIndex(&*sharded).ok());
          break;
        case 1:
          EXPECT_TRUE(server->SwapIndex(nullptr).ok());
          break;
        default:
          EXPECT_TRUE(server->SwapIndex(&*plain).ok());
          break;
      }
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> served{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < queries.size(); i += 2) {
        BackoffOptions backoff;
        backoff.initial_us = 100;
        backoff.max_attempts = 200;
        backoff.seed = 300 + i;
        auto t = SubmitWithBackoff(&*server, queries[i], 4, false, backoff);
        ASSERT_TRUE(t.ok()) << t.status();
        auto hits = server->TakeHits(*t);
        ASSERT_TRUE(hits.ok()) << hits.status();
        ExpectHitsEqual(expected[i], *hits);
        ++served;
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  swapper.join();
  server->Stop();
  EXPECT_EQ(served.load(), static_cast<int>(queries.size()));
}

// The full fault gauntlet served through the sharded scatter-gather
// path: outcome signatures must be identical across thread counts AND
// pipeline depths (the fault tape, deadline sweeps, and watermark all
// key off formation order, which waves preserve).
TEST(QueryServerTest, ServingFaultInjectedShardedStressDeterministic) {
  MotionDatabase db = MakeDb(240, 9, 81);
  ShardedIndexOptions sopts;
  sopts.index = QuantizedIndexOptions();
  sopts.num_shards = 3;
  auto index = ShardedFeatureIndex::Build(&db, sopts);
  ASSERT_TRUE(index.ok());
  auto queries = MakeQueries(48, 9, 82);
  for (int i = 0; i < 12; ++i) queries.push_back(queries[i % 6]);

  struct RunResult {
    std::vector<std::string> outcomes;
    QueryServerStats stats;
  };
  auto run = [&](size_t threads, size_t depth) -> RunResult {
    FakeClock clock;
    ServingFaultOptions fopts;
    fopts.seed = 7;
    fopts.slow_batch_probability = 0.5;
    fopts.slow_batch_stall_us = 2000;
    fopts.eval_failure_probability = 0.15;
    fopts.clock_skew_probability = 0.1;
    fopts.clock_skew_us = 500;
    ServingFaultInjector injector(fopts, &clock);
    QueryServerOptions opts;
    opts.clock = &clock;
    opts.max_batch = 4;
    opts.degrade_watermark = 24;
    opts.default_deadline_us = 9000;
    opts.faults = &injector;
    opts.parallel.max_threads = threads;
    opts.pipeline_depth = depth;
    auto server = QueryServer::Create(&db, &*index, opts);
    EXPECT_TRUE(server.ok());
    std::vector<uint64_t> tickets;
    for (const auto& q : queries) {
      auto t = server->SubmitNearestNeighbors(q, 3);
      EXPECT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    size_t served = 0;
    do {
      (void)server->DrainOnce(&served);
    } while (served > 0);
    RunResult result;
    for (uint64_t t : tickets) {
      auto answer = server->TakeAnswer(t);
      std::string sig;
      if (!answer.ok()) {
        sig = std::string("err:") +
              StatusCodeToString(answer.status().code());
      } else {
        sig = answer->degraded ? "degraded:" : "exact:";
        for (const QueryHit& hit : answer->hits) {
          sig += std::to_string(hit.record_index) + "@" +
                 std::to_string(hit.distance) + ";";
        }
      }
      result.outcomes.push_back(std::move(sig));
    }
    result.stats = server->stats();
    return result;
  };

  const RunResult base = run(1, 1);
  const RunResult mt2 = run(2, 1);
  const RunResult mt8 = run(8, 1);
  const RunResult piped = run(8, 2);

  uint64_t n_expired = 0, n_failed = 0;
  for (const std::string& sig : base.outcomes) {
    if (sig == "err:DeadlineExceeded") ++n_expired;
    if (sig == "err:Unavailable") ++n_failed;
  }
  EXPECT_GT(n_expired, 0u) << "stalls should push requests past deadline";
  EXPECT_GT(n_failed, 0u) << "eval failures should surface";
  EXPECT_GT(base.stats.degraded, 0u) << "watermark should fire";
  ASSERT_EQ(base.stats.shard_stats.size(), 3u);

  for (const RunResult* other : {&mt2, &mt8, &piped}) {
    ASSERT_EQ(other->outcomes.size(), base.outcomes.size());
    for (size_t i = 0; i < base.outcomes.size(); ++i) {
      EXPECT_EQ(other->outcomes[i], base.outcomes[i]) << "request " << i;
    }
    EXPECT_EQ(other->stats.served, base.stats.served);
    EXPECT_EQ(other->stats.expired, base.stats.expired);
    EXPECT_EQ(other->stats.degraded, base.stats.degraded);
    EXPECT_EQ(other->stats.batches, base.stats.batches);
  }
  // Same-schedule runs agree on every per-shard counter too.
  for (const RunResult* other : {&mt2, &mt8}) {
    ASSERT_EQ(other->stats.shard_stats.size(),
              base.stats.shard_stats.size());
    for (size_t s = 0; s < base.stats.shard_stats.size(); ++s) {
      EXPECT_EQ(other->stats.shard_stats[s].scans,
                base.stats.shard_stats[s].scans);
      EXPECT_EQ(other->stats.shard_stats[s].distance_computations,
                base.stats.shard_stats[s].distance_computations);
      EXPECT_EQ(other->stats.shard_stats[s].coarse_computations,
                base.stats.shard_stats[s].coarse_computations);
    }
  }
}

}  // namespace
}  // namespace mocemg
