/// The kNN differential oracle: every optimized kNN path is checked
/// against MotionDatabase's linear scan on one seeded (database,
/// queries) pair, over shard counts {1, 2, 3, 8}, batch sizes
/// {1, 31, 32, 33, 70} (around the 32-query block), thread counts,
/// every usable kernel backend and both exact-tier precisions.
///
///  - Exact answers equal the linear scan bit for bit.
///  - Degraded (partition-budgeted) answers keep the ServedAnswer
///    contract: every hit's distance is the linear scan's distance of
///    that record, bit for bit; the linear scan's i-th distance lies in
///    [dᵢ − B, dᵢ]; B = 0 means the linear scan's answer.
///  - Degraded answers and bounds are identical across every
///    configuration above (the budget is chosen once per query over the
///    global layout, never per shard).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/feature_index.h"
#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "util/kernel_dispatch.h"
#include "util/random.h"

namespace mocemg {
namespace {

constexpr size_t kDim = 7;
constexpr size_t kRecords = 400;
constexpr size_t kQueries = 70;

/// Eight Gaussian clusters, so the √N layout's partitions separate
/// well and the partition budget leaves most of them out.
MotionDatabase MakeDb(uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < kRecords; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 8;
    r.label_name = "class" + std::to_string(r.label);
    r.feature.resize(kDim);
    for (size_t j = 0; j < kDim; ++j) {
      const double center = (j == r.label % kDim ? 10.0 : 0.0) +
                            (j == 0 ? 3.0 * static_cast<double>(r.label) : 0.0);
      r.feature[j] = center + rng.Gaussian(0, 1.0);
    }
    EXPECT_TRUE(db.Insert(std::move(r)).ok());
  }
  return db;
}

/// Jittered copies of records (answers mostly inside the budget) mixed
/// with far-off points (answers that straddle partitions).
std::vector<std::vector<double>> MakeQueries(const MotionDatabase& db,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> queries(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    if (q % 2 == 0) {
      queries[q] = db.record(rng.NextBelow(kRecords)).feature;
      for (double& v : queries[q]) v += rng.Gaussian(0, 0.5);
    } else {
      queries[q].resize(kDim);
      for (double& v : queries[q]) v = rng.Gaussian(8.0, 12.0);
    }
  }
  return queries;
}

struct BackendScope {
  ~BackendScope() { (void)SetKernelBackend(KernelBackend::kAuto); }
};

/// One configuration's answers, exact and degraded, in query order.
struct Answers {
  std::vector<std::vector<QueryHit>> exact;
  std::vector<std::vector<QueryHit>> degraded;
  std::vector<double> bounds;
};

/// Answers every query through `index` in consecutive batches of
/// `batch`; a batch of one goes through the single-query exact entry
/// point.
Answers AnswerAll(const ShardedFeatureIndex& index,
                  const std::vector<std::vector<double>>& queries, size_t k,
                  size_t batch, const ParallelOptions& parallel) {
  Answers out;
  for (size_t q0 = 0; q0 < queries.size(); q0 += batch) {
    const size_t q1 = std::min(queries.size(), q0 + batch);
    const std::vector<std::vector<double>> slice(queries.begin() + q0,
                                                 queries.begin() + q1);
    if (batch == 1) {
      auto hits = index.NearestNeighbors(slice[0], k);
      EXPECT_TRUE(hits.ok()) << hits.status();
      out.exact.push_back(hits.ok() ? *std::move(hits)
                                    : std::vector<QueryHit>{});
    } else {
      auto hits =
          index.BatchNearestNeighbors(slice, k, nullptr, nullptr, &parallel);
      EXPECT_TRUE(hits.ok()) << hits.status();
      if (!hits.ok()) return out;
      for (auto& h : *hits) out.exact.push_back(std::move(h));
    }
    std::vector<double> bounds;
    auto degraded = index.BatchBudgetedNearestNeighbors(
        slice, k, &bounds, nullptr, nullptr, &parallel);
    EXPECT_TRUE(degraded.ok()) << degraded.status();
    if (!degraded.ok()) return out;
    for (auto& h : *degraded) out.degraded.push_back(std::move(h));
    out.bounds.insert(out.bounds.end(), bounds.begin(), bounds.end());
  }
  return out;
}

bool SameHits(const std::vector<QueryHit>& a,
              const std::vector<QueryHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].record_index != b[i].record_index ||
        a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

TEST(KnnOracleTest, ExactAndDegradedAnswersAgainstLinearScan) {
  const MotionDatabase db = MakeDb(2024);
  const auto queries = MakeQueries(db, 2025);
  BackendScope restore;
  for (const size_t k : {1, 6, 45}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // The oracle: the linear scan's top k, and its distance to every
    // record (a full-length scan, so indexed by rank, then by record).
    std::vector<std::vector<QueryHit>> linear(kQueries);
    std::vector<std::vector<double>> record_distance(
        kQueries, std::vector<double>(kRecords));
    for (size_t q = 0; q < kQueries; ++q) {
      auto all = db.NearestNeighbors(queries[q], kRecords);
      ASSERT_TRUE(all.ok()) << all.status();
      for (const QueryHit& h : *all) {
        record_distance[q][h.record_index] = h.distance;
      }
      linear[q].assign(all->begin(), all->begin() + k);
    }
    // Degraded answers and bounds of the first configuration; every
    // other configuration must reproduce them exactly.
    Answers reference;
    bool have_reference = false;
    size_t bound_zero = 0, bound_positive_inexact = 0;
    for (KernelBackend backend : UsableKernelBackends()) {
      ASSERT_TRUE(SetKernelBackend(backend).ok());
      for (ExactPrecision prec :
           {ExactPrecision::kF64, ExactPrecision::kF32}) {
        for (const size_t shards : {1, 2, 3, 8}) {
          ShardedIndexOptions opts;
          opts.num_shards = shards;
          opts.index.exact_precision = prec;
          auto index = ShardedFeatureIndex::Build(&db, opts);
          ASSERT_TRUE(index.ok()) << index.status();
          for (const size_t threads : {1, 3}) {
            ParallelOptions parallel;
            parallel.max_threads = threads;
            for (const size_t batch : {1, 31, 32, 33, 70}) {
              SCOPED_TRACE(std::string("backend=") +
                           KernelBackendName(backend) +
                           " prec=" + ExactPrecisionName(prec) +
                           " shards=" + std::to_string(shards) +
                           " threads=" + std::to_string(threads) +
                           " batch=" + std::to_string(batch));
              const Answers got =
                  AnswerAll(*index, queries, k, batch, parallel);
              ASSERT_EQ(got.exact.size(), kQueries);
              ASSERT_EQ(got.degraded.size(), kQueries);
              ASSERT_EQ(got.bounds.size(), kQueries);
              for (size_t q = 0; q < kQueries; ++q) {
                SCOPED_TRACE("query " + std::to_string(q));
                ASSERT_TRUE(SameHits(got.exact[q], linear[q]))
                    << "exact answer differs from the linear scan";
                const std::vector<QueryHit>& hits = got.degraded[q];
                const double bound = got.bounds[q];
                ASSERT_EQ(hits.size(), k);
                ASSERT_GE(bound, 0.0);
                for (size_t i = 0; i < k; ++i) {
                  ASSERT_EQ(hits[i].distance,
                            record_distance[q][hits[i].record_index])
                      << "rank " << i;
                  ASSERT_LE(linear[q][i].distance, hits[i].distance)
                      << "rank " << i;
                  ASSERT_LE(hits[i].distance - bound, linear[q][i].distance)
                      << "rank " << i << " bound " << bound;
                }
                if (bound == 0.0) {
                  ASSERT_TRUE(SameHits(hits, linear[q]))
                      << "B = 0 but the answer is not the linear scan's";
                }
                if (!have_reference) {
                  bound_zero += bound == 0.0;
                  bound_positive_inexact +=
                      bound > 0.0 && !SameHits(hits, linear[q]);
                }
              }
              if (!have_reference) {
                reference = got;
                have_reference = true;
                continue;
              }
              for (size_t q = 0; q < kQueries; ++q) {
                ASSERT_TRUE(SameHits(got.degraded[q], reference.degraded[q]))
                    << "degraded answer of query " << q
                    << " depends on the configuration";
                ASSERT_EQ(got.bounds[q], reference.bounds[q])
                    << "bound of query " << q
                    << " depends on the configuration";
              }
            }
          }
        }
      }
    }
    // The data exercises both sides of the contract: answers the budget
    // certifies exact, and answers it cannot.
    EXPECT_GT(bound_zero, 0u);
    if (k > 1) {
      EXPECT_GT(bound_positive_inexact, 0u);
    }
  }
}

}  // namespace
}  // namespace mocemg
