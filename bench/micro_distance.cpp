// Microbenchmarks: the vectorized distance-kernel layer against the
// pre-kernel scalar paths it replaced. Each family takes a trailing
// mode arg (0 = scalar/AoS replica of the seed code, 1 = the kernel
// path) so the two modes run inside one binary seconds apart and their
// per-pass ratio cancels host load (bench/gates.py).
//
// The mode-0 replicas are verbatim restatements of the seed inner
// loops: strictly sequential scalar squared distances (no 4-lane
// reassociation, so the compiler cannot vectorize the reduction),
// AoS vector-of-vectors record storage, one sqrt per record in the
// linear scan, and pow-based membership rows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/fcm.h"
#include "cluster/kmeans.h"
#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "linalg/matrix.h"
#include "util/logging.h"
#include "util/random.h"

namespace mocemg {
namespace {

// Clustered final-feature-like records (sparse non-negative blocks),
// the same shape micro_db uses.
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

// Seed-style sequential scalar squared distance: one accumulator, one
// dependency chain. IEEE addition is not associative, so without the
// kernel's explicit lane split the compiler must keep this scalar.
double ScalarSquaredDistance(const double* a, const double* b, size_t d) {
  double sum = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

// Replica of the seed MotionDatabase::NearestNeighbors: AoS records,
// one EuclideanDistance (sqrt included) per record, partial_sort on
// true distances.
std::vector<QueryHit> SeedLinearScan(
    const std::vector<std::vector<double>>& records,
    const std::vector<double>& query, size_t k) {
  std::vector<QueryHit> hits(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    hits[i].record_index = i;
    hits[i].distance = std::sqrt(ScalarSquaredDistance(
        query.data(), records[i].data(), query.size()));
  }
  const size_t kk = std::min(k, hits.size());
  std::partial_sort(hits.begin(),
                    hits.begin() + static_cast<ptrdiff_t>(kk), hits.end(),
                    [](const QueryHit& a, const QueryHit& b) {
                      return a.distance < b.distance;
                    });
  hits.resize(kk);
  return hits;
}

// Replica of the seed's cluster-pruned index: per-partition reference + member
// indices + radius, records scattered as AoS rows, scalar scan.
struct SeedIndex {
  struct Part {
    std::vector<double> reference;
    std::vector<size_t> record_indices;
    double radius = 0.0;
  };
  std::vector<Part> parts;
};

SeedIndex BuildSeedIndex(const MotionDatabase& db,
                         const std::vector<std::vector<double>>& records) {
  const size_t n = db.size();
  const size_t d = db.feature_dimension();
  const size_t p = std::max<size_t>(
      1, static_cast<size_t>(std::lround(std::sqrt(
             static_cast<double>(n)))));
  Matrix points(n, d);
  for (size_t i = 0; i < n; ++i) points.SetRow(i, records[i]);
  KmeansOptions km;
  km.num_clusters = p;
  auto model = FitKmeans(points, km);
  MOCEMG_CHECK_OK(model.status());
  SeedIndex index;
  index.parts.resize(p);
  for (size_t i = 0; i < p; ++i) {
    index.parts[i].reference = model->centers.Row(i);
  }
  for (size_t k = 0; k < n; ++k) {
    SeedIndex::Part& part = index.parts[model->assignments[k]];
    part.record_indices.push_back(k);
    part.radius = std::max(
        part.radius, std::sqrt(ScalarSquaredDistance(
                         records[k].data(), part.reference.data(), d)));
  }
  index.parts.erase(
      std::remove_if(index.parts.begin(), index.parts.end(),
                     [](const SeedIndex::Part& part) {
                       return part.record_indices.empty();
                     }),
      index.parts.end());
  return index;
}

// Replica of the seed index's NearestNeighbors query loop:
// sqrt-bearing prune, per-record scalar squared distance through the
// AoS indirection.
std::vector<QueryHit> SeedIndexedScan(
    const SeedIndex& index,
    const std::vector<std::vector<double>>& records,
    const std::vector<double>& query, size_t k) {
  const size_t dim = query.size();
  std::vector<std::pair<double, size_t>> order(index.parts.size());
  for (size_t i = 0; i < index.parts.size(); ++i) {
    order[i] = {std::sqrt(ScalarSquaredDistance(
                    query.data(), index.parts[i].reference.data(), dim)),
                i};
  }
  std::sort(order.begin(), order.end());
  std::vector<QueryHit> best;
  best.reserve(k + 1);
  const double inf = std::numeric_limits<double>::infinity();
  auto kth_sq = [&]() { return best.size() < k ? inf : best.back().distance; };
  for (const auto& [ref_dist, pi] : order) {
    const SeedIndex::Part& part = index.parts[pi];
    const double kth = kth_sq();
    if (kth < inf && ref_dist - part.radius > std::sqrt(kth)) continue;
    for (size_t idx : part.record_indices) {
      const double sq = ScalarSquaredDistance(
          query.data(), records[idx].data(), dim);
      if (sq < kth_sq() || best.size() < k) {
        QueryHit hit{idx, sq};
        auto pos = std::upper_bound(
            best.begin(), best.end(), hit,
            [](const QueryHit& a, const QueryHit& b) {
              return a.distance < b.distance;
            });
        best.insert(pos, hit);
        if (best.size() > k) best.pop_back();
      }
    }
  }
  for (QueryHit& hit : best) hit.distance = std::sqrt(hit.distance);
  return best;
}

std::vector<std::vector<double>> AosRecords(const MotionDatabase& db) {
  std::vector<std::vector<double>> records(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    records[i] = db.record(i).feature;
  }
  return records;
}

// Args: {dim, mode}; mode 0 = seed AoS scalar scan, 1 = packed kernel
// scan (MotionDatabase::NearestNeighbors).
void BM_KnnScan(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool kernel = state.range(1) == 1;
  const size_t n = 4000;
  MotionDatabase db = MakeDb(n, dim, 3);
  const auto records = AosRecords(db);
  const auto query = MakeQuery(dim, 4);
  for (auto _ : state) {
    if (kernel) {
      auto hits = db.NearestNeighbors(query, 5);
      benchmark::DoNotOptimize(hits);
    } else {
      auto hits = SeedLinearScan(records, query, 5);
      benchmark::DoNotOptimize(hits);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_KnnScan)->ArgsProduct({{30, 64, 128, 240}, {0, 1}});

// Args: {dim, mode}; mode 0 = seed AoS indexed scan, 1 = SoA dot-form
// kernel scan (ShardedFeatureIndex::NearestNeighbors). Same partition
// geometry on both sides.
void BM_IndexedScan(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool kernel = state.range(1) == 1;
  const size_t n = 4000;
  MotionDatabase db = MakeDb(n, dim, 3);
  const auto records = AosRecords(db);
  const auto query = MakeQuery(dim, 4);
  auto index = ShardedFeatureIndex::Build(&db);
  MOCEMG_CHECK_OK(index.status());
  const SeedIndex seed_index = BuildSeedIndex(db, records);
  for (auto _ : state) {
    if (kernel) {
      auto hits = index->NearestNeighbors(query, 5);
      benchmark::DoNotOptimize(hits);
    } else {
      auto hits = SeedIndexedScan(seed_index, records, query, 5);
      benchmark::DoNotOptimize(hits);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IndexedScan)->ArgsProduct({{30, 64, 128, 240}, {0, 1}});

// Seed Eq. 9 membership row: pow-based, on squared distances.
void SeedMembershipRow(const std::vector<double>& sq, double exponent,
                       double* row) {
  const size_t c = sq.size();
  size_t zeros = 0;
  for (size_t i = 0; i < c; ++i) {
    if (sq[i] <= 0.0) ++zeros;
  }
  if (zeros > 0) {
    for (size_t i = 0; i < c; ++i) {
      row[i] = sq[i] <= 0.0 ? 1.0 / static_cast<double>(zeros) : 0.0;
    }
    return;
  }
  double sum = 0.0;
  for (size_t i = 0; i < c; ++i) {
    row[i] = std::pow(1.0 / sq[i], exponent);
    sum += row[i];
  }
  for (size_t i = 0; i < c; ++i) row[i] /= sum;
}

// Replica of the seed EvaluateMembership: per-point validation, sq and
// row scratch allocated per call, and one *copied* center row per
// (point, center) pair — `centers.Row(i)` returned a fresh vector.
Result<std::vector<double>> SeedEvaluateMembership(
    const Matrix& centers, const std::vector<double>& point,
    double fuzziness) {
  if (centers.rows() == 0) {
    return Status::InvalidArgument("no cluster centers");
  }
  if (point.size() != centers.cols()) {
    return Status::InvalidArgument("point dimension mismatch");
  }
  if (fuzziness <= 1.0) {
    return Status::InvalidArgument("fuzzifier m must be > 1");
  }
  for (double v : point) {
    if (!std::isfinite(v)) {
      return Status::NumericalError(
          "membership evaluation on a non-finite point");
    }
  }
  const size_t c = centers.rows();
  std::vector<double> sq(c);
  for (size_t i = 0; i < c; ++i) {
    const std::vector<double> center = centers.Row(i);
    sq[i] = ScalarSquaredDistance(point.data(), center.data(),
                                  point.size());
  }
  std::vector<double> row(c);
  SeedMembershipRow(sq, 1.0 / (fuzziness - 1.0), row.data());
  return row;
}

// Replica of the seed FcmCodebook::MembershipMatrix loop: one point
// copy per window (`points.Row(i)`), then the per-point path above.
Matrix SeedMembershipMatrix(const Matrix& centers, const Matrix& points,
                            double fuzziness) {
  Matrix out(points.rows(), centers.rows());
  for (size_t k = 0; k < points.rows(); ++k) {
    auto row = SeedEvaluateMembership(centers, points.Row(k), fuzziness);
    MOCEMG_CHECK_OK(row.status());
    out.SetRow(k, *row);
  }
  return out;
}

// Args: {dim, mode}; mode 0 = seed per-point scalar E-step, 1 = the
// tiled kernel batch (EvaluateMembershipBatch). c = 15 centers, m = 2
// (the paper's configuration).
void BM_FcmEstep(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool kernel = state.range(1) == 1;
  const size_t n = 512;
  const size_t c = 15;
  Rng rng(9);
  Matrix points(n, dim);
  for (size_t k = 0; k < n; ++k) {
    for (size_t j = 0; j < dim; ++j) {
      points(k, j) = rng.Gaussian(0.0, 1.0) +
                     static_cast<double>(k % c);
    }
  }
  Matrix centers(c, dim);
  for (size_t i = 0; i < c; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      centers(i, j) = rng.Gaussian(0.0, 0.5) + static_cast<double>(i);
    }
  }
  for (auto _ : state) {
    if (kernel) {
      auto u = EvaluateMembershipBatch(centers, points, 2.0);
      benchmark::DoNotOptimize(u);
    } else {
      Matrix u = SeedMembershipMatrix(centers, points, 2.0);
      benchmark::DoNotOptimize(u);
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * n * c));
}
BENCHMARK(BM_FcmEstep)->ArgsProduct({{16, 32, 64, 128}, {0, 1}});

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
