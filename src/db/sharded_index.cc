#include "db/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "util/distance_kernels.h"
#include "util/macros.h"
#include "util/top_k.h"

namespace mocemg {
namespace {

// Queries per block of the (query-block × shard) scan grid (DESIGN.md
// §16); a single query is a block of one. Every block size yields
// bit-identical hits and stats, so this only trades the blocked
// kernels' reuse against scratch size.
constexpr size_t kDefaultQueryBlock = 32;

// Merges one query's per-shard sorted lists (fixed shard order, the
// usual (distance, index) tie-break) into `out`. The scans keep squared
// distances; the reported hits carry their square roots. A single list
// is the answer as is — merging it into a heap of the same capacity
// reproduces it exactly.
void GatherHits(const std::vector<std::vector<TopKEntry>>& lists, size_t kk,
                BoundedTopK* merged,
                std::vector<TopKEntry>* entries,
                std::vector<QueryHit>* out) {
  const std::vector<TopKEntry>* sorted = &lists[0];
  if (lists.size() > 1) {
    merged->Reset(kk);
    MergeSortedTopK(lists, merged);
    merged->ExtractSorted(entries);
    sorted = entries;
  }
  out->resize(sorted->size());
  for (size_t i = 0; i < sorted->size(); ++i) {
    (*out)[i].record_index = (*sorted)[i].second;
    (*out)[i].distance = std::sqrt((*sorted)[i].first);
  }
}

}  // namespace

Result<ShardedFeatureIndex> ShardedFeatureIndex::Build(
    const MotionDatabase* database, const ShardedIndexOptions& options) {
  if (database == nullptr) {
    return Status::InvalidArgument("null database");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ShardedFeatureIndex index;
  index.database_ = database;
  index.options_ = options;
  MOCEMG_RETURN_NOT_OK(index.Rebuild());
  return index;
}

Status ShardedFeatureIndex::Rebuild() {
  if (database_ == nullptr || database_->empty()) {
    return Status::FailedPrecondition("database is empty");
  }
  // Resolve the precision once per build and store the concrete value
  // back, so snapshots and later refreshes see f64/f32, never
  // "default" (env precedence: env < options < CLI, DESIGN.md §15.4).
  options_.index.exact_precision =
      ResolveExactPrecision(options_.index.exact_precision);
  MOCEMG_ASSIGN_OR_RETURN(IndexLayout layout,
                          ComputeIndexLayout(*database_, options_.index));
  const size_t num_parts = layout.members.size();
  if (num_parts >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("partition count overflows the shard map");
  }
  const size_t num_shards = options_.num_shards;
  const size_t n = database_->size();
  const size_t d = database_->feature_dimension();
  record_to_partition_.assign(n, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    for (size_t rec : layout.members[p]) {
      record_to_partition_[rec] = static_cast<uint32_t>(p);
    }
  }
  global_references_ = std::move(layout.references);
  // Shard s owns global partitions {p : p mod N == s} in ascending
  // order — a pure function of (partition id, shard count), so the
  // snapshot manifest never has to store the mapping.
  shards_.assign(num_shards, IndexPartitionSet{});
  for (size_t s = 0; s < num_shards; ++s) {
    Matrix refs(0, d);
    std::vector<std::vector<size_t>> members;
    for (size_t p = s; p < num_parts; p += num_shards) {
      MOCEMG_RETURN_NOT_OK(
          refs.AppendRows(global_references_.RowSlice(p, p + 1)));
      members.push_back(layout.members[p]);
    }
    MOCEMG_RETURN_NOT_OK(
        shards_[s].Pack(*database_, refs, members, options_.index));
  }
  shard_epochs_.assign(num_shards, database_->epoch());
  applied_epoch_ = database_->epoch();
  return Status::OK();
}

Status ShardedFeatureIndex::ApplyUpdate(size_t record_index) {
  if (database_ == nullptr || shards_.empty()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (database_->size() != record_to_partition_.size()) {
    return Status::FailedPrecondition(
        "the record set changed since the last Rebuild; ApplyUpdate only "
        "absorbs UpdateFeature mutations — call Rebuild()");
  }
  if (record_index >= record_to_partition_.size()) {
    return Status::InvalidArgument("record index out of range");
  }
  if (database_->epoch() != applied_epoch_ + 1) {
    return Status::FailedPrecondition(
        "ApplyUpdate must run once, in order, after each UpdateFeature "
        "(database epoch " + std::to_string(database_->epoch()) +
        ", last applied " + std::to_string(applied_epoch_) + ")");
  }
  const size_t p = record_to_partition_[record_index];
  const size_t shard = p % shards_.size();
  const size_t local = p / shards_.size();
  MOCEMG_RETURN_NOT_OK(
      shards_[shard].RefreshPartition(*database_, local, options_.index));
  applied_epoch_ = database_->epoch();
  shard_epochs_[shard] = applied_epoch_;
  return Status::OK();
}

Status ShardedFeatureIndex::ValidateQuery(const std::vector<double>& query,
                                          size_t k) const {
  if (database_ == nullptr || shards_.empty()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (database_->epoch() != applied_epoch_) {
    return Status::FailedPrecondition(
        "index is stale: the database mutated (epoch " +
        std::to_string(database_->epoch()) + ") past the last applied "
        "epoch " + std::to_string(applied_epoch_) +
        "; call ApplyUpdate() or Rebuild()");
  }
  if (query.size() != database_->feature_dimension()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  for (double v : query) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "query feature contains a non-finite value");
    }
  }
  return Status::OK();
}

Status ShardedFeatureIndex::ValidateBatch(
    const std::vector<std::vector<double>>& queries, size_t k) const {
  // The lowest offending query index wins, so an invalid batch is
  // reported identically at every thread count and block size.
  for (size_t q = 0; q < queries.size(); ++q) {
    Status st = ValidateQuery(queries[q], k);
    if (!st.ok()) {
      return st.WithContext("while answering batch query " +
                            std::to_string(q));
    }
  }
  return Status::OK();
}

void ShardedFeatureIndex::ChooseBudget(
    const double* packed, size_t nq, size_t kk, std::vector<size_t>* limits,
    std::vector<double>* lower_bounds) const {
  const size_t num_shards = shards_.size();
  const size_t p = global_references_.rows();
  const size_t dim = global_references_.cols();
  // Global partition g lives on shard g mod N at local slot g / N.
  const auto partition = [&](size_t g) -> const IndexPartitionSet::Partition& {
    return shards_[g % num_shards].partitions()[g / num_shards];
  };
  std::vector<double> ref_sq(nq * p);
  SquaredL2ManyToMany(packed, nq, global_references_.RowPtr(0), p, dim,
                      ref_sq.data(), p);
  limits->assign(num_shards * nq, 0);
  lower_bounds->assign(nq, std::numeric_limits<double>::infinity());
  std::vector<uint8_t> in_budget(p);
  for (size_t q = 0; q < nq; ++q) {
    const double* rq = ref_sq.data() + q * p;
    // V grows by the next partition in (d², id) order: a selection
    // pass per member is cheaper than sorting all p when V is short.
    in_budget.assign(p, 0);
    size_t visited = 0;
    size_t rows = 0;
    while (visited < p &&
           (visited < kDegradedPartitionBudget || rows < kk)) {
      size_t next = p;
      for (size_t g = 0; g < p; ++g) {
        if (!in_budget[g] && (next == p || rq[g] < rq[next])) next = g;
      }
      in_budget[next] = 1;
      ++visited;
      rows += partition(next).size();
      ++(*limits)[(next % num_shards) * nq + q];
    }
    // Every record r of a left-out partition has d(q, r) >= d(q, ref)
    // − radius. ref_sq, radius and the records' own distances each
    // carry a relative rounding error far below 1e-9 (a few ulps per
    // dimension), so shrinking by 1e-9 · (d + radius) keeps lb below
    // every left-out record's computed distance.
    for (size_t g = 0; g < p; ++g) {
      if (in_budget[g]) continue;
      const double radius = partition(g).radius;
      const double d = std::sqrt(rq[g]);
      (*lower_bounds)[q] = std::min((*lower_bounds)[q],
                                    d - radius - 1e-9 * (d + radius));
    }
  }
}

Result<std::vector<std::vector<QueryHit>>> ShardedFeatureIndex::ScanBatch(
    const std::vector<double>* queries, size_t nq, size_t k, bool budgeted,
    double* error_bounds, IndexQueryStats* stats,
    std::vector<IndexQueryStats>* per_shard,
    const ParallelOptions* parallel_override) const {
  const size_t num_shards = shards_.size();
  // An unbuilt index has no database but still answers an empty batch
  // (with nothing), so the shape is read through a null check.
  const size_t kk = std::min(k, database_ ? database_->size() : 0);
  const size_t dim = database_ ? database_->feature_dimension() : 0;
  const ParallelOptions& parallel =
      parallel_override != nullptr ? *parallel_override
                                   : options_.index.parallel;
  // Scatter: one task per (query-block × shard) cell. The batch is cut
  // into fixed consecutive query blocks — a pure function of the query
  // count, independent of the thread chunking — and each cell runs one
  // shard's lockstep block scan into per-query heaps. Every cell writes
  // only its own (query, shard) slots, so the grid parallelizes freely;
  // the per-query gather below runs in fixed shard order, keeping
  // results and stats thread-invariant.
  const size_t qb = std::clamp<size_t>(nq, 1, kDefaultQueryBlock);
  const size_t num_blocks = (nq + qb - 1) / qb;
  const size_t cells = num_blocks * num_shards;
  std::vector<std::vector<TopKEntry>> lists(nq * num_shards);
  std::vector<IndexQueryStats> cell_stats(cells);
  std::vector<double> packed(nq * dim);
  std::vector<double> q_sq(nq);
  for (size_t q = 0; q < nq; ++q) {
    std::memcpy(packed.data() + q * dim, queries[q].data(),
                dim * sizeof(double));
    q_sq[q] = SquaredNorm(queries[q].data(), queries[q].size());
  }
  // Budgeted mode: per-(shard, query) visit limits (shard-major, so a
  // cell's query-block slice is contiguous) and each query's lower
  // bound over the partitions left out.
  std::vector<size_t> limits;
  std::vector<double> lower_bounds;
  if (budgeted && nq > 0) {
    ChooseBudget(packed.data(), nq, kk, &limits, &lower_bounds);
  }
  ParallelOptions cell_parallel = parallel;
  cell_parallel.grain = 1;
  Status st = ParallelFor(
      cells,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        // Per-thread scratch, reused across calls so a steady stream
        // of single queries stops allocating: every buffer is re-sized
        // or re-assigned before it is read, so nothing carries over.
        thread_local IndexPartitionSet::BlockScratch bs;
        thread_local std::vector<BoundedTopK> tops;
        if (tops.size() < qb) tops.resize(qb);
        for (size_t cell = begin; cell < end; ++cell) {
          const size_t blk = cell / num_shards;
          const size_t s = cell % num_shards;
          const size_t q0 = blk * qb;
          const size_t bq = std::min(qb, nq - q0);
          for (size_t i = 0; i < bq; ++i) tops[i].Reset(kk);
          shards_[s].ScanExactBlock(
              packed.data() + q0 * dim, q_sq.data() + q0, bq, dim,
              tops.data(), &bs, &cell_stats[cell],
              limits.empty() ? nullptr : limits.data() + s * nq + q0);
          for (size_t i = 0; i < bq; ++i) {
            tops[i].ExtractSorted(&lists[(q0 + i) * num_shards + s]);
          }
        }
        return Status::OK();
      },
      cell_parallel);
  MOCEMG_RETURN_NOT_OK(st);
  // Gather: merge each query's shard lists in shard order.
  std::vector<std::vector<QueryHit>> results(nq);
  std::vector<std::vector<TopKEntry>> row(num_shards);
  BoundedTopK merged;
  std::vector<TopKEntry> entries;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t s = 0; s < num_shards; ++s) {
      row[s] = std::move(lists[q * num_shards + s]);
    }
    GatherHits(row, kk, &merged, &entries, &results[q]);
    if (error_bounds != nullptr) {
      // B = max(0, d_k − lb), rounded up; d_k == lb stays positive, so
      // B = 0 certifies that every left-out record ranks strictly after
      // the k-th hit (V holds >= k records, so the answer is never
      // short).
      const double dk = results[q].back().distance;
      const double lb = lower_bounds[q];
      error_bounds[q] =
          dk < lb ? 0.0
                  : std::nextafter(dk - lb,
                                   std::numeric_limits<double>::infinity());
    }
  }
  // Stats fold in fixed (block, shard) cell order — identical at any
  // thread count, and (all counters being integer sums of per-query
  // contributions) identical at any block size.
  if (stats != nullptr || per_shard != nullptr) {
    IndexQueryStats total;
    std::vector<IndexQueryStats> by_shard(num_shards);
    for (size_t cell = 0; cell < cells; ++cell) {
      total += cell_stats[cell];
      by_shard[cell % num_shards] += cell_stats[cell];
    }
    // The budget pass's reference distances are global, not per shard.
    if (budgeted) {
      total.distance_computations += nq * global_references_.rows();
    }
    if (stats != nullptr) *stats = total;
    if (per_shard != nullptr) *per_shard = std::move(by_shard);
  }
  return results;
}

Result<std::vector<QueryHit>> ShardedFeatureIndex::NearestNeighbors(
    const std::vector<double>& query, size_t k, IndexQueryStats* stats,
    std::vector<IndexQueryStats>* per_shard) const {
  MOCEMG_RETURN_NOT_OK(ValidateQuery(query, k));
  MOCEMG_ASSIGN_OR_RETURN(
      std::vector<std::vector<QueryHit>> hits,
      ScanBatch(&query, 1, k, /*budgeted=*/false, nullptr, stats,
                per_shard, nullptr));
  return std::move(hits[0]);
}

Result<std::vector<std::vector<QueryHit>>>
ShardedFeatureIndex::BatchNearestNeighbors(
    const std::vector<std::vector<double>>& queries, size_t k,
    IndexQueryStats* stats, std::vector<IndexQueryStats>* per_shard,
    const ParallelOptions* parallel_override) const {
  MOCEMG_RETURN_NOT_OK(ValidateBatch(queries, k));
  return ScanBatch(queries.data(), queries.size(), k, /*budgeted=*/false,
                   nullptr, stats, per_shard, parallel_override);
}

Result<std::vector<std::vector<QueryHit>>>
ShardedFeatureIndex::BatchBudgetedNearestNeighbors(
    const std::vector<std::vector<double>>& queries, size_t k,
    std::vector<double>* error_bounds, IndexQueryStats* stats,
    std::vector<IndexQueryStats>* per_shard,
    const ParallelOptions* parallel_override) const {
  MOCEMG_RETURN_NOT_OK(ValidateBatch(queries, k));
  if (error_bounds != nullptr) error_bounds->assign(queries.size(), 0.0);
  return ScanBatch(queries.data(), queries.size(), k, /*budgeted=*/true,
                   error_bounds != nullptr ? error_bounds->data() : nullptr,
                   stats, per_shard, parallel_override);
}

Result<size_t> ShardedFeatureIndex::ShardOfRecord(size_t record_index) const {
  if (shards_.empty()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (record_index >= record_to_partition_.size()) {
    return Status::InvalidArgument("record index out of range");
  }
  return static_cast<size_t>(record_to_partition_[record_index]) %
         shards_.size();
}

bool ShardedFeatureIndex::ShardAllBeyond(size_t shard,
                                         const std::vector<double>& query,
                                         double kth) const {
  if (shard >= shards_.size()) return false;
  return shards_[shard].AllBeyond(query, kth);
}

size_t ShardedFeatureIndex::num_partitions() const {
  size_t total = 0;
  for (const IndexPartitionSet& s : shards_) total += s.num_partitions();
  return total;
}

}  // namespace mocemg
