/// \file sharded_index.h
/// \brief The cluster-pruned exact kNN index over final feature vectors
/// — the iDistance-style "indexing technique to prune irrelevant
/// motions" the paper points to for fast searching (its refs [14]/[13])
/// — split into N >= 1 scatter-gather shards (DESIGN.md §10–§13). The
/// default is one shard.
///
/// Build runs ComputeIndexLayout (seeded k-means → global partition
/// layout) and distributes whole partitions across N shards
/// round-robin (partition p → shard p mod N). Each shard owns an
/// IndexPartitionSet — its own SoA blocks, squared norms and fp32
/// mirrors — plus a per-shard epoch. kNN is scatter-gather: every
/// shard scans into its own bounded top-k heap and the per-shard
/// sorted lists are merged in fixed shard order with the usual
/// (distance, index) tie-break.
///
/// Bit-identity argument: every per-record quantity the scans produce
/// (exact distance, partition prune bound) is a pure function of the
/// partition that owns the record — never of which other partitions
/// share its set. The exact top-k is in turn a pure function of the
/// candidate set under the (distance, index) order. Regrouping
/// partitions into shards therefore changes only *where* candidates
/// are scored, not any score: exact answers are bit-identical to the
/// linear scan. Degraded answers scan a partition budget V chosen once
/// per query over the global layout before the scatter, so they and
/// their certified bound are identical at any shard count, thread
/// count and batch size too.
///
/// Mutation model: the database epoch advances on every mutation, and
/// queries fail with FailedPrecondition until the index catches up.
/// ApplyUpdate(record) absorbs one UpdateFeature without a global
/// rebuild: it repacks only the partition owning the record
/// (O(partition) work: block row, norms, radius, fp32 mirror) and
/// bumps only the owning shard's epoch. The serving cache keys
/// validity on the shard-epoch vector, so a mutation invalidates only
/// entries that provably depended on the mutated shard
/// (query_server.h). Inserts change the record set and require a full
/// Rebuild().
///
/// Thread safety: queries are const and safe to run concurrently;
/// ApplyUpdate/Rebuild mutate and require the caller to quiesce
/// readers first (the query server's SwapIndex does this for index
/// replacement; for in-place ApplyUpdate, stop the worker or drain
/// first).

#ifndef MOCEMG_DB_SHARDED_INDEX_H_
#define MOCEMG_DB_SHARDED_INDEX_H_

#include <cstdint>
#include <vector>

#include "db/feature_index.h"
#include "db/motion_database.h"
#include "util/parallel.h"
#include "util/result.h"

namespace mocemg {

/// \brief Degraded mode's partition budget (DESIGN.md §12.2): a
/// degraded query scans V, the shortest prefix of the global ascending
/// (d²(q, ref), partition id) order holding at least this many
/// partitions and at least k records. Picked from a serve-bench sweep
/// over {1, 2, 4} (EXPERIMENTS.md).
inline constexpr size_t kDegradedPartitionBudget = 2;

/// \brief Sharded index construction parameters.
struct ShardedIndexOptions {
  /// Layout/precision/parallel knobs: the same options produce the
  /// same global partition layout at every shard count.
  FeatureIndexOptions index;
  /// Number of shards, >= 1 (0 fails Build with InvalidArgument). More
  /// shards than partitions is allowed — the excess shards are empty
  /// and contribute nothing.
  size_t num_shards = 1;
};

/// \brief N-shard scatter-gather kNN index; exact results bit-identical
/// to the linear scan at any (shard count × thread count).
class ShardedFeatureIndex {
 public:
  ShardedFeatureIndex() = default;

  /// \brief Builds over the database's current records. Fails with
  /// InvalidArgument on a null database or num_shards == 0, and with
  /// FailedPrecondition on an empty database.
  static Result<ShardedFeatureIndex> Build(
      const MotionDatabase* database, const ShardedIndexOptions& options = {});

  /// \brief Full rebuild: re-runs the k-means layout over the
  /// database's current records, repacks every shard, and resets every
  /// shard epoch to the database's current epoch.
  Status Rebuild();

  /// \brief Absorbs exactly one UpdateFeature mutation without a
  /// rebuild: repacks the partition owning `record_index` and bumps
  /// only the owning shard's epoch. Must be called once, in order,
  /// after each database UpdateFeature (the database epoch must be
  /// exactly one past the last applied epoch); a record-count change
  /// (Insert) fails with FailedPrecondition and requires Rebuild().
  /// Quiesce concurrent readers first.
  Status ApplyUpdate(size_t record_index);

  /// \brief Exact kNN, scatter-gather across shards: the query runs
  /// through BatchNearestNeighbors' engine as a block of one, so its S
  /// shard cells fan out over options().index.parallel like a batch's.
  /// The reported hits (indices and distances, ties broken toward the
  /// smaller record index) are bit-identical to the database's linear
  /// scan. `per_shard`, when
  /// given, is resized to num_shards() and receives each shard's scan
  /// stats. An invalid query fails with ValidateQuery's status as is.
  Result<std::vector<QueryHit>> NearestNeighbors(
      const std::vector<double>& query, size_t k,
      IndexQueryStats* stats = nullptr,
      std::vector<IndexQueryStats>* per_shard = nullptr) const;

  /// \brief Batch kNN parallelized over the (query-block × shard) task
  /// grid: the batch is cut into fixed consecutive query blocks of up
  /// to 32 queries and each cell runs one shard's lockstep
  /// many-to-many block scan (DESIGN.md §16). Cells of different
  /// blocks/shards overlap freely, and the per-shard lists are merged
  /// per query in fixed shard order, so results and stats are
  /// identical at every thread count and batch size. Element i equals
  /// the linear scan's answer for queries[i] exactly. An invalid query
  /// fails the batch, with its slot as context ("while answering batch
  /// query i"; the lowest offending slot wins).
  Result<std::vector<std::vector<QueryHit>>> BatchNearestNeighbors(
      const std::vector<std::vector<double>>& queries, size_t k,
      IndexQueryStats* stats = nullptr,
      std::vector<IndexQueryStats>* per_shard = nullptr,
      const ParallelOptions* parallel_override = nullptr) const;

  /// \brief Degraded-mode batch kNN (DESIGN.md §12.2) — the query
  /// server's answer under overload, over the same (query-block ×
  /// shard) grid as BatchNearestNeighbors. Query i scans only V, the
  /// shortest prefix of the global ascending (d²(q, ref), partition id)
  /// order holding at least kDegradedPartitionBudget partitions and at
  /// least k records, so every reported distance dⱼ is exact (the
  /// linear scan's distance of that record, bit for bit).
  /// `error_bounds[i]`, when given, receives the certified one-sided
  /// bound B = max(0, d_k − lb), where lb lower-bounds d(q, ref) −
  /// radius over the partitions outside V (rounded so it can only
  /// shrink): the true j-th nearest distance lies in [dⱼ − B, dⱼ], and
  /// B = 0 means the answer is the linear scan's. V is chosen once per
  /// query before the scatter, so answers and bounds are identical at
  /// any shard count, thread count and batch size.
  Result<std::vector<std::vector<QueryHit>>> BatchBudgetedNearestNeighbors(
      const std::vector<std::vector<double>>& queries, size_t k,
      std::vector<double>* error_bounds = nullptr,
      IndexQueryStats* stats = nullptr,
      std::vector<IndexQueryStats>* per_shard = nullptr,
      const ParallelOptions* parallel_override = nullptr) const;

  /// \brief The shard owning `record_index` (valid for records present
  /// at the last Rebuild).
  Result<size_t> ShardOfRecord(size_t record_index) const;

  /// \brief True when every record in shard `shard` is provably
  /// farther than `kth` (true distance) from `query` — the
  /// triangle-inequality certificate the serving cache uses to keep an
  /// entry alive across a mutation to a shard none of its hits touch.
  /// Conservative: false negatives only cost a cache miss.
  bool ShardAllBeyond(size_t shard, const std::vector<double>& query,
                      double kth) const;

  size_t num_shards() const { return shards_.size(); }
  size_t num_partitions() const;

  /// \brief The database epoch the index has fully absorbed (build or
  /// ApplyUpdate); queries require database->epoch() to equal it.
  uint64_t applied_epoch() const { return applied_epoch_; }

  /// \brief Per-shard epochs: shard s's value is the database epoch of
  /// the last mutation applied to it (or the build epoch). The serving
  /// cache snapshots this vector into every entry it stores.
  const std::vector<uint64_t>& shard_epochs() const { return shard_epochs_; }

  const ShardedIndexOptions& options() const { return options_; }
  const MotionDatabase* database() const { return database_; }

 private:
  /// The snapshot codec (db/index_snapshot.cc) serializes and restores
  /// the private representation verbatim.
  friend class IndexSnapshotCodec;

  /// The query preconditions (built, fresh epoch, dimension, k >= 1,
  /// finite query) shared by every entry point, so an invalid query
  /// fails identically through each.
  Status ValidateQuery(const std::vector<double>& query, size_t k) const;

  /// ValidateQuery over a batch, with the first failing slot as
  /// context.
  Status ValidateBatch(const std::vector<std::vector<double>>& queries,
                       size_t k) const;

  /// The (query-block × shard) scatter, per-query gather and stat fold
  /// behind every query entry point, exact or budgeted, single or
  /// batch. The `nq` queries must already be validated; `error_bounds`,
  /// when given, has nq slots and receives each query's budgeted-mode
  /// bound.
  Result<std::vector<std::vector<QueryHit>>> ScanBatch(
      const std::vector<double>* queries, size_t nq, size_t k,
      bool budgeted, double* error_bounds, IndexQueryStats* stats,
      std::vector<IndexQueryStats>* per_shard,
      const ParallelOptions* parallel_override) const;

  /// The degraded mode's partition budget for `nq` packed queries:
  /// orders the global partitions by (d²(q, ref), partition id), takes
  /// the shortest prefix V with >= kDegradedPartitionBudget partitions
  /// and >= kk records, and writes limits[s * nq + q] = the number of
  /// V's partitions shard s owns (a prefix of that shard's own visit
  /// order, whose reference distances carry the same kernel bits) and
  /// lower_bounds[q] = a rounded-down min of d(q, ref) − radius over
  /// the partitions outside V (+inf when V is everything).
  void ChooseBudget(const double* packed, size_t nq, size_t kk,
                    std::vector<size_t>* limits,
                    std::vector<double>* lower_bounds) const;

  const MotionDatabase* database_ = nullptr;
  ShardedIndexOptions options_;
  /// Shard s owns global partitions {p : p mod N == s}, in ascending
  /// global order (local index p / N).
  std::vector<IndexPartitionSet> shards_;
  std::vector<uint64_t> shard_epochs_;
  uint64_t applied_epoch_ = 0;
  /// Global layout bookkeeping: every record's owning global partition
  /// and the full reference matrix in global partition order — the
  /// snapshot manifest persists these so a lost shard can be repacked
  /// without re-running k-means.
  std::vector<uint32_t> record_to_partition_;
  Matrix global_references_;
};

}  // namespace mocemg

#endif  // MOCEMG_DB_SHARDED_INDEX_H_
