/// \file feature_index.h
/// \brief The scan engine of the cluster-pruned exact kNN index
/// (ShardedFeatureIndex, sharded_index.h): build options, the global
/// partition layout, and the packed partition set every shard scans.
///
/// ComputeIndexLayout partitions the records with k-means. Each
/// partition keeps its reference point (centroid), covering radius, a
/// contiguous row-major copy of its member records plus their squared
/// norms (DESIGN.md §10.3), and — the quantized tier (§11) — int8 or
/// 4-bit per-dimension affine codes of the same rows with a measured
/// reconstruction-error bound. A query visits partitions in ascending
/// distance-to-reference order, prunes whole partitions with the
/// triangle-inequality bound d(q, ref) − radius, and inside a surviving
/// partition runs a two-tier scan: an exact-integer coarse pass over
/// the codes (1 byte/dim of memory traffic instead of 8, int32
/// arithmetic instead of doubles) discards every record whose
/// *provable* distance lower bound exceeds the current k-th best, and
/// only the survivors are re-ranked with the exact full-precision
/// kernels. Results are bit-identical to the linear scan — the coarse
/// tier only ever changes how much full-precision work is done, never
/// which hits are reported.
///
/// IndexPartitionSet packs and scans an arbitrary subset of the layout's
/// partitions; ShardedFeatureIndex distributes the layout across N >= 1
/// sets. Because every per-record quantity (exact distance, coarse
/// estimate, prune bound) is a pure function of the partition that
/// owns the record, regrouping partitions into shards cannot change
/// any reported hit — that is the §13 bit-identity argument.

#ifndef MOCEMG_DB_FEATURE_INDEX_H_
#define MOCEMG_DB_FEATURE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/motion_database.h"
#include "linalg/matrix.h"
#include "util/parallel.h"
#include "util/result.h"
#include "util/top_k.h"

namespace mocemg {

/// \brief Storage precision of the exact-scan tier (DESIGN.md §15).
/// f32 packs a float32 mirror of every partition's SoA block next to
/// the double block: the dot-form scan streams 4 bytes/dim instead of
/// 8 and doubles the SIMD lane count, and every candidate within the
/// certified `Float32DotFormErrorBound` margin of the k-th best is
/// re-evaluated through the double kernels — reported hits stay
/// bit-identical to the f64 path (and the linear scan) on every
/// backend, shard count, and thread count. kDefault resolves through
/// the MOCEMG_EXACT_PRECISION env ("f64"/"f32"; unset or invalid →
/// f64, invalid warns once); an explicit option always wins over the
/// env, and the CLI --exact-precision flag wins over both.
enum class ExactPrecision : uint8_t {
  kDefault = 0,  ///< resolve via MOCEMG_EXACT_PRECISION, else f64
  kF64 = 1,      ///< double-only exact scan (the historical behaviour)
  kF32 = 2,      ///< float32 mirror scan + error-bound-gated f64 refine
};

/// \brief Stable lowercase name ("default", "f64", "f32").
const char* ExactPrecisionName(ExactPrecision precision);

/// \brief Parses "f64"/"f32"/"default" (as accepted by the env/CLI).
Result<ExactPrecision> ParseExactPrecision(const std::string& name);

/// \brief Resolves kDefault against MOCEMG_EXACT_PRECISION (read once;
/// unset or unparsable → kF64 with a one-time warning on bad values).
/// Non-default inputs pass through unchanged.
ExactPrecision ResolveExactPrecision(ExactPrecision precision);

/// \brief Index construction parameters.
struct FeatureIndexOptions {
  /// Number of k-means partitions; 0 = auto (≈ √N, at least 1).
  size_t num_partitions = 0;
  uint64_t seed = 17;
  /// Two-tier scan: build int8 codes at Rebuild and use the coarse
  /// pass to prune records before the exact re-rank. Results are
  /// bit-identical either way; OFF skips the codes entirely and scans
  /// with the PR 4 dot-form + refine path alone.
  bool quantized_scan = true;
  /// Coarse-code width: 8 (one byte per dim, 256-level grid) or 4
  /// (nibble-packed two dims per byte, 16-level grid — half the coarse
  /// memory traffic, a 17× coarser grid so spread partitions prune
  /// less). Exact results are bit-identical at either width; only the
  /// coarse pruning power and CoarseNearestNeighbors' certified error
  /// bound change. Any other value fails Build/Pack.
  size_t quant_bits = 8;
  /// Partitions with fewer rows than this are scanned directly with
  /// the dot-form kernel: the coarse pass carries a fixed per-partition
  /// cost (query clamp + encode + residual measurement + threshold
  /// math), and below a few hundred rows that overhead exceeds the
  /// full-precision work it could save — measured on the √N-partition
  /// default layout, where ~100-row partitions ran ~1.3x slower with
  /// codes than without. Pure build-time property, so scan behaviour
  /// stays deterministic.
  size_t quantized_min_rows = 256;
  /// Exact-tier storage precision (see ExactPrecision above). Resolved
  /// (env applied) at Build/Rebuild and stored back, so snapshots and
  /// RefreshPartition see the concrete choice, not kDefault. Results
  /// are bit-identical at either precision; only bandwidth changes.
  ExactPrecision exact_precision = ExactPrecision::kDefault;
  /// Parallelism for Rebuild's per-partition packing pass and for the
  /// query entry points' (query-block × shard) task grid. Queries are
  /// read-only over the built index, so results are bit-identical at
  /// any thread count.
  ParallelOptions parallel;
};

/// \brief Query-time statistics (filled per query).
struct IndexQueryStats {
  /// Full-precision distance evaluations (partition references + exact
  /// scans + coarse-survivor re-ranks). The coarse-tier win is this
  /// number shrinking relative to the records visited.
  size_t distance_computations = 0;
  size_t partitions_visited = 0;
  size_t partitions_pruned = 0;
  /// Records scored by the int8 coarse pass (1 byte/dim traffic).
  size_t coarse_computations = 0;
  /// Records the coarse bound discarded without exact evaluation.
  size_t coarse_pruned = 0;
  /// Records scored through the float32 mirror (4 bytes/dim traffic
  /// instead of 8). Zero unless the index packed mirrors (f32 tier).
  size_t f32_scans = 0;
  /// f32-scanned records whose fp32 distance fell within the certified
  /// margin of the k-th best and were re-evaluated in double. The f32
  /// tier's win is f32_refined staying a small fraction of f32_scans.
  size_t f32_refined = 0;

  /// Field-wise sum: the one fold every per-shard, per-cell and
  /// per-batch total goes through. A counter added above must be added
  /// here too (feature_index_test pins every field).
  IndexQueryStats& operator+=(const IndexQueryStats& other) {
    distance_computations += other.distance_computations;
    partitions_visited += other.partitions_visited;
    partitions_pruned += other.partitions_pruned;
    coarse_computations += other.coarse_computations;
    coarse_pruned += other.coarse_pruned;
    f32_scans += other.f32_scans;
    f32_refined += other.f32_refined;
    return *this;
  }
};

class IndexSnapshotCodec;

/// \brief The global partition layout: k-means references plus each
/// partition's member records (ascending database order). Empty
/// partitions are already dropped. Every shard packs from the same
/// layout, which is what makes results identical at any shard count.
struct IndexLayout {
  /// Partition references packed row-major (num_partitions × dim).
  Matrix references;
  /// members[i] = the records of partition i, ascending.
  std::vector<std::vector<size_t>> members;
};

/// \brief Runs the seeded k-means over the database's packed features
/// and returns the partition layout. `options.num_partitions` == 0
/// picks ≈ √N; empty partitions (k-means can strand one on tiny
/// databases) are dropped. Deterministic in (database bytes, options).
Result<IndexLayout> ComputeIndexLayout(const MotionDatabase& database,
                                       const FeatureIndexOptions& options);

/// \brief A packed, scannable set of partitions — the storage + scan
/// engine behind each ShardedFeatureIndex shard. Scans accumulate into
/// a caller-owned BoundedTopK so per-set results can be merged in
/// fixed order with the usual (distance, index) tie-break.
class IndexPartitionSet {
 public:
  struct Partition {
    double radius = 0.0;      ///< covering radius (true distance)
    double radius_sq = 0.0;   ///< radius², for the sqrt-free prune
    double max_norm_sq = 0.0; ///< max ‖record‖² in the block (error bound)
    /// Member records, ascending database order.
    std::vector<size_t> record_indices;
    /// SoA: the members' features packed row-major (size × dim), and
    /// their squared norms for the dot-product-form scan.
    std::vector<double> block;
    std::vector<double> norms_sq;
    /// Quantized tier (empty when disabled or below quantized_min_rows):
    /// per-dimension offsets + uniform scale of the affine grid and the
    /// members' integer codes, plus the partition's worst measured
    /// reconstruction error ‖r − r̃‖² (inflated by the build-side
    /// slack) and the grid bounding box's squared-norm bound — the two
    /// scalars the provable integer prune leans on. `quant_bits` is the
    /// code width: 8 → quant_codes is rows × dim bytes; 4 →
    /// nibble-packed rows × PackedNibbleStride(dim) bytes
    /// (quant_kernels.h).
    std::vector<double> quant_offsets;
    std::vector<uint8_t> quant_codes;
    double quant_scale = 0.0;
    double quant_err_sq = 0.0;
    double quant_box_sq = 0.0;
    uint8_t quant_bits = 8;
    /// float32 mirror of `block` + fp32 row norms (packed only when
    /// the resolved exact_precision is f32): the dot-form scan streams
    /// these at half the bytes/dim, with candidates near the k-th best
    /// re-ranked through `block`. `mirror_max_abs` is the largest
    /// element magnitude in the block, measured at pack time — the
    /// per-dim magnitude bound the float-precision error bound's
    /// subnormal term and the overflow gate lean on.
    std::vector<float> block_f32;
    std::vector<float> norms_f32;
    double mirror_max_abs = 0.0;

    size_t size() const { return record_indices.size(); }
    bool quantized() const { return !quant_codes.empty(); }
    bool mirrored() const { return !block_f32.empty(); }
    /// Top code of the grid (255 or 15).
    double quant_levels() const { return quant_bits == 4 ? 15.0 : 255.0; }
    /// Bytes per coded row (dim or ⌈dim/2⌉).
    size_t code_stride(size_t dim) const {
      return quant_bits == 4 ? (dim + 1) / 2 : dim;
    }
  };

  /// Per-(query, partition) scalars of the coarse tier's provable
  /// prune, produced by the shared prep pass (clamp, encode, residual
  /// measurement) that both the exact and the coarse block scans call.
  struct CoarsePrep {
    double out_sq = 0.0;  ///< certified out-of-box energy ‖q − q'‖²
    double q_res = 0.0;   ///< √(‖q' − q̃‖² + slack)
    double err = 0.0;     ///< √quant_err_sq (build-side inflated)
    double slack = 0.0;   ///< §11.2 float slack for this (q, partition)
  };

  /// Per-query-block scratch for the blocked scans (DESIGN.md §16),
  /// reused across blocks and calls on one thread. Group buffers hold one
  /// partition-visit group's kernel inputs/outputs; per-query state
  /// (fp32 mirrors, survivor lists) spans the whole block; the per-visit
  /// buffers at the end serve one (query, partition) visit at a time.
  struct BlockScratch {
    std::vector<double> ref_sq;     ///< B × p reference distances
    std::vector<std::pair<double, size_t>> order;  ///< B visit orders
    std::vector<size_t> cursor;     ///< per-query position in its order
    std::vector<uint8_t> active;    ///< per-query not-finished flag
    /// One round's (partition, query) visit selections.
    std::vector<std::pair<size_t, size_t>> visits;
    /// The current visit group's member queries, split per tier.
    std::vector<size_t> group_members;
    std::vector<size_t> group_members_f64;
    /// Group-shared kernel inputs/outputs (one partition, g queries).
    std::vector<double> group_q;        ///< gathered f64 queries
    std::vector<double> group_qsq;
    std::vector<double> group_dist;     ///< g × slab dot-form distances
    std::vector<float> group_qf32;      ///< gathered fp32 queries
    std::vector<float> group_qsq32;
    std::vector<float> group_dist32;
    std::vector<uint8_t> group_qcodes;  ///< g coded queries (row-major)
    std::vector<uint32_t> group_ssd;    ///< g × slab integer distances
    std::vector<CoarsePrep> group_prep;
    std::vector<double> group_worst;    ///< per-member entry-time k-th
    std::vector<double> group_margin;
    std::vector<uint8_t> group_full;
    /// Per-member refine-survivor lists (absolute row indices) and
    /// their dot-form distances (the §16.3 self-gate's inputs).
    std::vector<std::vector<uint32_t>> group_ridx;
    std::vector<std::vector<double>> group_cand;
    /// Per-query fp32 query mirrors, filled lazily on the query's
    /// first f32-tier visit.
    std::vector<float> query_f32;       ///< B × dim
    std::vector<float> q_sq_f32;
    std::vector<uint8_t> qf32_ready;
    /// Per-visit buffers: coarse prep (PrepCoarse), the seeding coarse
    /// visit's one-query integer scan (VisitCoarse), the §16.3
    /// order-statistic buffer, and the refine gather (RefinePush).
    std::vector<double> qclamp;    ///< query clamped into the grid box
    std::vector<uint8_t> qcodes;   ///< query coded on a partition's grid
    std::vector<uint8_t> qpacked;  ///< nibble-packed qcodes (4-bit tier)
    std::vector<double> decoded;   ///< q̃, for the residual measurement
    std::vector<uint32_t> ssd;     ///< one query's integer distances
    std::vector<double> cand_sort; ///< order-statistic buffer (§16.3)
    std::vector<double> rdist;     ///< gathered exact refine distances
  };

  /// \brief Exact scan of every partition in the set, for a block of
  /// `num_queries` packed row-major queries (with their squared norms;
  /// a single query is a block of one). Each query visits partitions
  /// in ascending distance-to-reference order with the
  /// triangle-inequality prune, into its own heap `tops[q]`
  /// (squared-distance space). The queries advance in lockstep rounds,
  /// and each round's visits are grouped by partition so one blocked
  /// many-to-many kernel call serves every query visiting that
  /// partition (DESIGN.md §16). Each query's decision chain (visit
  /// order, prunes, pushes, stat counts) depends only on its own heap,
  /// so its hits and stats are the same at any block size and equal
  /// the linear scan's hits. `tops[q]` must be Reset by the caller;
  /// stats are accumulated (+=) with the block's totals.
  void ScanExactBlock(const double* queries, const double* query_sqs,
                      size_t num_queries, size_t dim, BoundedTopK* tops,
                      BlockScratch* scratch, IndexQueryStats* stats) const;

  /// \brief Coarse-tier scan of every partition in the set, for a
  /// block of queries, into `tops[q]` (true-distance estimates,
  /// DESIGN.md §12.2). The coarse tier has no cross-row decision state,
  /// so blocking only groups kernel calls: per query, the estimates,
  /// bound and stats are the same at any block size. `bounds[q]` is
  /// raised (max) to cover every estimate pushed for query q; the
  /// caller seeds each with 0 and takes the max across sets. Stats are
  /// accumulated (+=).
  void ScanCoarseBlock(const double* queries, const double* query_sqs,
                       size_t num_queries, size_t dim, BoundedTopK* tops,
                       double* bounds, BlockScratch* scratch,
                       IndexQueryStats* stats) const;

  /// \brief Packs the given partitions from the database's current
  /// packed features: per-partition radius, SoA block, squared norms,
  /// and (when options allow) the int8 quantized tier. `references`
  /// row i and `members[i]` describe partition i; every member list
  /// must be non-empty and ascending. Partitions pack independently in
  /// parallel; every stored quantity is a pure function of the
  /// partition's own rows, so the packed bytes are identical at any
  /// thread count.
  Status Pack(const MotionDatabase& database, const Matrix& references,
              const std::vector<std::vector<size_t>>& members,
              const FeatureIndexOptions& options);

  /// \brief Re-derives one partition's block, norms, radius, and codes
  /// from the database's *current* rows (membership unchanged) — the
  /// O(partition) refresh behind ShardedFeatureIndex::ApplyUpdate.
  Status RefreshPartition(const MotionDatabase& database, size_t partition,
                          const FeatureIndexOptions& options);

  /// \brief True when *every* partition in the set provably contains
  /// no record closer than `kth` (true-distance space) to the query —
  /// the same sqrt-free triangle-inequality test the exact scan
  /// prunes with, evaluated with a conservative inflation of kth so
  /// rounding can only weaken the claim, never fake it. Used by the
  /// serving cache to revalidate entries against a mutated shard.
  bool AllBeyond(const std::vector<double>& query, double kth) const;

  size_t num_partitions() const { return partitions_.size(); }
  /// Total records across the set's partitions.
  size_t num_rows() const { return num_rows_; }
  size_t max_partition_size() const { return max_partition_size_; }
  bool has_quantized_tier() const {
    for (const Partition& p : partitions_) {
      if (p.quantized()) return true;
    }
    return false;
  }
  const Matrix& references() const { return references_; }
  const std::vector<Partition>& partitions() const { return partitions_; }

 private:
  /// The snapshot codec (db/index_snapshot.cc) serializes and restores
  /// the private representation verbatim.
  friend class IndexSnapshotCodec;

  /// Fills everything but record_indices (already set) for one
  /// partition from the database's packed rows.
  void FillPartition(const double* packed, size_t dim,
                     const double* reference,
                     const FeatureIndexOptions& options, Partition* part);
  /// Recomputes num_rows_ / max_partition_size_ after (re)packing.
  void RefreshDerived();

  // Per-(query, partition) building blocks of the block scans.

  /// Clamp + encode + residual measurement for the coarse tier; leaves
  /// the coded query in scratch->qcodes (unpacked, one byte per dim).
  CoarsePrep PrepCoarse(const double* query, double q_sq, size_t dim,
                        const Partition& part, BlockScratch* scratch) const;
  /// The coarse tier's evolving-threshold decision loop over rows
  /// [row_begin, row_end); ssd[j − row_begin] is row j's integer
  /// distance. Survivors are exact-evaluated and pushed.
  void SelectCoarse(const double* query, size_t dim, const Partition& part,
                    size_t row_begin, size_t row_end, const uint32_t* ssd,
                    const CoarsePrep& prep, BoundedTopK* top,
                    IndexQueryStats* stats) const;
  /// One full coarse-tier partition visit for one query (seed + prep +
  /// integer scan + SelectCoarse) — the exact block scan's path for a
  /// query whose heap is not yet full at partition entry.
  void VisitCoarse(const double* query, double q_sq, size_t dim,
                   const Partition& part, BoundedTopK* top,
                   BlockScratch* scratch, IndexQueryStats* stats) const;
  /// Gather-refines the survivor rows (one blocked fp32→f64 /
  /// dot-form→difference-form kernel call) and pushes them in row
  /// order. Push order cannot change the final top-k set (top_k.h).
  void RefinePush(const double* query, size_t dim, const Partition& part,
                  const std::vector<uint32_t>& ridx,
                  std::vector<double>* rdist, BoundedTopK* top) const;

  std::vector<Partition> partitions_;
  /// Partition references packed row-major (num_partitions × dim) so
  /// the visit-order pass is one one-to-many kernel call.
  Matrix references_;
  size_t max_partition_size_ = 0;
  size_t num_rows_ = 0;
};

}  // namespace mocemg

#endif  // MOCEMG_DB_FEATURE_INDEX_H_
