/// \file motion_database.h
/// \brief The motion database of the paper's Section 4: labelled final
/// feature vectors supporting content-based retrieval (kNN) of motions.
/// Linear scan is exact and adequate at lab scale; feature_index.h adds
/// the pruned index the paper alludes to ("our extracted feature vectors
/// can be applied to any indexing technique to prune irrelevant
/// motions").

#ifndef MOCEMG_DB_MOTION_DATABASE_H_
#define MOCEMG_DB_MOTION_DATABASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/result.h"

namespace mocemg {

/// \brief One database entry.
struct MotionRecord {
  std::string name;         ///< free-form ("raise_arm/trial3")
  size_t label = 0;         ///< class id
  std::string label_name;   ///< class name
  std::vector<double> feature;  ///< final feature vector
};

/// \brief A kNN query hit.
struct QueryHit {
  size_t record_index = 0;
  double distance = 0.0;
};

/// \brief In-memory feature database with exact linear kNN and CSV
/// persistence.
class MotionDatabase {
 public:
  MotionDatabase() = default;

  /// \brief Appends a record; the first insert fixes the feature
  /// dimension, later mismatches fail.
  Status Insert(MotionRecord record);

  /// \brief Replaces record `index`'s feature vector, keeping the
  /// packed mirror in sync (both are written under one epoch bump, so
  /// the mirror can never go stale relative to the records). Same
  /// validation as Insert: finite values, matching dimension.
  Status UpdateFeature(size_t index, const std::vector<double>& feature);

  /// \brief Mutation epoch: incremented by every Insert and
  /// UpdateFeature. Derived structures (ShardedFeatureIndex,
  /// QueryServer cache entries) record the epoch they were built
  /// against and treat any mismatch as staleness — the index fails
  /// queries with a Status until ApplyUpdate/Rebuild, the cache simply
  /// stops hitting.
  uint64_t epoch() const { return epoch_; }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  size_t feature_dimension() const { return dimension_; }
  const MotionRecord& record(size_t i) const { return records_[i]; }
  const std::vector<MotionRecord>& records() const { return records_; }

  /// \brief All features as one contiguous row-major block (size() ×
  /// feature_dimension(), record order). Maintained on Insert so the
  /// linear scan and index builds run the packed distance kernels
  /// instead of pointer-chasing per-record vectors.
  const std::vector<double>& packed_features() const { return packed_; }

  /// \brief Pointer to record i's feature row inside the packed block.
  const double* packed_row(size_t i) const {
    return packed_.data() + i * dimension_;
  }

  /// \brief Exact k nearest neighbours by Euclidean distance in
  /// final-feature space, ascending.
  Result<std::vector<QueryHit>> NearestNeighbors(
      const std::vector<double>& query, size_t k) const;

  /// \brief Majority label among the k nearest neighbours (ties resolved
  /// toward the closer neighbour's label).
  Result<size_t> ClassifyByVote(const std::vector<double>& query,
                                size_t k) const;

  /// \brief The vote half of ClassifyByVote over already-computed
  /// hits (ascending by distance): majority label, ties resolved
  /// toward the closer neighbour's label. Shared with the query
  /// server so a cached hit list classifies identically to a fresh
  /// scan. `hits` must be non-empty with valid record indices.
  Result<size_t> VoteAmongHits(const std::vector<QueryHit>& hits) const;

  /// \brief CSV persistence: name,label,label_name,f0,f1,…
  Status SaveCsv(const std::string& path) const;
  static Result<MotionDatabase> LoadCsv(const std::string& path);

 private:
  std::vector<MotionRecord> records_;
  /// Row-major SoA mirror of the records' features (records_ stays the
  /// source of truth for names/labels; features are duplicated here so
  /// scans stream one contiguous block).
  std::vector<double> packed_;
  size_t dimension_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace mocemg

#endif  // MOCEMG_DB_MOTION_DATABASE_H_
