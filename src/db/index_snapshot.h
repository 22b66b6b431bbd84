/// \file index_snapshot.h
/// \brief Crash-safe persistence for a built ShardedFeatureIndex
/// (DESIGN.md §12.3).
///
/// An index over millions of records takes seconds to minutes to
/// rebuild, almost all of it in the k-means layout; losing it to a
/// process restart turns every crash into a cold-start storm. A snapshot
/// is one checksummed file ("MOCEMGSM6") holding that layout and nothing
/// derived from it: the applied and per-shard epochs, the build options
/// (with the resolved exact precision and the shard count), the global
/// partition references and every record's owning partition. The SoA
/// blocks, norms and fp32 mirrors are a pure function of (layout,
/// database rows), so a load re-derives them with
/// IndexPartitionSet::Pack — milliseconds, not the k-means seconds — and
/// the loaded index answers every query, exact or budgeted, with the
/// bits the saved one would have produced.
///
/// The file has a little-endian header: the magic (8-byte family
/// prefix, version digit, newline), the payload byte count, and an
/// FNV-1a64 checksum of the payload. Truncation is caught by the length
/// check, in-place corruption by the checksum, format drift by the
/// magic/version (the detected version is named) — each with a distinct
/// ParseError so operators can tell a half-written file from a
/// bit-rotted one. Only version 6 is read; an older snapshot gets the
/// version-mismatch status, and LoadOrRebuildShardedFeatureIndex
/// rebuilds from the database. A save writes a temporary sibling and
/// renames it into place, so a crash mid-save leaves the previous
/// snapshot in charge.
///
/// LoadOrRebuildShardedFeatureIndex is the recovery entry point servers
/// use at boot: the strict load plus a freshness check, falling back to
/// a full Build when either fails — corrupted or stale state degrades
/// to a slow start, never to wrong answers.

#ifndef MOCEMG_DB_INDEX_SNAPSHOT_H_
#define MOCEMG_DB_INDEX_SNAPSHOT_H_

#include <string>

#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "util/result.h"

namespace mocemg {

/// \brief How a LoadOrRebuildShardedFeatureIndex call obtained its
/// index.
struct ShardedSnapshotLoadInfo {
  /// True when the snapshot loaded, validated and was fresh; false when
  /// the index was rebuilt from the database.
  bool loaded_from_snapshot = false;
  /// Human-readable reason for the rebuild (empty on a load).
  std::string fallback_reason;
};

/// \brief Writes the snapshot atomically (to `<path>.tmp`, then
/// renamed into place). Fails with FailedPrecondition when the index is
/// not built.
Status SaveShardedFeatureIndex(const ShardedFeatureIndex& index,
                               const std::string& path);

/// \brief Strict load: the file must validate (magic, length, checksum,
/// options, finite references, a non-empty partition for every
/// reference, shape against the database); every shard is then packed
/// from the database's current rows. The loaded index keeps the
/// snapshot's epochs; if the database has mutated past them, queries
/// fail with FailedPrecondition exactly as after any other mutation —
/// staleness is not hidden by the load. `database` must outlive the
/// returned index.
Result<ShardedFeatureIndex> LoadShardedFeatureIndex(
    const std::string& path, const MotionDatabase* database);

/// \brief Boot-time recovery: the strict load plus a freshness check
/// (applied epoch == database epoch). When either fails, logs the
/// reason and runs a full Build with `rebuild_options`.
Result<ShardedFeatureIndex> LoadOrRebuildShardedFeatureIndex(
    const std::string& path, const MotionDatabase* database,
    const ShardedIndexOptions& rebuild_options = {},
    ShardedSnapshotLoadInfo* info = nullptr);

}  // namespace mocemg

#endif  // MOCEMG_DB_INDEX_SNAPSHOT_H_
