/// \file index_snapshot.h
/// \brief Crash-safe persistence for a built ShardedFeatureIndex
/// (DESIGN.md §12.3, §13.4).
///
/// An index over millions of records takes seconds to minutes to
/// rebuild (k-means + SoA packing + quantization); losing it to a
/// process restart turns every crash into a cold-start storm. A
/// snapshot is a checksummed *manifest* at `path` ("MOCEMGSM3") plus
/// one checksummed file per shard at `path + ".shard<i>"`
/// ("MOCEMGSH3"). The shard files hold the full packed representation
/// — SoA partition blocks, norms, the quantized tier (int8 or 4-bit
/// nibble-packed, code width recorded per partition), the fp32 mirror —
/// so a loaded index answers every query with exactly the bytes the
/// saved one would have produced. The manifest carries everything
/// needed to repack any shard without re-running k-means: the applied
/// and per-shard epochs, the build options, the global partition
/// references, every record's owning partition, and each shard file's
/// expected (size, checksum) digest — so a shard file from a different
/// save generation is rejected exactly like a corrupted one.
///
/// Every file has the same little-endian header: the magic (8-byte
/// family prefix, version digit, newline), the payload byte count, and
/// an FNV-1a64 checksum of the payload. Truncation is caught by the
/// length check, in-place corruption by the checksum, format drift by
/// the magic/version (the detected version is named) — each with a
/// distinct ParseError so operators can tell a half-written file from
/// a bit-rotted one. Only version 3 is read. Saves write the shard
/// files first and commit the manifest last, each to a temporary
/// sibling renamed into place: a crash mid-save leaves the old
/// manifest in charge, and any shard files it no longer matches fail
/// digest validation and repack at load.
///
/// LoadOrRebuildShardedFeatureIndex is the recovery entry point servers
/// use at boot: it validates the snapshot against the database
/// (dimension, record count, record indices, epochs) and on failure
/// logs the reason and repacks the bad shards or rebuilds — corrupted
/// state degrades to a slow start, never to wrong answers.

#ifndef MOCEMG_DB_INDEX_SNAPSHOT_H_
#define MOCEMG_DB_INDEX_SNAPSHOT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "util/result.h"

namespace mocemg {

/// \brief How a LoadOrRebuildShardedFeatureIndex call obtained its
/// index.
struct ShardedSnapshotLoadInfo {
  /// True when the manifest and every shard loaded and validated.
  bool loaded_from_snapshot = false;
  /// True when the whole index was rebuilt from the database (manifest
  /// unusable, shape mismatch, or stale epoch).
  bool rebuilt = false;
  /// Shards that failed validation and were repacked from the
  /// manifest's layout (k-means NOT re-run; empty on a clean load).
  std::vector<size_t> rebuilt_shards;
  /// Human-readable reason for the first fallback taken (empty on a
  /// clean load).
  std::string fallback_reason;
};

/// \brief Writes the manifest + per-shard files atomically (shards
/// first, manifest last; each written to `<file>.tmp`, flushed, then
/// renamed into place). Fails with FailedPrecondition when the index
/// is not built.
Status SaveShardedFeatureIndex(const ShardedFeatureIndex& index,
                               const std::string& path);

/// \brief Strict load: the manifest and every shard file must
/// validate (magic, length, checksum, manifest digest, epochs,
/// membership, shape against the database). The loaded index keeps the
/// snapshot's epochs; if the database has mutated past them, queries
/// fail with FailedPrecondition exactly as after any other mutation —
/// staleness is not hidden by the load. `database` must outlive the
/// returned index.
Result<ShardedFeatureIndex> LoadShardedFeatureIndex(
    const std::string& path, const MotionDatabase* database);

/// \brief Boot-time recovery with *partial* rebuild: a valid, fresh
/// manifest with some corrupted/missing shard files repacks only the
/// failing shards from the manifest's layout (identical bytes to the
/// lost shards, since packing is a pure function of the layout and
/// the database rows). An unusable or stale manifest falls back to a
/// full Build with `rebuild_options`.
Result<ShardedFeatureIndex> LoadOrRebuildShardedFeatureIndex(
    const std::string& path, const MotionDatabase* database,
    const ShardedIndexOptions& rebuild_options = {},
    ShardedSnapshotLoadInfo* info = nullptr);

}  // namespace mocemg

#endif  // MOCEMG_DB_INDEX_SNAPSHOT_H_
