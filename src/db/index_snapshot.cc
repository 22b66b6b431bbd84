#include "db/index_snapshot.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/logging.h"
#include "util/macros.h"

namespace mocemg {
namespace {

// A snapshot file starts with a fixed header: magic+version tag, payload
// byte count (detects truncation), FNV-1a64 checksum of the payload
// (detects corruption). The newline in the magic catches CRLF-mangling
// transfers early; the digit at offset 8 is the format version.
// Version 6 (the only one read or written) holds the layout alone — no
// packed blocks, norms or mirrors, which the load re-derives with
// IndexPartitionSet::Pack; any other version is rejected with the
// detected version named.
constexpr char kManifestMagic[] = "MOCEMGSM6\n";
constexpr size_t kMagicLen = sizeof(kManifestMagic) - 1;
// The 8-byte family prefix (magic minus version digit and newline), for
// version-aware unframing.
constexpr size_t kPrefixLen = 8;
constexpr int kVersion = 6;

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- little-endian primitive encoding -------------------------------

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked cursor over the payload; every read fails with
/// ParseError instead of walking off the end, so a payload that lies
/// about its internal sizes (yet passes the checksum because it was
/// *written* that way) still cannot crash the loader.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  Result<uint64_t> U64() {
    if (size_ - pos_ < 8) {
      return Status::ParseError("index snapshot payload ended mid-field");
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<double> Double() {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Wraps a payload in the header: magic, payload length, FNV-1a64
/// checksum.
std::string FrameSnapshot(const std::string& payload) {
  std::string out;
  out.reserve(kMagicLen + 16 + payload.size());
  out.append(kManifestMagic, kMagicLen);
  PutU64(&out, payload.size());
  PutU64(&out, Fnv1a64(payload.data(), payload.size()));
  out += payload;
  return out;
}

/// A validated snapshot frame: its checksummed payload window.
struct FramedPayload {
  const char* payload = nullptr;
  uint64_t size = 0;
};

/// Validates the header of `bytes` and returns the payload window. The
/// version digit is parsed even on rejection, so an old or future file
/// fails with its *detected* version named (and a regeneration hint)
/// instead of an opaque magic mismatch.
Result<FramedPayload> UnframeSnapshot(const std::string& bytes) {
  if (bytes.size() < kMagicLen + 16) {
    return Status::ParseError("index snapshot shorter than its header");
  }
  const char version_digit = bytes[kPrefixLen];
  if (bytes.compare(0, kPrefixLen, kManifestMagic, kPrefixLen) != 0 ||
      bytes[kPrefixLen + 1] != '\n' || version_digit < '0' ||
      version_digit > '9') {
    return Status::ParseError(
        "index snapshot magic/version mismatch (expected " +
        std::string(kManifestMagic, kMagicLen - 1) + ")");
  }
  const int version = version_digit - '0';
  if (version != kVersion) {
    return Status::ParseError(
        "index snapshot is container version " + std::to_string(version) +
        "; this reader supports version " + std::to_string(kVersion) +
        " — regenerate the snapshot by re-saving the index");
  }
  Reader header(bytes.data() + kMagicLen, 16);
  MOCEMG_ASSIGN_OR_RETURN(uint64_t payload_size, header.U64());
  MOCEMG_ASSIGN_OR_RETURN(uint64_t checksum, header.U64());
  const size_t have = bytes.size() - kMagicLen - 16;
  if (have != payload_size) {
    return Status::ParseError(
        "index snapshot truncated: header promises " +
        std::to_string(payload_size) + " payload bytes, file has " +
        std::to_string(have));
  }
  const char* payload = bytes.data() + kMagicLen + 16;
  const uint64_t actual = Fnv1a64(payload, payload_size);
  if (actual != checksum) {
    return Status::ParseError(
        "index snapshot checksum mismatch (stored " +
        std::to_string(checksum) + ", computed " + std::to_string(actual) +
        "): file is corrupted");
  }
  FramedPayload out;
  out.payload = payload;
  out.size = payload_size;
  return out;
}

}  // namespace

/// Friend of ShardedFeatureIndex: writes its layout and epochs, and
/// restores them into a fresh index that it packs from the database's
/// current rows — bit-identical to the saved index, since packing is a
/// pure function of (layout, rows).
class IndexSnapshotCodec {
 public:
  static std::string Serialize(const ShardedFeatureIndex& index) {
    std::string p;
    PutU64(&p, index.applied_epoch_);
    PutU64(&p, index.database_->feature_dimension());
    PutU64(&p, index.record_to_partition_.size());
    PutU64(&p, index.shards_.size());
    // Build options, so the load packs (and a fallback rebuild
    // reproduces) the same index.
    PutU64(&p, index.options_.index.num_partitions);
    PutU64(&p, index.options_.index.seed);
    PutU64(&p,
           static_cast<uint64_t>(index.options_.index.exact_precision));
    PutU64(&p, index.options_.index.parallel.max_threads);
    PutU64(&p, index.options_.index.parallel.grain);
    for (uint64_t e : index.shard_epochs_) PutU64(&p, e);
    // The global layout: references in global partition order plus
    // every record's owning partition (shard ownership is p mod N).
    PutU64(&p, index.global_references_.rows());
    for (double v : index.global_references_.data()) PutDouble(&p, v);
    for (uint32_t v : index.record_to_partition_) PutU64(&p, v);
    return p;
  }

  /// Parses and validates the payload against the database (shape,
  /// options, references, record map), then packs every shard. The
  /// index keeps the file's epochs, fresh or not.
  static Result<ShardedFeatureIndex> Load(const char* payload, size_t size,
                                          const MotionDatabase* database) {
    Reader r(payload, size);
    ShardedFeatureIndex index;
    index.database_ = database;
    MOCEMG_ASSIGN_OR_RETURN(index.applied_epoch_, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t dim, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n_records, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t num_shards, r.U64());
    if (dim != database->feature_dimension()) {
      return Status::ParseError(
          "index snapshot dimension " + std::to_string(dim) +
          " does not match database dimension " +
          std::to_string(database->feature_dimension()));
    }
    if (n_records != database->size()) {
      return Status::ParseError(
          "index snapshot covers " + std::to_string(n_records) +
          " records but the database has " +
          std::to_string(database->size()));
    }
    if (num_shards == 0 || num_shards > 65536) {
      return Status::ParseError("index snapshot shard count " +
                                std::to_string(num_shards) + " invalid");
    }
    ShardedIndexOptions& options = index.options_;
    options.num_shards = static_cast<size_t>(num_shards);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t num_parts_opt, r.U64());
    options.index.num_partitions = static_cast<size_t>(num_parts_opt);
    MOCEMG_ASSIGN_OR_RETURN(options.index.seed, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t precision, r.U64());
    if (precision != static_cast<uint64_t>(ExactPrecision::kF64) &&
        precision != static_cast<uint64_t>(ExactPrecision::kF32)) {
      return Status::ParseError(
          "index snapshot carries exact precision tag " +
          std::to_string(precision) + "; this reader supports f64 (1) "
          "or f32 (2)");
    }
    options.index.exact_precision = static_cast<ExactPrecision>(precision);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t threads, r.U64());
    options.index.parallel.max_threads = static_cast<size_t>(threads);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t grain, r.U64());
    options.index.parallel.grain = static_cast<size_t>(grain);
    index.shard_epochs_.resize(options.num_shards);
    for (uint64_t& e : index.shard_epochs_) {
      MOCEMG_ASSIGN_OR_RETURN(e, r.U64());
    }
    MOCEMG_ASSIGN_OR_RETURN(uint64_t num_parts, r.U64());
    if (num_parts == 0 || num_parts > n_records) {
      return Status::ParseError(
          "index snapshot partition count " + std::to_string(num_parts) +
          " invalid for " + std::to_string(n_records) + " records");
    }
    index.global_references_ = Matrix(static_cast<size_t>(num_parts),
                                      static_cast<size_t>(dim));
    for (double& v : index.global_references_.mutable_data()) {
      MOCEMG_ASSIGN_OR_RETURN(v, r.Double());
      // No Build produces a NaN or infinite reference; packed, it would
      // give its partition a NaN radius and its prune bound no meaning.
      if (!std::isfinite(v)) {
        return Status::ParseError(
            "index snapshot carries a non-finite partition reference");
      }
    }
    std::vector<std::vector<size_t>> members(
        static_cast<size_t>(num_parts));
    index.record_to_partition_.resize(static_cast<size_t>(n_records));
    for (size_t rec = 0; rec < index.record_to_partition_.size(); ++rec) {
      MOCEMG_ASSIGN_OR_RETURN(uint64_t part, r.U64());
      if (part >= num_parts) {
        return Status::ParseError(
            "index snapshot maps record " + std::to_string(rec) +
            " to partition " + std::to_string(part) + " of " +
            std::to_string(num_parts));
      }
      index.record_to_partition_[rec] = static_cast<uint32_t>(part);
      members[part].push_back(rec);
    }
    if (!r.exhausted()) {
      return Status::ParseError("index snapshot has trailing bytes");
    }
    for (const std::vector<size_t>& list : members) {
      if (list.empty()) {
        return Status::ParseError("index snapshot has an empty partition");
      }
    }
    MOCEMG_RETURN_NOT_OK(index.PackShards(members));
    return index;
  }
};

Status SaveShardedFeatureIndex(const ShardedFeatureIndex& index,
                               const std::string& path) {
  if (index.num_shards() == 0 || index.num_partitions() == 0) {
    return Status::FailedPrecondition(
        "cannot snapshot a sharded index that has not been built");
  }
  // Atomic commit: the incomplete file only ever exists under the
  // temporary sibling name, so a crash mid-save leaves the previous
  // snapshot at `path` untouched.
  const std::string tmp = path + ".tmp";
  MOCEMG_RETURN_NOT_OK(WriteStringToFile(
      tmp, FrameSnapshot(IndexSnapshotCodec::Serialize(index))));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("failed to rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<ShardedFeatureIndex> LoadShardedFeatureIndex(
    const std::string& path, const MotionDatabase* database) {
  if (database == nullptr) {
    return Status::InvalidArgument("database must not be null");
  }
  const std::string context = "loading index snapshot " + path;
  MOCEMG_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  auto window = UnframeSnapshot(bytes);
  if (!window.ok()) return window.status().WithContext(context);
  auto index =
      IndexSnapshotCodec::Load(window->payload, window->size, database);
  if (!index.ok()) return index.status().WithContext(context);
  return index;
}

Result<ShardedFeatureIndex> LoadOrRebuildShardedFeatureIndex(
    const std::string& path, const MotionDatabase* database,
    const ShardedIndexOptions& rebuild_options,
    ShardedSnapshotLoadInfo* info) {
  if (database == nullptr) {
    return Status::InvalidArgument("database must not be null");
  }
  ShardedSnapshotLoadInfo local;
  ShardedSnapshotLoadInfo* out = info ? info : &local;
  *out = ShardedSnapshotLoadInfo{};

  Result<ShardedFeatureIndex> loaded = LoadShardedFeatureIndex(path, database);
  Status st = loaded.status();
  if (st.ok() && loaded->applied_epoch() != database->epoch()) {
    st = Status::FailedPrecondition(
        "index snapshot applied epoch " +
        std::to_string(loaded->applied_epoch()) +
        " but database is at epoch " + std::to_string(database->epoch()));
  }
  if (st.ok()) {
    out->loaded_from_snapshot = true;
    return loaded;
  }
  out->fallback_reason = st.ToString();
  MOCEMG_LOG(kWarning) << "index snapshot " << path
                       << " unusable, rebuilding from database: "
                       << out->fallback_reason;
  return ShardedFeatureIndex::Build(database, rebuild_options);
}

}  // namespace mocemg
