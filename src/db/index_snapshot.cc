#include "db/index_snapshot.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/quant_kernels.h"

namespace mocemg {
namespace {

// Every snapshot file (manifest and shard) starts with the same header:
// magic+version tag, payload byte count (detects truncation), FNV-1a64
// checksum of the payload (detects corruption). The newline in the
// magic catches CRLF-mangling transfers early; the digit at offset 8 is
// the format version. Version 3 (the only one read or written) carries
// the resolved exact-scan precision in the manifest's options and the
// fp32 mirror (float block, float row norms, max |element|) in every
// partition; any other version is rejected with the detected version
// named.
constexpr char kManifestMagic[] = "MOCEMGSM3\n";
constexpr char kShardMagic[] = "MOCEMGSH3\n";
constexpr size_t kMagicLen = sizeof(kManifestMagic) - 1;
static_assert(sizeof(kShardMagic) - 1 == kMagicLen,
              "snapshot magics share one header layout");
// 8-byte family prefixes (magic minus version digit and newline), for
// version-aware unframing.
constexpr char kManifestPrefix[] = "MOCEMGSM";
constexpr char kShardPrefix[] = "MOCEMGSH";
constexpr size_t kPrefixLen = 8;
constexpr int kVersion = 3;

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

void PutDoubles(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  for (double d : v) PutDouble(out, d);
}

void PutIndices(std::string* out, const std::vector<size_t>& v) {
  PutU64(out, v.size());
  for (size_t i : v) PutU64(out, i);
}

void PutBytes(std::string* out, const std::vector<uint8_t>& v) {
  PutU64(out, v.size());
  out->append(reinterpret_cast<const char*>(v.data()), v.size());
}

void PutFloats(std::string* out, const std::vector<float>& v) {
  PutU64(out, v.size());
  for (float f : v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
    }
  }
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

  Result<std::vector<double>> Doubles(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n * 8) {
      return Status::ParseError("index snapshot double array overruns payload");
    }
    std::vector<double> v(n);
    for (uint64_t i = 0; i < n; ++i) {
      MOCEMG_ASSIGN_OR_RETURN(v[i], Double());
    }
    return v;
  }

  Result<std::vector<size_t>> Indices(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n * 8) {
      return Status::ParseError("index snapshot index array overruns payload");
    }
    std::vector<size_t> v(n);
    for (uint64_t i = 0; i < n; ++i) {
      MOCEMG_ASSIGN_OR_RETURN(uint64_t x, U64());
      v[i] = static_cast<size_t>(x);
    }
    return v;
  }

  Result<std::vector<float>> Floats(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n * 4) {
      return Status::ParseError(
          "index snapshot float array overruns payload");
    }
    std::vector<float> v(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t bits = 0;
      for (int b = 0; b < 4; ++b) {
        bits |= static_cast<uint32_t>(
                    static_cast<unsigned char>(data_[pos_ + b]))
                << (8 * b);
      }
      pos_ += 4;
      std::memcpy(&v[i], &bits, sizeof(bits));
    }
    return v;
  }

  Result<std::vector<uint8_t>> Bytes(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n) {
      return Status::ParseError("index snapshot byte array overruns payload");
    }
    std::vector<uint8_t> v(n);
    if (n > 0) {
      // An empty vector's data() may be null, which memcpy's nonnull
      // contract forbids even at length 0.
      std::memcpy(v.data(), data_ + pos_, n);
    }
    pos_ += n;
    return v;
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Wraps a payload in the standard header: magic, payload length,
/// FNV-1a64 checksum.
std::string FrameSnapshot(const char* magic, const std::string& payload) {
  std::string out;
  out.reserve(kMagicLen + 16 + payload.size());
  out.append(magic, kMagicLen);
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

/// Validates the header of `bytes` against the 8-byte family `prefix`
/// and returns the payload window. The version digit is parsed even on
/// rejection, so an old or future file fails with its *detected*
/// version named (and a regeneration hint) instead of an opaque magic
/// mismatch. `what` names the file kind in error messages.
Result<FramedPayload> UnframeSnapshot(const std::string& bytes,
                                      const char* prefix,
                                      const char* what) {
  if (bytes.size() < kMagicLen + 16) {
    return Status::ParseError(std::string(what) +
                              " shorter than its header");
  }
  const char version_digit = bytes[kPrefixLen];
  if (bytes.compare(0, kPrefixLen, prefix, kPrefixLen) != 0 ||
      bytes[kPrefixLen + 1] != '\n' || version_digit < '0' ||
      version_digit > '9') {
    return Status::ParseError(std::string(what) +
                              " magic/version mismatch (expected " +
                              std::string(prefix) +
                              static_cast<char>('0' + kVersion) + ")");
  }
  const int version = version_digit - '0';
  if (version != kVersion) {
    return Status::ParseError(
        std::string(what) + " is container version " +
        std::to_string(version) + "; this reader supports version " +
        std::to_string(kVersion) +
        " — regenerate the snapshot by re-saving the index");
  }
  Reader header(bytes.data() + kMagicLen, 16);
  MOCEMG_ASSIGN_OR_RETURN(uint64_t payload_size, header.U64());
  MOCEMG_ASSIGN_OR_RETURN(uint64_t checksum, header.U64());
  const size_t have = bytes.size() - kMagicLen - 16;
  if (have != payload_size) {
    return Status::ParseError(
        std::string(what) + " truncated: header promises " +
        std::to_string(payload_size) + " payload bytes, file has " +
        std::to_string(have));
  }
  const char* payload = bytes.data() + kMagicLen + 16;
  const uint64_t actual = Fnv1a64(payload, payload_size);
  if (actual != checksum) {
    return Status::ParseError(
        std::string(what) + " checksum mismatch (stored " +
        std::to_string(checksum) + ", computed " + std::to_string(actual) +
        "): file is corrupted");
  }
  FramedPayload out;
  out.payload = payload;
  out.size = payload_size;
  return out;
}

/// Atomic write: the incomplete state only ever exists under the
/// temporary sibling name, so a crash between write and rename leaves
/// the previous file at `path` untouched.
Status WriteSnapshotFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  MOCEMG_RETURN_NOT_OK(WriteStringToFile(tmp, bytes));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("failed to rename " + tmp + " to " + path);
  }
  return Status::OK();
}

std::string ShardFilePath(const std::string& path, size_t shard) {
  return path + ".shard" + std::to_string(shard);
}

/// The manifest's parsed contents — everything needed to validate
/// shard files against this save generation or repack a lost shard
/// without re-running k-means.
struct ShardedManifest {
  uint64_t applied_epoch = 0;
  uint64_t dim = 0;
  uint64_t n_records = 0;
  uint64_t num_shards = 0;
  uint64_t num_partitions = 0;
  ShardedIndexOptions options;
  std::vector<uint64_t> shard_epochs;
  Matrix references;
  std::vector<uint32_t> record_to_partition;
  /// Per shard: (payload size, payload checksum) the shard file must
  /// match.
  std::vector<std::pair<uint64_t, uint64_t>> digests;
};

}  // namespace

/// Friend of ShardedFeatureIndex and IndexPartitionSet: reads and
/// writes the private representation field-for-field so a restored
/// index is bit-identical to the saved one (same partitions, same
/// blocks, same quantized grids, same epochs).
class IndexSnapshotCodec {
 public:
  static void PutPartition(std::string* p,
                           const IndexPartitionSet::Partition& part) {
    PutDouble(p, part.radius);
    PutDouble(p, part.radius_sq);
    PutDouble(p, part.max_norm_sq);
    PutDouble(p, part.quant_scale);
    PutDouble(p, part.quant_err_sq);
    PutDouble(p, part.quant_box_sq);
    PutU64(p, part.quant_bits);
    PutIndices(p, part.record_indices);
    PutDoubles(p, part.block);
    PutDoubles(p, part.norms_sq);
    PutDoubles(p, part.quant_offsets);
    PutBytes(p, part.quant_codes);
    // The fp32 mirror (empty when the partition is coded, the precision
    // is f64, or the norm gate rejected it).
    PutDouble(p, part.mirror_max_abs);
    PutFloats(p, part.block_f32);
    PutFloats(p, part.norms_f32);
  }

  static Status ReadPartition(Reader* r, uint64_t n_records,
                              uint64_t dim,
                              IndexPartitionSet::Partition* part) {
    MOCEMG_ASSIGN_OR_RETURN(part->radius, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->radius_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->max_norm_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->quant_scale, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->quant_err_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->quant_box_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t quant_bits, r->U64());
    if (quant_bits != 8 && quant_bits != 4) {
      return Status::ParseError(
          "index snapshot partition carries quantized code width " +
          std::to_string(quant_bits) + " bits; this reader supports 8 or 4");
    }
    part->quant_bits = static_cast<uint8_t>(quant_bits);
    MOCEMG_ASSIGN_OR_RETURN(part->record_indices, r->Indices(n_records));
    const uint64_t n = part->record_indices.size();
    for (size_t idx : part->record_indices) {
      if (idx >= n_records) {
        return Status::ParseError(
            "index snapshot record index " + std::to_string(idx) +
            " out of range for database of size " +
            std::to_string(n_records));
      }
    }
    MOCEMG_ASSIGN_OR_RETURN(part->block, r->Doubles(n * dim));
    if (part->block.size() != n * dim) {
      return Status::ParseError("index snapshot block size mismatch");
    }
    MOCEMG_ASSIGN_OR_RETURN(part->norms_sq, r->Doubles(n));
    if (part->norms_sq.size() != n) {
      return Status::ParseError("index snapshot norms size mismatch");
    }
    MOCEMG_ASSIGN_OR_RETURN(part->quant_offsets, r->Doubles(dim));
    MOCEMG_ASSIGN_OR_RETURN(part->quant_codes, r->Bytes(n * dim));
    // The code array must match the declared width exactly: n*dim bytes
    // at 8 bits, n*ceil(dim/2) nibble-packed bytes at 4 bits. A payload
    // whose width field and code bytes disagree is rejected here rather
    // than mis-scanned later.
    const uint64_t expect_codes =
        part->quant_bits == 4 ? n * PackedNibbleStride(static_cast<size_t>(dim))
                              : n * dim;
    if (!part->quant_codes.empty() &&
        (part->quant_codes.size() != expect_codes ||
         part->quant_offsets.size() != dim)) {
      return Status::ParseError(
          "index snapshot quantized tier malformed: " +
          std::to_string(part->quant_codes.size()) + " code bytes but " +
          std::to_string(quant_bits) + "-bit width implies " +
          std::to_string(expect_codes));
    }
    MOCEMG_ASSIGN_OR_RETURN(part->mirror_max_abs, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->block_f32, r->Floats(n * dim));
    MOCEMG_ASSIGN_OR_RETURN(part->norms_f32, r->Floats(n));
    // The mirror is all-or-nothing per partition: a float block of any
    // size other than rows×dim (or a norms array that disagrees) would
    // mis-index the fp32 scan, so reject it here.
    if (part->block_f32.empty() ? !part->norms_f32.empty()
                                : (part->block_f32.size() != n * dim ||
                                   part->norms_f32.size() != n)) {
      return Status::ParseError(
          "index snapshot fp32 mirror malformed: " +
          std::to_string(part->block_f32.size()) + " floats and " +
          std::to_string(part->norms_f32.size()) + " norms for " +
          std::to_string(n) + " rows of dimension " + std::to_string(dim));
    }
    return Status::OK();
  }

  static std::string SerializeShard(const ShardedFeatureIndex& index,
                                    size_t shard) {
    std::string p;
    PutU64(&p, shard);
    PutU64(&p, index.shard_epochs_[shard]);
    const IndexPartitionSet& set = index.shards_[shard];
    PutU64(&p, set.partitions_.size());
    for (const IndexPartitionSet::Partition& part : set.partitions_) {
      PutPartition(&p, part);
    }
    return p;
  }

  static std::string SerializeManifest(
      const ShardedFeatureIndex& index,
      const std::vector<std::pair<uint64_t, uint64_t>>& digests) {
    std::string p;
    PutU64(&p, index.applied_epoch_);
    PutU64(&p, index.database_->feature_dimension());
    PutU64(&p, index.record_to_partition_.size());
    PutU64(&p, index.shards_.size());
    // Build options, so a fallback rebuild reproduces the same index.
    PutU64(&p, index.options_.index.num_partitions);
    PutU64(&p, index.options_.index.seed);
    PutU64(&p, index.options_.index.quantized_scan ? 1 : 0);
    PutU64(&p, index.options_.index.quantized_min_rows);
    PutU64(&p, index.options_.index.quant_bits);
    PutU64(&p,
           static_cast<uint64_t>(index.options_.index.exact_precision));
    PutU64(&p, index.options_.index.parallel.max_threads);
    PutU64(&p, index.options_.index.parallel.grain);
    PutU64(&p, index.options_.num_shards);
    for (uint64_t e : index.shard_epochs_) PutU64(&p, e);
    // The global layout: references in global partition order plus
    // every record's owning partition — enough to repack any shard
    // without re-running k-means (shard ownership is p mod N).
    PutU64(&p, index.global_references_.rows());
    PutU64(&p, index.global_references_.cols());
    PutDoubles(&p, index.global_references_.data());
    PutU64(&p, index.record_to_partition_.size());
    for (uint32_t v : index.record_to_partition_) PutU64(&p, v);
    for (const auto& [size, checksum] : digests) {
      PutU64(&p, size);
      PutU64(&p, checksum);
    }
    return p;
  }

  static Result<ShardedManifest> ParseManifest(
      const char* payload, size_t size, const MotionDatabase* database) {
    Reader r(payload, size);
    ShardedManifest m;
    MOCEMG_ASSIGN_OR_RETURN(m.applied_epoch, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(m.dim, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(m.n_records, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(m.num_shards, r.U64());
    if (m.dim != database->feature_dimension()) {
      return Status::ParseError(
          "sharded index manifest dimension " + std::to_string(m.dim) +
          " does not match database dimension " +
          std::to_string(database->feature_dimension()));
    }
    if (m.n_records != database->size()) {
      return Status::ParseError(
          "sharded index manifest covers " + std::to_string(m.n_records) +
          " records but the database has " +
          std::to_string(database->size()));
    }
    if (m.num_shards == 0 || m.num_shards > 65536) {
      return Status::ParseError("sharded index manifest shard count invalid");
    }
    MOCEMG_ASSIGN_OR_RETURN(uint64_t num_parts_opt, r.U64());
    m.options.index.num_partitions = static_cast<size_t>(num_parts_opt);
    MOCEMG_ASSIGN_OR_RETURN(m.options.index.seed, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t qscan, r.U64());
    m.options.index.quantized_scan = qscan != 0;
    MOCEMG_ASSIGN_OR_RETURN(uint64_t qmin, r.U64());
    m.options.index.quantized_min_rows = static_cast<size_t>(qmin);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t qbits, r.U64());
    if (qbits != 8 && qbits != 4) {
      return Status::ParseError(
          "sharded index manifest carries quantized code width " +
          std::to_string(qbits) + " bits; this reader supports 8 or 4");
    }
    m.options.index.quant_bits = static_cast<size_t>(qbits);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t precision, r.U64());
    if (precision != static_cast<uint64_t>(ExactPrecision::kF64) &&
        precision != static_cast<uint64_t>(ExactPrecision::kF32)) {
      return Status::ParseError(
          "sharded index manifest carries exact precision tag " +
          std::to_string(precision) + "; this reader supports f64 (1) "
          "or f32 (2)");
    }
    m.options.index.exact_precision = static_cast<ExactPrecision>(precision);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t threads, r.U64());
    m.options.index.parallel.max_threads = static_cast<size_t>(threads);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t grain, r.U64());
    m.options.index.parallel.grain = static_cast<size_t>(grain);
    // The options' shard count must be the file's: a manifest whose two
    // counts disagree (or whose options name 0 shards) would rebuild
    // into a different layout than the one it describes.
    MOCEMG_ASSIGN_OR_RETURN(uint64_t shards_opt, r.U64());
    if (shards_opt != m.num_shards) {
      return Status::ParseError(
          "sharded index manifest options name " +
          std::to_string(shards_opt) + " shards but the manifest holds " +
          std::to_string(m.num_shards));
    }
    m.options.num_shards = static_cast<size_t>(shards_opt);
    m.shard_epochs.resize(m.num_shards);
    for (uint64_t& e : m.shard_epochs) {
      MOCEMG_ASSIGN_OR_RETURN(e, r.U64());
    }
    MOCEMG_ASSIGN_OR_RETURN(uint64_t ref_rows, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t ref_cols, r.U64());
    if (ref_cols != m.dim || ref_rows > m.n_records) {
      return Status::ParseError(
          "sharded index manifest references shape invalid");
    }
    m.num_partitions = ref_rows;
    MOCEMG_ASSIGN_OR_RETURN(std::vector<double> refs,
                            r.Doubles(ref_rows * ref_cols));
    if (refs.size() != ref_rows * ref_cols) {
      return Status::ParseError(
          "sharded index manifest references size mismatch");
    }
    m.references = Matrix(static_cast<size_t>(ref_rows),
                          static_cast<size_t>(ref_cols));
    m.references.mutable_data() = std::move(refs);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t map_len, r.U64());
    if (map_len != m.n_records) {
      return Status::ParseError(
          "sharded index manifest record map length mismatch");
    }
    m.record_to_partition.resize(static_cast<size_t>(map_len));
    for (uint32_t& v : m.record_to_partition) {
      MOCEMG_ASSIGN_OR_RETURN(uint64_t x, r.U64());
      if (x >= m.num_partitions) {
        return Status::ParseError(
            "sharded index manifest record maps to a partition out of "
            "range");
      }
      v = static_cast<uint32_t>(x);
    }
    m.digests.resize(m.num_shards);
    for (auto& [dsize, dsum] : m.digests) {
      MOCEMG_ASSIGN_OR_RETURN(dsize, r.U64());
      MOCEMG_ASSIGN_OR_RETURN(dsum, r.U64());
    }
    if (!r.exhausted()) {
      return Status::ParseError(
          "sharded index manifest has trailing bytes");
    }
    return m;
  }

  /// Loads and validates one shard file against the manifest — magic,
  /// length, checksum, the manifest's recorded digest (a shard file
  /// from another save generation fails here), the shard id, its
  /// epoch, and the exact membership the manifest's record map
  /// derives. On success installs the partitions into `set`.
  static Status LoadShardInto(
      const std::string& path, size_t shard, const ShardedManifest& m,
      const Matrix& shard_refs,
      const std::vector<std::vector<size_t>>& shard_members,
      IndexPartitionSet* set) {
    MOCEMG_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    MOCEMG_ASSIGN_OR_RETURN(
        FramedPayload window,
        UnframeSnapshot(bytes, kShardPrefix, "shard snapshot"));
    // The digest covers the payload bytes, mirror blocks included — a
    // shard file from another save generation fails here before any of
    // its fields are trusted.
    if (window.size != m.digests[shard].first ||
        Fnv1a64(window.payload, window.size) != m.digests[shard].second) {
      return Status::ParseError(
          "shard snapshot does not match the manifest's digest (stale "
          "or cross-generation file)");
    }
    Reader r(window.payload, window.size);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t id, r.U64());
    if (id != shard) {
      return Status::ParseError("shard snapshot carries the wrong shard id");
    }
    MOCEMG_ASSIGN_OR_RETURN(uint64_t epoch, r.U64());
    if (epoch != m.shard_epochs[shard]) {
      return Status::ParseError(
          "shard snapshot epoch does not match the manifest");
    }
    MOCEMG_ASSIGN_OR_RETURN(uint64_t num_local, r.U64());
    if (num_local != shard_members.size()) {
      return Status::ParseError(
          "shard snapshot partition count does not match the manifest "
          "layout");
    }
    std::vector<IndexPartitionSet::Partition> parts(
        static_cast<size_t>(num_local));
    for (size_t i = 0; i < parts.size(); ++i) {
      MOCEMG_RETURN_NOT_OK(
          ReadPartition(&r, m.n_records, m.dim, &parts[i]));
      if (parts[i].record_indices != shard_members[i]) {
        return Status::ParseError(
            "shard snapshot membership does not match the manifest "
            "layout");
      }
    }
    if (!r.exhausted()) {
      return Status::ParseError("shard snapshot has trailing bytes");
    }
    set->references_ = shard_refs;
    set->partitions_ = std::move(parts);
    set->RefreshDerived();
    return Status::OK();
  }

  /// Builds a ShardedFeatureIndex from a parsed manifest, loading each
  /// shard file and — when `allow_repack` and the manifest is fresh —
  /// repacking any shard that fails validation from the manifest's
  /// layout (bit-identical to the lost shard, since packing is a pure
  /// function of layout + database rows).
  static Result<ShardedFeatureIndex> AssembleSharded(
      const ShardedManifest& m, const MotionDatabase* database,
      const std::string& path, bool allow_repack,
      ShardedSnapshotLoadInfo* info) {
    // Derive every partition's membership from the record map once.
    std::vector<std::vector<size_t>> members(
        static_cast<size_t>(m.num_partitions));
    for (size_t rec = 0; rec < m.record_to_partition.size(); ++rec) {
      members[m.record_to_partition[rec]].push_back(rec);
    }
    for (size_t p = 0; p < members.size(); ++p) {
      if (members[p].empty()) {
        return Status::ParseError(
            "sharded index manifest has an empty partition");
      }
    }
    ShardedFeatureIndex index;
    index.database_ = database;
    index.options_ = m.options;
    index.applied_epoch_ = m.applied_epoch;
    index.shard_epochs_ = m.shard_epochs;
    index.record_to_partition_ = m.record_to_partition;
    index.global_references_ = m.references;
    index.shards_.assign(static_cast<size_t>(m.num_shards),
                         IndexPartitionSet{});
    for (size_t s = 0; s < index.shards_.size(); ++s) {
      Matrix refs(0, static_cast<size_t>(m.dim));
      std::vector<std::vector<size_t>> shard_members;
      for (size_t p = s; p < members.size(); p += index.shards_.size()) {
        MOCEMG_RETURN_NOT_OK(
            refs.AppendRows(m.references.RowSlice(p, p + 1)));
        shard_members.push_back(members[p]);
      }
      Status st = LoadShardInto(ShardFilePath(path, s), s, m, refs,
                                shard_members, &index.shards_[s]);
      if (st.ok()) continue;
      if (!allow_repack) {
        return st.WithContext("loading shard " + std::to_string(s) +
                              " of " + path);
      }
      // Partial recovery: the manifest is fresh (the caller checked
      // the applied epoch against the database), so repacking from the
      // database's current rows reproduces exactly the bytes the lost
      // shard file held.
      MOCEMG_LOG(kWarning)
          << "shard " << s << " of " << path
          << " unusable, repacking from the manifest layout: "
          << st.ToString();
      MOCEMG_RETURN_NOT_OK(index.shards_[s].Pack(*database, refs,
                                                 shard_members,
                                                 m.options.index));
      if (info != nullptr) {
        info->rebuilt_shards.push_back(s);
        if (info->fallback_reason.empty()) {
          info->fallback_reason = "shard " + std::to_string(s) + ": " +
                                  st.ToString();
        }
      }
    }
    return index;
  }
};

Status SaveShardedFeatureIndex(const ShardedFeatureIndex& index,
                               const std::string& path) {
  if (index.num_shards() == 0 || index.num_partitions() == 0) {
    return Status::FailedPrecondition(
        "cannot snapshot a sharded index that has not been built");
  }
  // Shard files first, manifest last: a crash mid-save leaves the old
  // manifest in charge, and any shard file it no longer matches fails
  // its digest check at load and repacks.
  std::vector<std::pair<uint64_t, uint64_t>> digests;
  digests.reserve(index.num_shards());
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const std::string payload = IndexSnapshotCodec::SerializeShard(index, s);
    digests.emplace_back(payload.size(),
                         Fnv1a64(payload.data(), payload.size()));
    MOCEMG_RETURN_NOT_OK(WriteSnapshotFile(
        ShardFilePath(path, s),
        FrameSnapshot(kShardMagic, payload)));
  }
  const std::string manifest =
      IndexSnapshotCodec::SerializeManifest(index, digests);
  return WriteSnapshotFile(
      path, FrameSnapshot(kManifestMagic, manifest));
}

Result<ShardedFeatureIndex> LoadShardedFeatureIndex(
    const std::string& path, const MotionDatabase* database) {
  if (database == nullptr) {
    return Status::InvalidArgument("database must not be null");
  }
  MOCEMG_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  auto window =
      UnframeSnapshot(bytes, kManifestPrefix, "sharded index manifest");
  if (!window.ok()) {
    return window.status().WithContext("loading sharded index manifest " +
                                       path);
  }
  auto manifest = IndexSnapshotCodec::ParseManifest(
      window->payload, window->size, database);
  if (!manifest.ok()) {
    return manifest.status().WithContext("loading sharded index manifest " +
                                         path);
  }
  return IndexSnapshotCodec::AssembleSharded(*manifest, database, path,
                                             /*allow_repack=*/false,
                                             nullptr);
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

  // The manifest must be readable, valid, and *fresh* (applied epoch ==
  // database epoch) for the per-shard recovery path to be sound — a
  // repacked shard takes its bytes from the database's current rows.
  Result<ShardedFeatureIndex> attempt = [&]() -> Result<ShardedFeatureIndex> {
    MOCEMG_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    MOCEMG_ASSIGN_OR_RETURN(
        FramedPayload window,
        UnframeSnapshot(bytes, kManifestPrefix,
                        "sharded index manifest"));
    MOCEMG_ASSIGN_OR_RETURN(
        ShardedManifest manifest,
        IndexSnapshotCodec::ParseManifest(window.payload, window.size,
                                          database));
    if (manifest.applied_epoch != database->epoch()) {
      return Status::FailedPrecondition(
          "manifest applied epoch " +
          std::to_string(manifest.applied_epoch) +
          " but database is at epoch " +
          std::to_string(database->epoch()));
    }
    return IndexSnapshotCodec::AssembleSharded(manifest, database, path,
                                               /*allow_repack=*/true, out);
  }();
  if (attempt.ok()) {
    out->loaded_from_snapshot = out->rebuilt_shards.empty();
    return attempt;
  }
  out->rebuilt_shards.clear();
  out->fallback_reason = attempt.status().ToString();
  MOCEMG_LOG(kWarning) << "sharded index snapshot " << path
                       << " unusable, rebuilding from database: "
                       << out->fallback_reason;
  MOCEMG_ASSIGN_OR_RETURN(
      ShardedFeatureIndex rebuilt,
      ShardedFeatureIndex::Build(database, rebuild_options));
  out->rebuilt = true;
  return rebuilt;
}

}  // namespace mocemg
