#include "db/index_snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "db/serving_faults.h"
#include "db/sharded_index.h"
#include "util/csv.h"
#include "util/random.h"

namespace mocemg {
namespace {

MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 4;
    r.label_name = "class" + std::to_string(r.label);
    r.feature.resize(dim);
    const double cx = static_cast<double>(i % 4) * 20.0;
    for (size_t j = 0; j < dim; ++j) {
      r.feature[j] = (j == 0 ? cx : 0.0) + rng.Gaussian(0, 1.0);
    }
    EXPECT_TRUE(db.Insert(std::move(r)).ok());
  }
  return db;
}

/// Four partitions, so a degraded answer's partition budget leaves
/// some out and its bound is exercised.
FeatureIndexOptions FourPartitionOptions() {
  FeatureIndexOptions opts;
  opts.num_partitions = 4;
  return opts;
}

/// Mirrored fp32 options: every partition carries the fp32 mirror.
FeatureIndexOptions F32Options() {
  FeatureIndexOptions opts;
  opts.num_partitions = 4;
  opts.exact_precision = ExactPrecision::kF32;
  return opts;
}

/// The default one-shard index with the given layout/scan options.
Result<ShardedFeatureIndex> BuildIndex(const MotionDatabase* db,
                                       const FeatureIndexOptions& options) {
  ShardedIndexOptions sharded;
  sharded.index = options;
  return ShardedFeatureIndex::Build(db, sharded);
}

constexpr size_t kHeader = 10 + 16;  // magic + payload size + checksum

uint64_t TestFnv(const char* data, size_t n) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void PutU64At(std::string* s, size_t off, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*s)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint64_t U64At(const std::string& s, size_t off) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= uint64_t(static_cast<unsigned char>(s[off + i])) << (8 * i);
  }
  return v;
}

/// Frames `payload` under the given 10-byte magic with a consistent
/// length + checksum header, so parse attempts reach the payload
/// readers instead of failing at the frame.
std::string TestFrame(const std::string& magic, const char* payload,
                      size_t n) {
  std::string out = magic;
  uint64_t fields[2] = {n, TestFnv(payload, n)};
  for (uint64_t v : fields) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  out.append(payload, n);
  return out;
}

std::string ReadBytes(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

/// The manifest followed by every shard file, as one byte string.
std::string SnapshotBytes(const std::string& path, size_t num_shards) {
  std::string out = ReadBytes(path);
  for (size_t s = 0; s < num_shards; ++s) {
    out += ReadBytes(path + ".shard" + std::to_string(s));
  }
  return out;
}

void RemoveSnapshot(const std::string& path, size_t num_shards) {
  std::remove(path.c_str());
  for (size_t s = 0; s < num_shards; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

/// Writes `payload` as shard `shard`'s file under a consistent frame
/// and rewrites the manifest's digest for it (the manifest payload
/// ends with one (size, checksum) pair per shard), so a load reaches
/// the shard's field readers instead of stopping at the digest check.
void InstallForgedShard(const std::string& path, size_t shard,
                        size_t num_shards, const std::string& payload) {
  std::string manifest = ReadBytes(path);
  std::string body = manifest.substr(kHeader);
  const size_t digest_off = body.size() - (num_shards - shard) * 16;
  PutU64At(&body, digest_off, payload.size());
  PutU64At(&body, digest_off + 8, TestFnv(payload.data(), payload.size()));
  ASSERT_TRUE(WriteStringToFile(path, TestFrame(manifest.substr(0, 10),
                                                body.data(), body.size()))
                  .ok());
  ASSERT_TRUE(WriteStringToFile(path + ".shard" + std::to_string(shard),
                                TestFrame("MOCEMGSH5\n", payload.data(),
                                          payload.size()))
                  .ok());
}

std::vector<std::vector<double>> MakeQueries(size_t n, size_t dim,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> queries(n);
  for (auto& q : queries) {
    q.resize(dim);
    for (double& v : q) v = rng.Gaussian(10.0, 15.0);
  }
  return queries;
}

void ExpectHitsEqual(const std::vector<QueryHit>& a,
                     const std::vector<QueryHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record_index, b[i].record_index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

/// Exact and budgeted answers (and the budgeted bound) of `a` and `b`
/// agree bit for bit.
void ExpectAnswersEqual(const ShardedFeatureIndex& a,
                        const ShardedFeatureIndex& b, size_t dim,
                        uint64_t seed) {
  for (const auto& q : MakeQueries(10, dim, seed)) {
    auto ha = a.NearestNeighbors(q, 5);
    auto hb = b.NearestNeighbors(q, 5);
    ASSERT_TRUE(ha.ok());
    ASSERT_TRUE(hb.ok());
    ExpectHitsEqual(*ha, *hb);
    std::vector<double> bound_a, bound_b;
    auto ca = a.BatchBudgetedNearestNeighbors({q}, 5, &bound_a);
    auto cb = b.BatchBudgetedNearestNeighbors({q}, 5, &bound_b);
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(cb.ok());
    ExpectHitsEqual((*ca)[0], (*cb)[0]);
    EXPECT_EQ(bound_a, bound_b);
  }
}

void ExpectMatchesLinearScan(const ShardedFeatureIndex& index,
                             const MotionDatabase& db, size_t dim,
                             uint64_t seed) {
  for (const auto& q : MakeQueries(6, dim, seed)) {
    auto a = index.NearestNeighbors(q, 3);
    auto b = db.NearestNeighbors(q, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
}

TEST(IndexSnapshotTest, SerializeRequiresBuiltIndex) {
  ShardedFeatureIndex empty;
  const std::string path = ::testing::TempDir() + "/idx_unbuilt";
  Status saved = SaveShardedFeatureIndex(empty, path);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ReadFileToString(path).ok()) << "nothing may be written";
}

// The round trip must be bit-exact: a reloaded index re-saves to the
// same bytes, and answers queries — exact AND budgeted — with the same
// bits as the original.
TEST(IndexSnapshotTest, RoundTripBitIdentity) {
  MotionDatabase db = MakeDb(120, 9, 31);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_roundtrip";
  const std::string again = path + "_again";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());

  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->applied_epoch(), index->applied_epoch());
  EXPECT_EQ(loaded->num_shards(), 1u);
  EXPECT_EQ(loaded->num_partitions(), index->num_partitions());
  // The manifest's build options survive the trip.
  const FeatureIndexOptions& saved = index->options().index;
  const FeatureIndexOptions& restored = loaded->options().index;
  EXPECT_EQ(restored.num_partitions, saved.num_partitions);
  EXPECT_EQ(restored.seed, saved.seed);
  EXPECT_EQ(restored.exact_precision, saved.exact_precision);
  EXPECT_EQ(restored.parallel.max_threads, saved.parallel.max_threads);
  EXPECT_EQ(restored.parallel.grain, saved.parallel.grain);

  ASSERT_TRUE(SaveShardedFeatureIndex(*loaded, again).ok());
  EXPECT_EQ(SnapshotBytes(path, 1), SnapshotBytes(again, 1))
      << "reload must re-save byte-for-byte";
  ExpectAnswersEqual(*index, *loaded, 9, 32);
  RemoveSnapshot(path, 1);
  RemoveSnapshot(again, 1);
}

TEST(IndexSnapshotTest, SaveCommitsAtomicallyAndLoads) {
  MotionDatabase db = MakeDb(80, 5, 33);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_snapshot.bin";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  // The temporary staging files must be gone after the commit.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  EXPECT_FALSE(ReadFileToString(path + ".shard0.tmp").ok());
  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->applied_epoch(), db.epoch());
  RemoveSnapshot(path, 1);
}

// A flipped bit anywhere past the magic — in the shard file or in the
// manifest — is caught as a ParseError by the strict load. Recovery
// degrades to a repack (damaged shard, fresh manifest) or a full
// rebuild (damaged manifest), never to wrong answers.
TEST(IndexSnapshotTest, BitFlipCorruptionDetectedAndRecovered) {
  MotionDatabase db = MakeDb(90, 6, 34);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  const std::string path = ::testing::TempDir() + "/idx_bitflip.bin";
  ServingFaultInjector injector(ServingFaultOptions{});

  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  ASSERT_TRUE(injector.CorruptSnapshotBitFlip(path + ".shard0").ok());
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].type, ServingFaultType::kSnapshotBitFlip);
  auto direct = LoadShardedFeatureIndex(path, &db);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kParseError)
      << direct.status();
  ShardedSnapshotLoadInfo info;
  auto repacked = LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
  ASSERT_TRUE(repacked.ok()) << repacked.status();
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_FALSE(info.rebuilt);
  EXPECT_EQ(info.rebuilt_shards, std::vector<size_t>{0});
  ExpectAnswersEqual(*index, *repacked, 6, 35);

  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  ASSERT_TRUE(injector.CorruptSnapshotBitFlip(path).ok());
  direct = LoadShardedFeatureIndex(path, &db);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kParseError)
      << direct.status();
  auto recovered =
      LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
  EXPECT_FALSE(info.fallback_reason.empty());
  EXPECT_EQ(recovered->applied_epoch(), db.epoch());
  ExpectMatchesLinearScan(*recovered, db, 6, 35);
  RemoveSnapshot(path, 1);
}

// A half-written file — shard or manifest — is reported distinctly as
// truncated, and recovery repacks or rebuilds.
TEST(IndexSnapshotTest, TruncationDetectedAndRecovered) {
  MotionDatabase db = MakeDb(70, 4, 36);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  const std::string path = ::testing::TempDir() + "/idx_trunc.bin";
  ServingFaultInjector injector(ServingFaultOptions{});

  for (const std::string& victim : {path + ".shard0", path}) {
    ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
    ASSERT_TRUE(injector.CorruptSnapshotTruncate(victim).ok());
    auto direct = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kParseError)
        << direct.status();
    EXPECT_NE(direct.status().message().find("truncated"),
              std::string::npos)
        << "truncation should be reported distinctly: " << direct.status();

    ShardedSnapshotLoadInfo info;
    auto recovered =
        LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(info.loaded_from_snapshot);
    EXPECT_EQ(info.rebuilt, victim == path) << victim;
    ExpectMatchesLinearScan(*recovered, db, 4, 37);
  }
  RemoveSnapshot(path, 1);
}

TEST(IndexSnapshotTest, MissingFileFallsBackToRebuild) {
  MotionDatabase db = MakeDb(30, 3, 37);
  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(
      ::testing::TempDir() + "/idx_does_not_exist.bin", &db, rebuild,
      &info);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
}

// A snapshot from an older database epoch must not serve silently —
// the strict load keeps the old epoch (so queries fail as stale), and
// the recovery path rebuilds against the current epoch.
TEST(IndexSnapshotTest, StaleEpochTriggersRebuild) {
  MotionDatabase db = MakeDb(60, 4, 38);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_stale.bin";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  ASSERT_TRUE(db.UpdateFeature(0, db.record(1).feature).ok());

  auto strict = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(strict.ok()) << strict.status();
  auto stale = strict->NearestNeighbors(db.record(0).feature, 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
  EXPECT_NE(info.fallback_reason.find("epoch"), std::string::npos);
  EXPECT_EQ(recovered->applied_epoch(), db.epoch());
  RemoveSnapshot(path, 1);
}

TEST(IndexSnapshotTest, DimensionMismatchRejected) {
  MotionDatabase db = MakeDb(40, 5, 39);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_dim.bin";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  MotionDatabase other = MakeDb(40, 7, 40);
  auto loaded = LoadShardedFeatureIndex(path, &other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  RemoveSnapshot(path, 1);
}

// Empty, non-snapshot and zeroed bytes are rejected, whether they sit
// at the manifest path or stand in for a shard file.
TEST(IndexSnapshotTest, GarbageAndShortFilesRejected) {
  MotionDatabase db = MakeDb(20, 3, 41);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_garbage.bin";
  for (const std::string& garbage :
       {std::string(), std::string("not a snapshot"), std::string(64, '\0')}) {
    ASSERT_TRUE(WriteStringToFile(path, garbage).ok());
    EXPECT_FALSE(LoadShardedFeatureIndex(path, &db).ok());
    ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
    ASSERT_TRUE(WriteStringToFile(path + ".shard0", garbage).ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
  RemoveSnapshot(path, 1);
}

// Versions other than 5 — the pre-code-width version 1, the
// pre-fp32-mirror version 2, the version 3 that still carried
// code-width fields and the version 4 that still carried coarse codes
// alike — are refused with the *detected* version
// named and the supported one, so the operator knows to regenerate
// rather than debug. Manifest and shard files both; the boot-time
// recovery path rebuilds from the database instead.
TEST(IndexSnapshotTest, VersionOneMagicRejected) {
  MotionDatabase db = MakeDb(60, 5, 57);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_v1";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string manifest = ReadBytes(path);
  const std::string shard = ReadBytes(path + ".shard0");
  ASSERT_EQ(manifest.compare(0, 10, "MOCEMGSM5\n"), 0);
  ASSERT_EQ(shard.compare(0, 10, "MOCEMGSH5\n"), 0);
  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  for (const char version : {'1', '2', '3', '4'}) {
    std::string old = manifest;
    old[8] = version;
    ASSERT_TRUE(WriteStringToFile(path, old).ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(
                  std::string("container version ") + version),
              std::string::npos)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("supports version 5"),
              std::string::npos)
        << loaded.status();
    ShardedSnapshotLoadInfo info;
    auto recovered =
        LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(info.rebuilt);
    EXPECT_FALSE(info.loaded_from_snapshot);
    EXPECT_NE(info.fallback_reason.find(std::string("container version ") +
                                        version),
              std::string::npos)
        << info.fallback_reason;
    ExpectMatchesLinearScan(*recovered, db, 5, 57);

    ASSERT_TRUE(WriteStringToFile(path, manifest).ok());
    old = shard;
    old[8] = version;
    ASSERT_TRUE(WriteStringToFile(path + ".shard0", old).ok());
    loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find(
                  std::string("container version ") + version),
              std::string::npos)
        << loaded.status();
    ASSERT_TRUE(WriteStringToFile(path + ".shard0", shard).ok());
  }
  RemoveSnapshot(path, 1);
}

// A snapshot from a *newer* writer is refused the same way — named
// version, regeneration hint — never mis-parsed.
TEST(IndexSnapshotTest, FutureVersionRejectedWithDetectedVersion) {
  MotionDatabase db = MakeDb(40, 4, 59);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_v6";
  for (const std::string& victim : {path, path + ".shard0"}) {
    ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
    std::string v6 = ReadBytes(victim);
    v6[8] = '6';
    ASSERT_TRUE(WriteStringToFile(victim, v6).ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("container version 6"),
              std::string::npos)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("regenerate"),
              std::string::npos)
        << loaded.status();
  }
  RemoveSnapshot(path, 1);
}

// A packed block whose row width disagrees with the partition's
// dimension must be rejected even when checksum and manifest digest
// are valid — the size is part of the validated structure, not
// advisory. We forge it by rewriting the double block as ⌈dim/2⌉
// values per row (the count field is the u64 holding rows × dim,
// followed by that many doubles) and re-installing the shard with a
// matching digest.
TEST(IndexSnapshotTest, BlockWidthMismatchRejected) {
  const size_t rows = 60, dim = 5;
  MotionDatabase db = MakeDb(rows, dim, 58);
  FeatureIndexOptions opts = FourPartitionOptions();
  opts.num_partitions = 1;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string path = ::testing::TempDir() + "/idx_width";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string manifest = ReadBytes(path);
  const std::string payload = ReadBytes(path + ".shard0").substr(kHeader);

  const size_t full = rows * dim;
  const size_t narrow = rows * ((dim + 1) / 2);
  bool width_rejected = false;
  for (size_t off = 0; off + 8 + full * 8 <= payload.size(); ++off) {
    if (U64At(payload, off) != full) continue;
    std::string forged = payload.substr(0, off + 8);
    PutU64At(&forged, off, narrow);
    forged.append(payload, off + 8, narrow * 8);
    forged.append(payload, off + 8 + full * 8, std::string::npos);
    ASSERT_TRUE(WriteStringToFile(path, manifest).ok());
    InstallForgedShard(path, 0, 1, forged);
    auto loaded = LoadShardedFeatureIndex(path, &db);
    if (loaded.ok()) continue;
    if (loaded.status().message().find("block size mismatch") !=
        std::string::npos) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
      width_rejected = true;
    }
  }
  EXPECT_TRUE(width_rejected)
      << "no forged block-width mismatch was rejected by the size validation";
  RemoveSnapshot(path, 1);
}

// A snapshot of an fp32-tier index round-trips everything: the resolved
// precision, the mirrors (the reload re-saves byte-for-byte, mirror
// blocks included), and the reload still scans through the fp32 tier —
// with answers bit-identical to the original.
TEST(IndexSnapshotTest, F32MirrorRoundTripBitIdentity) {
  MotionDatabase db = MakeDb(120, 9, 60);
  auto index = BuildIndex(&db, F32Options());
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->options().index.exact_precision, ExactPrecision::kF32);
  const std::string path = ::testing::TempDir() + "/idx_f32";
  const std::string again = path + "_again";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  EXPECT_EQ(ReadBytes(path).compare(0, 10, "MOCEMGSM5\n"), 0);
  EXPECT_EQ(ReadBytes(path + ".shard0").compare(0, 10, "MOCEMGSH5\n"), 0);

  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().index.exact_precision, ExactPrecision::kF32);
  ASSERT_TRUE(SaveShardedFeatureIndex(*loaded, again).ok());
  EXPECT_EQ(SnapshotBytes(path, 1), SnapshotBytes(again, 1))
      << "reload must re-save byte-for-byte, mirrors included";

  IndexQueryStats orig_stats, load_stats;
  for (const auto& q : MakeQueries(12, 9, 61)) {
    auto a = index->NearestNeighbors(q, 5, &orig_stats);
    auto b = loaded->NearestNeighbors(q, 5, &load_stats);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
  EXPECT_GT(orig_stats.f32_scans, 0u) << "fp32 tier never engaged";
  EXPECT_EQ(load_stats.f32_scans, orig_stats.f32_scans);
  EXPECT_EQ(load_stats.f32_refined, orig_stats.f32_refined);
  RemoveSnapshot(path, 1);
  RemoveSnapshot(again, 1);
}

// Every truncation point of a shard payload — partition headers,
// double blocks and the fp32 mirror blocks — re-framed and
// re-digested so the parse reaches the payload readers, is rejected as
// ParseError without reading out of bounds (the asan run enforces no
// over-read). Raw file prefixes (no re-framing) exercise the
// header-level classification: too short for a header, then length
// mismatch. (Named for version 3, which added the fp32 mirror fields;
// it sweeps the current version's payload.)
TEST(IndexSnapshotTest, TruncationSweepVersionThree) {
  MotionDatabase db = MakeDb(40, 4, 66);
  FeatureIndexOptions opts = F32Options();
  opts.num_partitions = 2;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_trunc_sweep";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string manifest = ReadBytes(path);
  const std::string shard = ReadBytes(path + ".shard0");
  const std::string payload = shard.substr(kHeader);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    ASSERT_TRUE(WriteStringToFile(path, manifest).ok());
    InstallForgedShard(path, 0, 1, payload.substr(0, cut));
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok()) << "cut at payload byte " << cut << " of "
                              << payload.size() << " accepted";
    ASSERT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "cut at payload byte " << cut << ": " << loaded.status();
  }
  ASSERT_TRUE(WriteStringToFile(path, manifest).ok());
  for (size_t cut : {size_t{0}, size_t{5}, size_t{10}, size_t{25}, kHeader,
                     shard.size() - 1}) {
    ASSERT_TRUE(
        WriteStringToFile(path + ".shard0", shard.substr(0, cut)).ok());
    EXPECT_FALSE(LoadShardedFeatureIndex(path, &db).ok())
        << "raw prefix of " << cut << " accepted";
  }
  RemoveSnapshot(path, 1);
}

// A forged mirror inside an otherwise valid, checksummed and digested
// shard payload — float block sized for every row but a norms array
// that disagrees — must be rejected by the all-or-nothing mirror
// check, not scanned.
TEST(IndexSnapshotTest, ForgedMirrorCountRejected) {
  MotionDatabase db = MakeDb(30, 3, 68);
  FeatureIndexOptions opts = F32Options();
  opts.num_partitions = 1;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_mirror";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string payload = ReadBytes(path + ".shard0").substr(kHeader);
  // The final field of the payload is norms_f32: count u64 + 30
  // floats. Flip its count to 7 and drop the excess floats.
  const size_t count_off = payload.size() - 8 - 30 * 4;
  ASSERT_EQ(U64At(payload, count_off), 30u);
  std::string forged = payload.substr(0, count_off);
  for (int i = 0; i < 8; ++i) {
    forged.push_back(static_cast<char>(i == 0 ? 7 : 0));
  }
  forged.append(payload, count_off + 8, 7 * 4);
  InstallForgedShard(path, 0, 1, forged);
  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_FALSE(loaded.ok()) << "forged mirror accepted";
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("mirror malformed"),
            std::string::npos)
      << loaded.status();
  RemoveSnapshot(path, 1);
}

ShardedIndexOptions FourPartitionShardedOptions(size_t shards) {
  ShardedIndexOptions opts;
  opts.index = FourPartitionOptions();
  opts.num_shards = shards;
  return opts;
}

TEST(ShardedSnapshotTest, SaveRequiresBuiltIndex) {
  ShardedFeatureIndex empty;
  EXPECT_FALSE(
      SaveShardedFeatureIndex(empty, ::testing::TempDir() + "/sh_nope")
          .ok());
}

TEST(ShardedSnapshotTest, RoundTripBitIdentity) {
  MotionDatabase db = MakeDb(150, 8, 42);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(3));
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/sh_roundtrip";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());

  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_shards(), index->num_shards());
  EXPECT_EQ(loaded->num_partitions(), index->num_partitions());
  EXPECT_EQ(loaded->applied_epoch(), index->applied_epoch());
  EXPECT_EQ(loaded->shard_epochs(), index->shard_epochs());
  ExpectAnswersEqual(*index, *loaded, 8, 43);

  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

// The sharded save/load cycle preserves the fp32 tier: the reloaded
// shards carry their mirrors (the digest covers them), the precision
// survives in the manifest, and answers stay bit-identical — with the
// fp32 tier demonstrably engaged on both sides.
TEST(ShardedSnapshotTest, F32RoundTripBitIdentity) {
  MotionDatabase db = MakeDb(150, 8, 70);
  ShardedIndexOptions opts;
  opts.index = F32Options();
  opts.num_shards = 3;
  auto index = ShardedFeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string path = ::testing::TempDir() + "/sh_f32";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());

  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().index.exact_precision, ExactPrecision::kF32);
  IndexQueryStats orig_stats, load_stats;
  for (const auto& q : MakeQueries(10, 8, 71)) {
    auto a = index->NearestNeighbors(q, 5, &orig_stats);
    auto b = loaded->NearestNeighbors(q, 5, &load_stats);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
  EXPECT_GT(orig_stats.f32_scans, 0u) << "fp32 tier never engaged";
  EXPECT_EQ(load_stats.f32_scans, orig_stats.f32_scans);
  EXPECT_EQ(load_stats.f32_refined, orig_stats.f32_refined);

  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

// Payload truncations of the manifest — re-framed so the header is
// consistent and the parse reaches the field readers — are always
// rejected; the strict loader never assembles an index from them.
TEST(ShardedSnapshotTest, ManifestTruncationSweepRejected) {
  MotionDatabase db = MakeDb(60, 4, 72);
  ShardedIndexOptions opts;
  opts.index = F32Options();
  opts.index.num_partitions = 2;
  opts.num_shards = 2;
  auto index = ShardedFeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string path = ::testing::TempDir() + "/sh_trunc_sweep";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  auto manifest = ReadFileToString(path);
  ASSERT_TRUE(manifest.ok());
  const size_t kHeader = 10 + 16;
  const char* payload = manifest->data() + kHeader;
  const size_t payload_size = manifest->size() - kHeader;
  // Stride 8 keeps the file-per-cut I/O bounded while still landing on
  // every u64 field boundary; the tail is swept byte-by-byte to hit
  // the digest block's interior.
  for (size_t cut = 0; cut < payload_size;
       cut += (payload_size - cut <= 40 ? 1 : 8)) {
    const std::string forged =
        TestFrame(manifest->substr(0, 10), payload, cut);
    ASSERT_TRUE(WriteStringToFile(path, forged).ok());
    EXPECT_FALSE(LoadShardedFeatureIndex(path, &db).ok())
        << "manifest cut at payload byte " << cut << " accepted";
  }
  std::remove(path.c_str());
  for (size_t s = 0; s < 2; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

// One corrupted shard file repacks only that shard — the manifest
// carries the layout, so k-means is not re-run and the other shards
// load untouched.
TEST(ShardedSnapshotTest, SingleShardCorruptionRepacksOnlyThatShard) {
  MotionDatabase db = MakeDb(140, 7, 44);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(3));
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/sh_oneshard";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());

  ServingFaultInjector injector(ServingFaultOptions{});
  ASSERT_TRUE(injector.CorruptSnapshotBitFlip(path + ".shard1").ok());

  // Strict load refuses the damaged generation outright.
  EXPECT_FALSE(LoadShardedFeatureIndex(path, &db).ok());

  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(
      path, &db, FourPartitionShardedOptions(3), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_FALSE(info.rebuilt) << "a shard repack is not a full rebuild";
  ASSERT_EQ(info.rebuilt_shards.size(), 1u);
  EXPECT_EQ(info.rebuilt_shards[0], 1u);
  EXPECT_FALSE(info.fallback_reason.empty());
  ExpectAnswersEqual(*index, *recovered, 7, 45);

  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

TEST(ShardedSnapshotTest, MissingShardFileRepacked) {
  MotionDatabase db = MakeDb(100, 6, 46);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(2));
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/sh_missing";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  ASSERT_EQ(std::remove((path + ".shard0").c_str()), 0);

  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(
      path, &db, FourPartitionShardedOptions(2), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(info.rebuilt);
  ASSERT_EQ(info.rebuilt_shards.size(), 1u);
  EXPECT_EQ(info.rebuilt_shards[0], 0u);
  ExpectAnswersEqual(*index, *recovered, 6, 47);

  std::remove(path.c_str());
  std::remove((path + ".shard1").c_str());
}

// An unusable manifest can't vouch for any shard file: the whole
// index rebuilds from the database.
TEST(ShardedSnapshotTest, ManifestCorruptionTriggersFullRebuild) {
  MotionDatabase db = MakeDb(110, 6, 48);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(3));
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/sh_manifest";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());

  ServingFaultInjector injector(ServingFaultOptions{});
  ASSERT_TRUE(injector.CorruptSnapshotTruncate(path).ok());

  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(
      path, &db, FourPartitionShardedOptions(3), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
  EXPECT_TRUE(info.rebuilt_shards.empty());
  EXPECT_FALSE(info.fallback_reason.empty());
  ExpectAnswersEqual(*index, *recovered, 6, 49);

  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

// A manifest from an older database epoch must not serve silently.
TEST(ShardedSnapshotTest, StaleEpochTriggersFullRebuild) {
  MotionDatabase db = MakeDb(90, 5, 50);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(2));
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/sh_stale";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  ASSERT_TRUE(db.UpdateFeature(0, db.record(1).feature).ok());

  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(
      path, &db, FourPartitionShardedOptions(2), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(info.rebuilt);
  EXPECT_NE(info.fallback_reason.find("epoch"), std::string::npos)
      << info.fallback_reason;
  EXPECT_EQ(recovered->applied_epoch(), db.epoch());
  for (const auto& q : MakeQueries(6, 5, 51)) {
    auto a = recovered->NearestNeighbors(q, 3);
    auto b = db.NearestNeighbors(q, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }

  std::remove(path.c_str());
  for (size_t s = 0; s < 2; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

// A shard file swapped in from a different save generation carries a
// valid checksum of its own, but the manifest's digest disowns it.
TEST(ShardedSnapshotTest, CrossGenerationShardFileRejected) {
  MotionDatabase db = MakeDb(120, 6, 52);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(2));
  ASSERT_TRUE(index.ok());
  const std::string path_a = ::testing::TempDir() + "/sh_gen_a";
  const std::string path_b = ::testing::TempDir() + "/sh_gen_b";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path_a).ok());
  // A second generation over a mutated database: same shapes, but the
  // mutated record's owning shard packs to new bytes.
  ASSERT_TRUE(db.UpdateFeature(3, db.record(4).feature).ok());
  ASSERT_TRUE(index->ApplyUpdate(3).ok());
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path_b).ok());
  auto owner = index->ShardOfRecord(3);
  ASSERT_TRUE(owner.ok());
  const std::string spliced =
      ".shard" + std::to_string(*owner);
  // Splice generation A's copy of that shard under B's manifest.
  auto old_shard = ReadFileToString(path_a + spliced);
  ASSERT_TRUE(old_shard.ok());
  ASSERT_TRUE(WriteStringToFile(path_b + spliced, *old_shard).ok());

  EXPECT_FALSE(LoadShardedFeatureIndex(path_b, &db).ok());
  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(
      path_b, &db, FourPartitionShardedOptions(2), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(info.rebuilt);
  ASSERT_EQ(info.rebuilt_shards.size(), 1u);
  EXPECT_EQ(info.rebuilt_shards[0], *owner);
  ExpectAnswersEqual(*index, *recovered, 6, 53);

  for (const std::string& p : {path_a, path_b}) {
    std::remove(p.c_str());
    for (size_t s = 0; s < 2; ++s) {
      std::remove((p + ".shard" + std::to_string(s)).c_str());
    }
  }
}

// The manifest stores the build options' shard count next to the
// number of shard files it describes. A manifest whose two counts
// disagree — or whose options claim 0 shards — would rebuild into a
// different layout than the one it describes, so the reader refuses it
// even under a valid checksum.
TEST(ShardedSnapshotTest, ManifestShardCountMismatchRejected) {
  MotionDatabase db = MakeDb(80, 5, 54);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(2));
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/sh_count";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string manifest = ReadBytes(path);
  // Payload u64 fields: applied epoch, dim, records, shard count, then
  // the options (num_partitions, seed, exact_precision, max_threads,
  // grain, num_shards).
  const size_t shards_opt_off = kHeader + 9 * 8;
  ASSERT_EQ(U64At(manifest, kHeader + 3 * 8), 2u);
  ASSERT_EQ(U64At(manifest, shards_opt_off), 2u);
  for (uint64_t forged_count : {0u, 1u, 3u}) {
    std::string body = manifest.substr(kHeader);
    PutU64At(&body, shards_opt_off - kHeader, forged_count);
    ASSERT_TRUE(WriteStringToFile(
                    path, TestFrame(manifest.substr(0, 10), body.data(),
                                    body.size()))
                    .ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok()) << "options shard count " << forged_count;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("shards"), std::string::npos)
        << loaded.status();
  }
  ASSERT_TRUE(WriteStringToFile(path, manifest).ok());
  EXPECT_TRUE(LoadShardedFeatureIndex(path, &db).ok());
  RemoveSnapshot(path, 2);
}

}  // namespace
}  // namespace mocemg
