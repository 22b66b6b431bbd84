#include "db/index_snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "db/serving_faults.h"
#include "db/sharded_index.h"
#include "util/csv.h"
#include "util/logging.h"
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

/// Re-frames a snapshot file's bytes around `payload`.
std::string Reframe(const std::string& file, const std::string& payload) {
  return TestFrame(file.substr(0, 10), payload.data(), payload.size());
}

std::string ReadBytes(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
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

void ExpectStatsEqual(const IndexQueryStats& a, const IndexQueryStats& b) {
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.partitions_visited, b.partitions_visited);
  EXPECT_EQ(a.partitions_pruned, b.partitions_pruned);
  EXPECT_EQ(a.f32_scans, b.f32_scans);
  EXPECT_EQ(a.f32_refined, b.f32_refined);
}

/// Exact and budgeted answers, the budgeted bounds, and the scan stats
/// (total and per shard) of `a` and `b` agree bit for bit. A snapshot
/// holds no packed blocks, so this — not the file bytes — is what
/// proves a load packed the same index.
void ExpectAnswersEqual(const ShardedFeatureIndex& a,
                        const ShardedFeatureIndex& b, size_t dim,
                        uint64_t seed) {
  const auto queries = MakeQueries(10, dim, seed);
  IndexQueryStats stats_a, stats_b;
  std::vector<IndexQueryStats> shards_a, shards_b;
  for (const auto& q : queries) {
    auto ha = a.NearestNeighbors(q, 5, &stats_a, &shards_a);
    auto hb = b.NearestNeighbors(q, 5, &stats_b, &shards_b);
    ASSERT_TRUE(ha.ok()) << ha.status();
    ASSERT_TRUE(hb.ok()) << hb.status();
    ExpectHitsEqual(*ha, *hb);
    ASSERT_EQ(shards_a.size(), shards_b.size());
    for (size_t s = 0; s < shards_a.size(); ++s) {
      ExpectStatsEqual(shards_a[s], shards_b[s]);
    }
  }
  ExpectStatsEqual(stats_a, stats_b);

  std::vector<double> bound_a, bound_b;
  IndexQueryStats budget_a, budget_b;
  auto ca = a.BatchBudgetedNearestNeighbors(queries, 5, &bound_a, &budget_a,
                                            &shards_a);
  auto cb = b.BatchBudgetedNearestNeighbors(queries, 5, &bound_b, &budget_b,
                                            &shards_b);
  ASSERT_TRUE(ca.ok()) << ca.status();
  ASSERT_TRUE(cb.ok()) << cb.status();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectHitsEqual((*ca)[i], (*cb)[i]);
  }
  EXPECT_EQ(bound_a, bound_b);
  ExpectStatsEqual(budget_a, budget_b);
  ASSERT_EQ(shards_a.size(), shards_b.size());
  for (size_t s = 0; s < shards_a.size(); ++s) {
    ExpectStatsEqual(shards_a[s], shards_b[s]);
  }
}

void ExpectMatchesLinearScan(const ShardedFeatureIndex& index,
                             const MotionDatabase& db, size_t dim,
                             uint64_t seed) {
  for (const auto& q : MakeQueries(6, dim, seed)) {
    auto a = index.NearestNeighbors(q, 3);
    auto b = db.NearestNeighbors(q, 3);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
}

/// Saves `index`, strictly reloads it, and checks the reload keeps the
/// shape, epochs and build options, re-saves to the same single file,
/// and answers like the original.
void ExpectRoundTrip(const ShardedFeatureIndex& index,
                     const MotionDatabase& db, const std::string& path,
                     uint64_t seed) {
  const std::string again = path + "_again";
  ASSERT_TRUE(SaveShardedFeatureIndex(index, path).ok());
  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_shards(), index.num_shards());
  EXPECT_EQ(loaded->num_partitions(), index.num_partitions());
  EXPECT_EQ(loaded->applied_epoch(), index.applied_epoch());
  EXPECT_EQ(loaded->shard_epochs(), index.shard_epochs());
  const FeatureIndexOptions& saved = index.options().index;
  const FeatureIndexOptions& restored = loaded->options().index;
  EXPECT_EQ(loaded->options().num_shards, index.options().num_shards);
  EXPECT_EQ(restored.num_partitions, saved.num_partitions);
  EXPECT_EQ(restored.seed, saved.seed);
  EXPECT_EQ(restored.exact_precision, saved.exact_precision);
  EXPECT_EQ(restored.parallel.max_threads, saved.parallel.max_threads);
  EXPECT_EQ(restored.parallel.grain, saved.parallel.grain);

  ASSERT_TRUE(SaveShardedFeatureIndex(*loaded, again).ok());
  EXPECT_EQ(ReadBytes(path), ReadBytes(again))
      << "reload must re-save byte-for-byte";
  EXPECT_FALSE(ReadFileToString(path + ".shard0").ok())
      << "a save writes exactly one file";
  ExpectAnswersEqual(index, *loaded, db.feature_dimension(), seed);
  std::remove(path.c_str());
  std::remove(again.c_str());
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
// bits and the same scan stats as the original.
TEST(IndexSnapshotTest, RoundTripBitIdentity) {
  MotionDatabase db = MakeDb(120, 9, 31);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  ExpectRoundTrip(*index, db, ::testing::TempDir() + "/idx_roundtrip", 32);
}

TEST(IndexSnapshotTest, SaveCommitsAtomicallyAndLoads) {
  MotionDatabase db = MakeDb(80, 5, 33);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_snapshot.bin";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  // The temporary staging file must be gone after the commit.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->applied_epoch(), db.epoch());
  std::remove(path.c_str());
}

// A flipped bit anywhere past the magic is caught as a ParseError by
// the strict load. Recovery degrades to a full rebuild, never to wrong
// answers.
TEST(IndexSnapshotTest, BitFlipCorruptionDetectedAndRecovered) {
  MotionDatabase db = MakeDb(90, 6, 34);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  const std::string path = ::testing::TempDir() + "/idx_bitflip.bin";
  ServingFaultInjector injector(ServingFaultOptions{});

  for (size_t round = 0; round < 2; ++round) {
    ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
    ASSERT_TRUE(injector.CorruptSnapshotBitFlip(path).ok());
    ASSERT_EQ(injector.events().size(), round + 1);
    EXPECT_EQ(injector.events()[round].type,
              ServingFaultType::kSnapshotBitFlip);
    auto direct = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kParseError)
        << direct.status();
    ShardedSnapshotLoadInfo info;
    auto recovered =
        LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_FALSE(info.loaded_from_snapshot);
    EXPECT_FALSE(info.fallback_reason.empty());
    EXPECT_EQ(recovered->applied_epoch(), db.epoch());
    ExpectMatchesLinearScan(*recovered, db, 6, 35);
  }
  std::remove(path.c_str());
}

// A half-written file is reported distinctly as truncated, and
// recovery rebuilds.
TEST(IndexSnapshotTest, TruncationDetectedAndRecovered) {
  MotionDatabase db = MakeDb(70, 4, 36);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  const std::string path = ::testing::TempDir() + "/idx_trunc.bin";
  ServingFaultInjector injector(ServingFaultOptions{});

  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  ASSERT_TRUE(injector.CorruptSnapshotTruncate(path).ok());
  auto direct = LoadShardedFeatureIndex(path, &db);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kParseError)
      << direct.status();
  EXPECT_NE(direct.status().message().find("truncated"), std::string::npos)
      << "truncation should be reported distinctly: " << direct.status();

  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_NE(info.fallback_reason.find("truncated"), std::string::npos)
      << info.fallback_reason;
  ExpectMatchesLinearScan(*recovered, db, 4, 37);
  std::remove(path.c_str());
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
  EXPECT_FALSE(info.fallback_reason.empty());
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
  EXPECT_EQ(strict->applied_epoch(), index->applied_epoch());
  auto stale = strict->NearestNeighbors(db.record(0).feature, 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  ShardedSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_NE(info.fallback_reason.find("epoch"), std::string::npos);
  EXPECT_EQ(recovered->applied_epoch(), db.epoch());
  std::remove(path.c_str());
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
  std::remove(path.c_str());
}

// Empty, non-snapshot and zeroed bytes are rejected as ParseError.
TEST(IndexSnapshotTest, GarbageAndShortFilesRejected) {
  MotionDatabase db = MakeDb(20, 3, 41);
  const std::string path = ::testing::TempDir() + "/idx_garbage.bin";
  for (const std::string& garbage :
       {std::string(), std::string("not a snapshot"), std::string(64, '\0')}) {
    ASSERT_TRUE(WriteStringToFile(path, garbage).ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
  std::remove(path.c_str());
}

// Versions other than 6 — from the pre-code-width version 1 to the
// version 5 that stored packed blocks in per-shard files — are refused
// with the *detected* version named and the supported one, so the
// operator knows to regenerate rather than debug; the boot-time
// recovery path rebuilds from the database instead.
TEST(IndexSnapshotTest, VersionOneMagicRejected) {
  MotionDatabase db = MakeDb(60, 5, 57);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_v1";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string manifest = ReadBytes(path);
  ASSERT_EQ(manifest.compare(0, 10, "MOCEMGSM6\n"), 0);
  ShardedIndexOptions rebuild;
  rebuild.index = FourPartitionOptions();
  for (const char version : {'1', '2', '3', '4', '5'}) {
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
    EXPECT_NE(loaded.status().message().find("supports version 6"),
              std::string::npos)
        << loaded.status();
    ShardedSnapshotLoadInfo info;
    auto recovered =
        LoadOrRebuildShardedFeatureIndex(path, &db, rebuild, &info);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_FALSE(info.loaded_from_snapshot);
    EXPECT_NE(info.fallback_reason.find(std::string("container version ") +
                                        version),
              std::string::npos)
        << info.fallback_reason;
    ExpectMatchesLinearScan(*recovered, db, 5, 57);
  }
  std::remove(path.c_str());
}

// A snapshot from a *newer* writer is refused the same way — named
// version, regeneration hint — never mis-parsed.
TEST(IndexSnapshotTest, FutureVersionRejectedWithDetectedVersion) {
  MotionDatabase db = MakeDb(40, 4, 59);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_v7";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  std::string v7 = ReadBytes(path);
  v7[8] = '7';
  ASSERT_TRUE(WriteStringToFile(path, v7).ok());
  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("container version 7"),
            std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("regenerate"), std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

// A snapshot of an fp32-tier index round-trips the resolved precision,
// and the reload packs the mirrors again: it re-saves byte-for-byte and
// still scans through the fp32 tier, with answers and stats
// bit-identical to the original.
TEST(IndexSnapshotTest, F32MirrorRoundTripBitIdentity) {
  MotionDatabase db = MakeDb(120, 9, 60);
  auto index = BuildIndex(&db, F32Options());
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->options().index.exact_precision, ExactPrecision::kF32);
  const std::string path = ::testing::TempDir() + "/idx_f32";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  EXPECT_EQ(ReadBytes(path).compare(0, 10, "MOCEMGSM6\n"), 0);

  auto loaded = LoadShardedFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().index.exact_precision, ExactPrecision::kF32);
  IndexQueryStats orig_stats, load_stats;
  for (const auto& q : MakeQueries(12, 9, 61)) {
    auto a = index->NearestNeighbors(q, 5, &orig_stats);
    auto b = loaded->NearestNeighbors(q, 5, &load_stats);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
  EXPECT_GT(orig_stats.f32_scans, 0u) << "fp32 tier never engaged";
  ExpectStatsEqual(orig_stats, load_stats);
  std::remove(path.c_str());
  ExpectRoundTrip(*index, db, path, 62);
}

// Every truncation point of the payload — re-framed so the parse
// reaches the field readers — is rejected as ParseError without reading
// out of bounds (the asan run enforces no over-read). Raw file prefixes
// (no re-framing) exercise the header-level classification: too short
// for a header, then length mismatch. (Named for version 3, which added
// the fp32 mirror fields; it sweeps the current version's payload.)
TEST(IndexSnapshotTest, TruncationSweepVersionThree) {
  MotionDatabase db = MakeDb(40, 4, 66);
  FeatureIndexOptions opts = F32Options();
  opts.num_partitions = 2;
  auto index = BuildIndex(&db, opts);
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_trunc_sweep";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string file = ReadBytes(path);
  const std::string payload = file.substr(kHeader);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    ASSERT_TRUE(
        WriteStringToFile(path, Reframe(file, payload.substr(0, cut))).ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok()) << "cut at payload byte " << cut << " of "
                              << payload.size() << " accepted";
    ASSERT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "cut at payload byte " << cut << ": " << loaded.status();
  }
  for (size_t cut : {size_t{0}, size_t{5}, size_t{10}, size_t{25}, kHeader,
                     file.size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(path, file.substr(0, cut)).ok());
    EXPECT_FALSE(LoadShardedFeatureIndex(path, &db).ok())
        << "raw prefix of " << cut << " accepted";
  }
  std::remove(path.c_str());
}

// A NaN or infinite reference under a valid length and checksum is
// rejected: no Build produces one, and packed, it would give its
// partition a NaN radius and a meaningless prune bound.
TEST(IndexSnapshotTest, NonFiniteReferenceRejected) {
  MotionDatabase db = MakeDb(60, 4, 67);
  auto index = BuildIndex(&db, FourPartitionOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_nan_ref";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string file = ReadBytes(path);
  const std::string payload = file.substr(kHeader);
  // Payload u64 fields: applied epoch, dim, records, shard count, five
  // options, one shard epoch, partition count; the references follow.
  const size_t ref_off = 11 * 8;
  ASSERT_EQ(U64At(payload, ref_off - 8), index->num_partitions());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (size_t ref_elem : {size_t{0}, size_t{5}}) {
      std::string forged = payload;
      uint64_t bits = 0;
      std::memcpy(&bits, &bad, sizeof(bits));
      PutU64At(&forged, ref_off + ref_elem * 8, bits);
      ASSERT_TRUE(WriteStringToFile(path, Reframe(file, forged)).ok());
      auto loaded = LoadShardedFeatureIndex(path, &db);
      ASSERT_FALSE(loaded.ok()) << "non-finite reference " << bad
                                << " at element " << ref_elem << " accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
      EXPECT_NE(loaded.status().message().find("non-finite"),
                std::string::npos)
          << loaded.status();
    }
  }
  std::remove(path.c_str());
}

// The snapshot reader's mutation sweep: every payload byte XOR-ed with
// a seeded nonzero mask, and every payload truncation, each re-framed
// so it passes the length and checksum and reaches the field reader.
// Each case must either fail the strict load, load an index whose exact
// answers equal the linear scan, or load one whose queries fail as
// stale. Whatever the file holds, the boot-time recovery path answers
// like the linear scan.
TEST(IndexSnapshotTest, MutationSweepLoadsOnlyCorrectIndexes) {
  const size_t dim = 3;
  MotionDatabase db = MakeDb(24, dim, 69);
  ShardedIndexOptions opts;
  opts.index.num_partitions = 3;
  opts.num_shards = 2;
  auto index = ShardedFeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string path = ::testing::TempDir() + "/idx_mutation_sweep";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string file = ReadBytes(path);
  const std::string payload = file.substr(kHeader);
  const auto queries = MakeQueries(4, dim, 70);
  std::vector<std::vector<QueryHit>> truth;
  for (const auto& q : queries) {
    auto hits = db.NearestNeighbors(q, 3);
    ASSERT_TRUE(hits.ok());
    truth.push_back(*hits);
  }

  std::vector<std::pair<std::string, std::string>> cases;
  Rng rng(71);
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string flipped = payload;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 + rng.NextBelow(255)));
    cases.emplace_back("byte " + std::to_string(i) + " flipped", flipped);
  }
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    cases.emplace_back("cut at " + std::to_string(cut),
                       payload.substr(0, cut));
  }
  // Every rebuild logs a warning; keep the sweep's output readable.
  struct QuietLogs {
    LogLevel saved = GetLogLevel();
    QuietLogs() { SetLogLevel(LogLevel::kError); }
    ~QuietLogs() { SetLogLevel(saved); }
  } quiet;
  size_t rejected = 0, served = 0, stale = 0;
  for (const auto& [what, forged] : cases) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(WriteStringToFile(path, Reframe(file, forged)).ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    if (!loaded.ok()) {
      ++rejected;
    } else if (loaded->applied_epoch() != db.epoch()) {
      ++stale;
      auto hits = loaded->NearestNeighbors(queries[0], 3);
      ASSERT_FALSE(hits.ok());
      EXPECT_EQ(hits.status().code(), StatusCode::kFailedPrecondition);
    } else {
      ++served;
      for (size_t q = 0; q < queries.size(); ++q) {
        auto hits = loaded->NearestNeighbors(queries[q], 3);
        ASSERT_TRUE(hits.ok()) << hits.status();
        ExpectHitsEqual(*hits, truth[q]);
      }
      // Degraded answers keep their certified interval: the true i-th
      // distance lies in [d_i - B, d_i].
      std::vector<double> bounds;
      auto degraded = loaded->BatchBudgetedNearestNeighbors(queries, 3,
                                                            &bounds);
      ASSERT_TRUE(degraded.ok()) << degraded.status();
      for (size_t q = 0; q < queries.size(); ++q) {
        for (size_t i = 0; i < truth[q].size(); ++i) {
          const double d = (*degraded)[q][i].distance;
          EXPECT_LE(truth[q][i].distance, d);
          EXPECT_GE(truth[q][i].distance, d - bounds[q])
              << "query " << q << " rank " << i << " bound " << bounds[q];
        }
      }
    }
    auto recovered = LoadOrRebuildShardedFeatureIndex(path, &db, opts);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    for (size_t q = 0; q < queries.size(); ++q) {
      auto hits = recovered->NearestNeighbors(queries[q], 3);
      ASSERT_TRUE(hits.ok()) << hits.status();
      ExpectHitsEqual(*hits, truth[q]);
    }
  }
  // The sweep reaches all three outcomes: it is not only rejecting.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_GT(stale, 0u);
  std::remove(path.c_str());
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

// The load packs every shard from the saved layout: answers, bounds and
// stats match the saved index at every shard count and precision, and
// the reload re-saves byte-for-byte.
TEST(ShardedSnapshotTest, RoundTripBitIdentity) {
  MotionDatabase db = MakeDb(150, 8, 42);
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    for (ExactPrecision precision :
         {ExactPrecision::kF64, ExactPrecision::kF32}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   ExactPrecisionName(precision));
      ShardedIndexOptions opts = FourPartitionShardedOptions(shards);
      opts.index.exact_precision = precision;
      auto index = ShardedFeatureIndex::Build(&db, opts);
      ASSERT_TRUE(index.ok());
      ExpectRoundTrip(*index, db, ::testing::TempDir() + "/sh_roundtrip",
                      43);
    }
  }
}

// The sharded save/load cycle preserves the fp32 tier: the precision
// survives in the file, the load packs the mirrors, and answers stay
// bit-identical — with the fp32 tier demonstrably engaged on both
// sides.
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
  ExpectStatsEqual(orig_stats, load_stats);
  ExpectAnswersEqual(*index, *loaded, 8, 72);
  std::remove(path.c_str());
}

// ApplyUpdate moves records' rows without re-running k-means, so the
// saved layout is no longer the one a fresh Build would choose. The
// load must keep the saved layout (and per-shard epochs) and pack the
// updated rows into it: same answers, bounds and stats as the updated
// index, and the same bytes on re-save.
TEST(ShardedSnapshotTest, RoundTripAfterApplyUpdate) {
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    for (ExactPrecision precision :
         {ExactPrecision::kF64, ExactPrecision::kF32}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   ExactPrecisionName(precision));
      MotionDatabase db = MakeDb(120, 6, 73);
      ShardedIndexOptions opts = FourPartitionShardedOptions(shards);
      opts.index.exact_precision = precision;
      auto index = ShardedFeatureIndex::Build(&db, opts);
      ASSERT_TRUE(index.ok());
      // Move 20 records onto another class's cluster.
      for (size_t step = 0; step < 20; ++step) {
        const size_t rec = 5 * step + 1;
        ASSERT_TRUE(db.UpdateFeature(rec, db.record(rec + 1).feature).ok());
        ASSERT_TRUE(index->ApplyUpdate(rec).ok());
      }
      const std::string path = ::testing::TempDir() + "/sh_updated";
      ExpectRoundTrip(*index, db, path, 74);

      // A fresh k-means over the updated rows picks a different layout
      // (references and record map, which follow the four shape
      // fields, five options and one epoch per shard), so the
      // byte-identical re-save above proves the load did not re-run
      // it.
      auto fresh = ShardedFeatureIndex::Build(&db, opts);
      ASSERT_TRUE(fresh.ok());
      const std::string fresh_path = path + "_fresh";
      ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
      ASSERT_TRUE(SaveShardedFeatureIndex(*fresh, fresh_path).ok());
      const size_t layout_off = kHeader + (4 + 5 + shards) * 8;
      EXPECT_NE(ReadBytes(path).substr(layout_off),
                ReadBytes(fresh_path).substr(layout_off))
          << "the updates left the k-means layout unchanged";
      std::remove(path.c_str());
      std::remove(fresh_path.c_str());
    }
  }
}

// Payload truncations of the file — re-framed so the header is
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
  const std::string file = ReadBytes(path);
  const std::string payload = file.substr(kHeader);
  // Stride 8 lands on every u64 field boundary; the tail is swept
  // byte-by-byte to hit the last record map entry's interior.
  for (size_t cut = 0; cut < payload.size();
       cut += (payload.size() - cut <= 40 ? 1 : 8)) {
    ASSERT_TRUE(
        WriteStringToFile(path, Reframe(file, payload.substr(0, cut))).ok());
    EXPECT_FALSE(LoadShardedFeatureIndex(path, &db).ok())
        << "manifest cut at payload byte " << cut << " accepted";
  }
  std::remove(path.c_str());
}

// An unusable file can't vouch for any layout: the whole index rebuilds
// from the database.
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
  EXPECT_FALSE(info.fallback_reason.empty());
  ExpectAnswersEqual(*index, *recovered, 6, 49);
  std::remove(path.c_str());
}

// A snapshot from an older database epoch must not serve silently.
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
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_NE(info.fallback_reason.find("epoch"), std::string::npos)
      << info.fallback_reason;
  EXPECT_EQ(recovered->applied_epoch(), db.epoch());
  ExpectMatchesLinearScan(*recovered, db, 5, 51);
  std::remove(path.c_str());
}

// The file stores the shard count once. A count of 0, or one past the
// 65536 cap, is refused even under a valid checksum.
TEST(ShardedSnapshotTest, ManifestShardCountMismatchRejected) {
  MotionDatabase db = MakeDb(80, 5, 54);
  auto index = ShardedFeatureIndex::Build(&db, FourPartitionShardedOptions(2));
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/sh_count";
  ASSERT_TRUE(SaveShardedFeatureIndex(*index, path).ok());
  const std::string file = ReadBytes(path);
  // Payload u64 fields: applied epoch, dim, records, shard count, ...
  const size_t count_off = 3 * 8;
  std::string payload = file.substr(kHeader);
  ASSERT_EQ(U64At(payload, count_off), 2u);
  for (uint64_t forged_count :
       {uint64_t{0}, uint64_t{65537}, uint64_t{1} << 63}) {
    PutU64At(&payload, count_off, forged_count);
    ASSERT_TRUE(WriteStringToFile(path, Reframe(file, payload)).ok());
    auto loaded = LoadShardedFeatureIndex(path, &db);
    ASSERT_FALSE(loaded.ok()) << "shard count " << forged_count;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("shard count"),
              std::string::npos)
        << loaded.status();
  }
  ASSERT_TRUE(WriteStringToFile(path, file).ok());
  EXPECT_TRUE(LoadShardedFeatureIndex(path, &db).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mocemg
