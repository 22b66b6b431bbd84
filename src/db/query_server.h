/// \file query_server.h
/// \brief Batched query-serving front end over a MotionDatabase and an
/// optional ShardedFeatureIndex: the production-facing path for the
/// paper's Section 4 retrieval step.
///
/// Serving mechanisms (DESIGN.md §11.3):
///
///  - **Bounded admission**: Submit* enqueues a request and returns a
///    ticket; once `max_queue` requests are waiting, further submits
///    are rejected with OutOfRange instead of growing the queue
///    without bound. Rejections carry a computed `retry_after_us=N`
///    hint (see RetryAfterMicros) derived from the observed drain
///    rate, so clients back off proportionally to real pressure.
///  - **Deterministic micro-batching**: requests are served in strict
///    admission (FIFO) order, up to `max_batch` at a time. A batch's
///    unique cache-miss queries are evaluated together — through the
///    index's batch path when it is fresh, otherwise through one
///    blocked many-to-many kernel sweep over the database — and
///    duplicate queries inside a batch coalesce onto one evaluation.
///    Batch composition is a pure function of admission order, and the
///    kernels are bit-identical at any thread count, so the same
///    request sequence produces the same results *and the same
///    cache-hit counts* at MOCEMG_THREADS=1/2/8.
///  - **Stage-pipelined scheduling**: with `pipeline_depth` D > 1 a
///    drain forms up to D micro-batches per wave and overlaps their
///    evaluation stages on the thread pool (the formation and commit
///    stages stay serialized under the server lock, in batch order).
///    Every batch's answers are bit-identical to the depth-1 schedule
///    — evaluation is a pure function of the batch contents — but
///    cache-hit counts MAY differ across depths: batches formed in the
///    same wave cannot see each other's not-yet-committed inserts.
///  - **Seeded, shard-aware result cache**: hit lists are cached keyed
///    by (query bytes, k) under a seeded hash, with FIFO eviction at
///    `cache_capacity` entries. Each entry records the database epoch
///    and — when serving through the index — the per-shard epoch
///    vector and the entry's k-th (worst) hit distance. A lookup
///    after a mutation revalidates the entry per shard: a shard whose
///    epoch moved invalidates the entry only if one of the cached hits
///    lives in it or the shard cannot certify (triangle inequality,
///    ShardAllBeyond) that all its records now lie strictly beyond the
///    k-th distance. A mutation to one shard therefore invalidates
///    only the entries that provably depended on it; everything else
///    stays a hit. Invalid entries are erased on lookup and attributed
///    to the first failing shard in the per-shard counters.
///
/// Robustness mechanisms (DESIGN.md §12):
///
///  - **Deadlines**: every request carries a deadline budget (explicit
///    per submit, or `default_deadline_us`). At each batch formation
///    the queue is swept and overdue requests fail with
///    DeadlineExceeded — a request is answered in full or shed whole,
///    never served a stale answer after its budget elapsed. Time flows
///    through the Clock seam (`options.clock`), so tests drive expiry
///    with a FakeClock instead of racing the scheduler.
///  - **Deterministic graceful degradation**: when the number of
///    waiting requests at batch formation (after the expiry sweep,
///    before extraction) reaches `degrade_watermark`, the batch's
///    cache misses are answered from the index's int8 coarse tier
///    alone, grouped by k and drained through the blocked coarse scan
///    (ShardedFeatureIndex::BatchCoarseNearestNeighbors, DESIGN.md
///    §16) — roughly an order of magnitude less full-precision work
///    per query, one many-to-many kernel pass per group instead of a
///    per-query loop — tagged `degraded=true`
///    with a certified error bound on every distance. The trigger is a
///    pure function of queue state, so a replayed request sequence
///    degrades identically at any thread count. Degraded results are
///    never cached; when pressure clears the server falls back to the
///    full exact path on its own.
///  - **Fault injection seam**: `options.faults`, when set, is
///    consulted once per formed batch (under the formation lock, so
///    the fault tape is deterministic) and can stall the worker, skew
///    the clock, or fail the batch with Unavailable (serving_faults.h).
///
/// Exact-mode results are always bit-identical to a fresh exact linear
/// scan: the index tier is exact (sharded_index.h), the blocked
/// fallback uses the same kernels and tie-break as MotionDatabase, and
/// cached entries are only ever served for the exact (bytes, k, epoch)
/// they were computed under. Degraded-mode results are approximate but
/// certified: each carries a bound B with |reported − true| <= B.
///
/// Threading: Submit/Take are safe from any thread. Serving happens
/// either inline (Drain/DrainOnce, or lazily inside Take when no
/// worker is running) or on the background worker started with
/// Start(). Replacing the serving index while requests are in flight
/// goes through SwapIndex, which quiesces evaluation (waits for
/// in-flight batches to commit, holds off new batch formation) and
/// swaps the pointer under the server lock — concurrent submitters
/// never observe a torn index. Mutating the database, or mutating an
/// index IN PLACE (ApplyUpdate/Rebuild on an object the server is
/// serving from), is still the caller's to serialize: quiesce the
/// server (Stop or drain) first, or build the replacement aside and
/// SwapIndex it in. The epoch guard turns an unsynchronized mutation
/// into query failures, never corruption.

#ifndef MOCEMG_DB_QUERY_SERVER_H_
#define MOCEMG_DB_QUERY_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/feature_index.h"
#include "db/motion_database.h"
#include "util/clock.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/result.h"

namespace mocemg {

class ServingFaultInjector;
class ShardedFeatureIndex;

/// \brief Serving configuration.
struct QueryServerOptions {
  /// Admission bound: submits beyond this many waiting requests are
  /// rejected with OutOfRange. Must be >= 1.
  size_t max_queue = 1024;
  /// Micro-batch cap: one drain serves at most this many requests.
  /// Must be >= 1.
  size_t max_batch = 64;
  /// Result-cache capacity in entries; 0 disables caching (duplicate
  /// queries inside one batch still coalesce).
  size_t cache_capacity = 4096;
  /// Seed for the cache's byte hash (key layout is stable; the seed
  /// decorrelates bucket placement between server instances).
  uint64_t cache_seed = 0x9E3779B97F4A7C15ULL;
  /// Thread budget for batch evaluation (passed through to the index
  /// batch path / the blocked fallback's per-query selection).
  ParallelOptions parallel;
  /// Time source for deadlines, drain-rate measurement, and backoff.
  /// nullptr = SystemClock(). Must outlive the server.
  const Clock* clock = nullptr;
  /// Deadline budget, in microseconds, applied to submits that do not
  /// carry their own. 0 = requests never expire.
  uint64_t default_deadline_us = 0;
  /// Degraded-mode trigger: when this many requests are waiting at
  /// batch formation, cache misses are answered from the coarse tier
  /// (needs a fresh index with a quantized tier; otherwise the exact
  /// path serves as usual). 0 disables degradation. Must be
  /// <= max_queue — a watermark above the admission bound could never
  /// fire.
  size_t degrade_watermark = 0;
  /// Fault injection seam for tests and the abl10 bench; nullptr in
  /// production. Must outlive the server.
  ServingFaultInjector* faults = nullptr;
  /// Micro-batches formed (and evaluated concurrently) per drain wave.
  /// 1 = the classic one-batch-at-a-time schedule; D > 1 overlaps up
  /// to D batch evaluations on the thread pool. Answers are identical
  /// at every depth; cache-hit counts may differ (batches in one wave
  /// cannot see each other's inserts). Must be >= 1.
  size_t pipeline_depth = 1;
};

/// \brief Per-shard serving counters, kept when the server serves
/// through an index (empty otherwise). Aggregated in
/// batch-commit order, so the vector is deterministic for a given
/// request sequence at any thread count and pipeline depth.
struct ShardServeStats {
  /// Per-(query, shard) scan tasks executed against this shard
  /// (exact and coarse).
  uint64_t scans = 0;
  /// Exact distance evaluations this shard performed.
  uint64_t distance_computations = 0;
  /// int8 coarse estimates this shard computed.
  uint64_t coarse_computations = 0;
  /// Records skipped by this shard's coarse prefilter.
  uint64_t coarse_pruned = 0;
  /// Cache entries invalidated because this shard's mutation broke
  /// their revalidation certificate (attributed to the first failing
  /// shard).
  uint64_t cache_invalidations = 0;
};

/// \brief Monotonic serving counters (a consistent snapshot via stats()).
struct QueryServerStats {
  uint64_t submitted = 0;    ///< requests admitted to the queue
  /// Submits refused by the admission bound — the load-shedding
  /// counter; each rejection carried a retry_after_us hint.
  uint64_t rejected = 0;
  uint64_t served = 0;       ///< requests fulfilled with an answer
  uint64_t batches = 0;      ///< micro-batches executed
  uint64_t cache_hits = 0;   ///< requests answered from the cache
  uint64_t cache_misses = 0; ///< requests that needed evaluation
  uint64_t coalesced = 0;    ///< duplicate in-batch requests folded away
  uint64_t evictions = 0;    ///< cache entries dropped by the FIFO bound
  /// Requests failed with DeadlineExceeded by the expiry sweep.
  uint64_t expired = 0;
  /// Requests answered from the coarse tier (tagged degraded=true).
  uint64_t degraded = 0;
  /// Micro-batches that ran in degraded mode.
  uint64_t degraded_batches = 0;
  /// Micro-batch size histogram in power-of-two buckets: bucket 0
  /// counts batches of exactly one request, bucket b >= 1 counts
  /// batches of (2^(b-1), 2^b] requests. Sized to the highest
  /// occupied bucket + 1 (empty until the first batch commits).
  /// Together with `batches` this shows how well micro-batching is
  /// amortizing the blocked many-to-many scan (DESIGN.md §16).
  std::vector<uint64_t> batch_size_hist;
  /// Most requests ever waiting at once (updated at admission).
  uint64_t queue_high_water = 0;
  /// Index snapshot loads reported via NoteSnapshotLoad.
  uint64_t snapshot_loads = 0;
  /// Snapshot loads that fell back to a rebuild.
  uint64_t snapshot_fallbacks = 0;
  /// Cache entries kept alive across a shard mutation by the per-shard
  /// revalidation certificate (index serving only).
  uint64_t cache_revalidations = 0;
  /// Kernel backend every distance evaluation dispatched to
  /// ("scalar", "avx2", "avx512" or "neon"; kernel_dispatch.h). Filled
  /// at stats() time, so it reflects the backend active right now.
  std::string kernel_backend;
  /// Comma-separated CPU SIMD feature flags detected at startup.
  std::string cpu_features;
  /// Aggregated index statistics over all index-served batches (zero
  /// when serving through the exact fallback).
  IndexQueryStats index_stats;
  /// Per-shard serving counters; sized num_shards once a batch has
  /// served through an index, empty while only the exact fallback has
  /// served.
  std::vector<ShardServeStats> shard_stats;
};

/// \brief A served result with its degradation provenance. Exact
/// answers have degraded=false and error_bound=0; degraded answers
/// carry the certified bound B: every hit's true distance lies within
/// [hit.distance − B, hit.distance + B].
struct ServedAnswer {
  bool degraded = false;
  double error_bound = 0.0;
  /// Filled for kNN requests; empty for classify requests.
  std::vector<QueryHit> hits;
  /// Filled for classify requests.
  size_t label = 0;
};

/// \brief Batched kNN / classification server. Movable, not copyable.
class QueryServer {
 public:
  QueryServer() = default;
  ~QueryServer();
  QueryServer(QueryServer&&) noexcept;
  QueryServer& operator=(QueryServer&&) noexcept;

  /// \brief Creates a server over `database` that serves scatter-gather
  /// through `index` whenever it is non-null and fresh (applied_epoch
  /// matching the database), falling back to the exact blocked scan
  /// otherwise. The index must be built over `database`; both pointers
  /// must outlive the server.
  static Result<QueryServer> Create(const MotionDatabase* database,
                                    const ShardedFeatureIndex* index = nullptr,
                                    const QueryServerOptions& options = {});

  /// \brief Atomically replaces the serving index (nullptr = exact
  /// fallback): waits for in-flight batch evaluations to commit while
  /// holding off new batch formation, swaps the pointer, and resumes.
  /// Safe to call while the worker runs and submits race — no request
  /// ever observes a torn index; each batch serves wholly through the
  /// index installed when it was formed. The new index must be over
  /// the server's database.
  Status SwapIndex(const ShardedFeatureIndex* index);

  /// \brief Enqueues a kNN request; returns its ticket, or OutOfRange
  /// when the admission queue is full (message carries a
  /// retry_after_us hint). The query is validated here (dimension,
  /// finiteness, 1 <= k <= database size) so serving cannot fail
  /// per-request. `deadline_us`, when non-zero, overrides
  /// options.default_deadline_us as this request's budget from now.
  Result<uint64_t> SubmitNearestNeighbors(std::vector<double> query,
                                          size_t k);
  Result<uint64_t> SubmitNearestNeighbors(std::vector<double> query,
                                          size_t k, uint64_t deadline_us);

  /// \brief Enqueues a classify-by-vote request over the k nearest
  /// neighbours; same admission, validation, and deadline rules.
  Result<uint64_t> SubmitClassify(std::vector<double> query, size_t k);
  Result<uint64_t> SubmitClassify(std::vector<double> query, size_t k,
                                  uint64_t deadline_us);

  /// \brief Serves one wave — up to pipeline_depth micro-batches of up
  /// to max_batch requests, formed in admission order and evaluated
  /// concurrently — and commits them in batch order. `served_out`,
  /// when given, receives the number of requests fulfilled (0 when the
  /// queue was empty; expired requests do not count — they were shed,
  /// not served).
  Status DrainOnce(size_t* served_out = nullptr);

  /// \brief Serves waves until the queue is empty.
  Status Drain();

  /// \brief Blocks until the ticket's kNN result is ready and returns
  /// it (serving inline when no background worker is running). A
  /// ticket can be taken exactly once. Degraded answers are returned
  /// like exact ones — use TakeAnswer to see the tag and bound.
  Result<std::vector<QueryHit>> TakeHits(uint64_t ticket);

  /// \brief Blocks until the ticket's classification is ready.
  Result<size_t> TakeLabel(uint64_t ticket);

  /// \brief Blocks until the ticket is ready and returns the full
  /// answer with its degradation tag and certified error bound.
  /// Works for both kNN and classify tickets.
  Result<ServedAnswer> TakeAnswer(uint64_t ticket);

  /// \brief Synchronous single kNN request through the full admission
  /// → batch → cache path.
  Result<std::vector<QueryHit>> NearestNeighbors(
      const std::vector<double>& query, size_t k);

  /// \brief Synchronous single classification request.
  Result<size_t> Classify(const std::vector<double>& query, size_t k);

  /// \brief Submits the whole set, serves it in deterministic
  /// micro-batches, and returns results in input order. Element i is
  /// bit-identical to database->NearestNeighbors(queries[i], k).
  Result<std::vector<std::vector<QueryHit>>> NearestNeighborsBatch(
      const std::vector<std::vector<double>>& queries, size_t k);

  /// \brief Batched classification: element i is the vote among
  /// queries[i]'s k nearest neighbours.
  Result<std::vector<size_t>> ClassifyBatch(
      const std::vector<std::vector<double>>& queries, size_t k);

  /// \brief Starts the background worker that drains the queue as
  /// requests arrive. Idempotent.
  Status Start();

  /// \brief Stops the worker after it drains the remaining queue.
  /// No-op when not started.
  void Stop();

  /// \brief Records an index-snapshot load attempt in the serving
  /// counters (the boot path calls this with
  /// ShardedSnapshotLoadInfo::loaded_from_snapshot).
  void NoteSnapshotLoad(bool loaded_from_snapshot);

  /// \brief Consistent snapshot of the serving counters.
  QueryServerStats stats() const;

 private:
  struct Impl;
  explicit QueryServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// \brief Extracts the `retry_after_us=N` hint from an admission
/// rejection's message; 0 when the status carries none. The hint is
/// (waiting requests + 1) × the EWMA per-request drain time, so it
/// grows monotonically with queue depth and tracks real serving speed.
uint64_t RetryAfterMicros(const Status& status);

/// \brief Client-side backoff policy for SubmitWithBackoff.
struct BackoffOptions {
  /// First retry delay; doubles (×multiplier) per attempt up to max_us.
  uint64_t initial_us = 1000;
  uint64_t max_us = 1000000;
  double multiplier = 2.0;
  /// Uniform jitter fraction: the delay is drawn from
  /// [base·(1−jitter), base·(1+jitter)] with a seeded Rng, so
  /// synchronized clients de-synchronize deterministically.
  double jitter = 0.2;
  uint64_t seed = 1;
  /// Total submit attempts before giving up with the last rejection.
  size_t max_attempts = 8;
};

/// \brief Seeded exponential backoff with uniform jitter. The delay
/// sequence is a pure function of (options, seed) — tests assert it.
class JitteredBackoff {
 public:
  explicit JitteredBackoff(const BackoffOptions& options);

  /// \brief Next delay in microseconds (advances the schedule).
  uint64_t NextDelayUs();

  /// \brief Restarts the schedule (the jitter stream continues).
  void Reset();

 private:
  BackoffOptions opts_;
  Rng rng_;
  uint64_t base_us_ = 0;
};

/// \brief Submits with retry: on an admission rejection, sleeps for
/// max(jittered backoff delay, the server's retry_after_us hint) on
/// `clock` (nullptr = the system clock; tests pass a FakeClock so the
/// loop runs instantly) and tries again, up to
/// backoff.max_attempts. Non-OutOfRange errors propagate immediately.
Result<uint64_t> SubmitWithBackoff(QueryServer* server,
                                   std::vector<double> query, size_t k,
                                   bool classify = false,
                                   const BackoffOptions& backoff = {},
                                   const Clock* clock = nullptr);

}  // namespace mocemg

#endif  // MOCEMG_DB_QUERY_SERVER_H_
