#include "db/query_server.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "db/serving_faults.h"
#include "db/sharded_index.h"
#include "util/distance_kernels.h"
#include "util/kernel_dispatch.h"
#include "util/macros.h"
#include "util/top_k.h"

namespace mocemg {
namespace {

/// Seeded FNV-1a-style hash over the key bytes: the query's doubles
/// (verbatim bit patterns), then k. The seed replaces the offset basis
/// so two servers with different seeds place the same keys in
/// different buckets. Validity under mutation is NOT part of the key —
/// each entry carries the epochs it was computed under and is
/// revalidated (or erased) at lookup.
uint64_t HashKey(uint64_t seed, const std::vector<double>& query,
                 size_t k) {
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (double d : query) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  mix(static_cast<uint64_t>(k));
  return h;
}

}  // namespace

struct QueryServer::Impl {
  const MotionDatabase* db = nullptr;
  const ShardedFeatureIndex* index = nullptr;
  QueryServerOptions opts;

  mutable std::mutex mu;
  std::condition_variable cv_work;  ///< queue became non-empty / stopping
  std::condition_variable cv_done;  ///< some outcomes became ready
  /// Index-swap rendezvous: SwapIndex waits here for in-flight batch
  /// evaluations to commit; batch formation waits here for a pending
  /// swap to finish.
  std::condition_variable cv_swap;

  /// Resolved time source (opts.clock or the system clock).
  const Clock* clock = nullptr;
  /// EWMA of per-request drain time in microseconds (integer, α=1/2);
  /// feeds the retry_after_us hint. 0 until the first batch commits.
  uint64_t drain_ewma_us = 0;

  /// Micro-batches formed but not yet committed (their evaluation may
  /// be running outside the lock). SwapIndex quiesces on this.
  size_t inflight = 0;
  /// Pending SwapIndex calls; batch formation holds off while > 0.
  size_t swapping = 0;

  struct Request {
    std::vector<double> query;
    size_t k = 1;
    uint64_t ticket = 0;
    /// Absolute expiry on the server clock; 0 = never expires.
    uint64_t deadline_at_us = 0;
  };
  struct Outcome {
    bool ready = false;
    bool degraded = false;
    double error_bound = 0.0;
    Status status;
    std::vector<QueryHit> hits;
  };
  struct CacheEntry {
    uint64_t hash = 0;
    size_t k = 0;
    std::vector<double> query;
    std::vector<QueryHit> hits;
    /// Database epoch the hits were computed (or last revalidated) at.
    uint64_t db_epoch = 0;
    /// Per-shard epochs at store time when the entry was served
    /// through the index; empty otherwise. The lookup-time
    /// revalidation walks exactly the shards whose epoch moved.
    std::vector<uint64_t> shard_epochs;
    /// The entry's k-th (worst) hit distance — the radius the
    /// ShardAllBeyond certificate must clear for a mutated shard.
    double kth = 0.0;
  };

  /// One micro-batch moving through form → evaluate → commit.
  /// Formation and commit run under the lock; evaluation touches only
  /// the flight itself and the index captured into it, so it runs
  /// outside the lock.
  struct Flight {
    enum Mode { kExact, kIndex };
    Mode mode = kExact;
    const ShardedFeatureIndex* via_index = nullptr;
    uint64_t epoch = 0;
    bool degraded = false;
    uint64_t n_expired = 0;
    Status fault_status;
    std::vector<Request> batch;
    struct Plan {
      uint64_t hash = 0;
      bool from_cache = false;
      std::vector<QueryHit> cached;  ///< filled when from_cache
      size_t eval_slot = 0;          ///< index into uniq when !from_cache
    };
    std::vector<Plan> plan;
    std::vector<size_t> uniq;  ///< batch positions evaluated (first of dupes)
    uint64_t n_hits = 0, n_miss = 0, n_coal = 0;
    /// Shard-epoch vector snapshot at formation (index mode);
    /// stamped into every cache entry this flight stores.
    std::vector<uint64_t> shard_epochs;
    // --- evaluation outputs ---
    std::vector<std::vector<QueryHit>> eval_hits;
    std::vector<double> eval_bounds;
    IndexQueryStats agg;
    std::vector<IndexQueryStats> per_shard;
    std::vector<uint64_t> shard_scans;
    Status eval_status;
    uint64_t t0 = 0, t1 = 0;
  };

  std::deque<Request> queue;
  std::unordered_map<uint64_t, Outcome> outcomes;
  uint64_t next_ticket = 1;
  QueryServerStats counters;

  /// FIFO cache: list front = oldest entry; the multimap resolves a
  /// seeded hash to its entries (full key compared on lookup, so a
  /// hash collision can never serve the wrong result).
  std::list<CacheEntry> cache_fifo;
  std::unordered_multimap<uint64_t, std::list<CacheEntry>::iterator>
      cache_map;

  std::thread worker;
  bool running = false;
  bool stopping = false;

  Result<uint64_t> Submit(std::vector<double> query, size_t k,
                          uint64_t deadline_us);
  /// Forms one micro-batch under the lock (after any pending swap):
  /// expiry sweep, serving-mode capture, watermark, extraction, fault
  /// draw, cache lookups with revalidation, in-batch coalescing.
  /// Returns false when the queue held nothing to serve.
  bool FormFlight(Flight* f);
  /// Evaluates a formed flight's unique misses outside the lock.
  void EvaluateFlight(Flight* f) const;
  /// Commits a flight under the lock: counters, EWMA, cache inserts,
  /// outcome fulfilment, inflight release.
  Status CommitFlight(Flight* f);
  /// Forms, evaluates and commits one micro-batch.
  Status ServeBatch(size_t* served_out);
  Status ExactBatch(const std::vector<const std::vector<double>*>& queries,
                    size_t k,
                    std::vector<std::vector<QueryHit>*> hit_sinks) const;
  /// Cache lookup with validity check. An entry stored at the current
  /// epoch hits directly. After a mutation, an entry can survive only
  /// through the per-shard revalidation certificate (`shx` non-null =
  /// serving through a fresh index): for every shard whose
  /// epoch moved, no cached hit may live in it and the shard must
  /// prove all its records lie strictly beyond the entry's k-th
  /// distance. Invalid entries are erased and attributed to the first
  /// failing shard.
  bool LookupCache(uint64_t hash, const std::vector<double>& query,
                   size_t k, uint64_t epoch,
                   const ShardedFeatureIndex* shx,
                   std::vector<QueryHit>* hits_out);
  void InsertCached(CacheEntry entry);
  void EnsureShardStats(size_t num_shards);
  /// Folds a scatter-gather evaluation's per-shard stats into the
  /// flight, counting `scans_per_shard` per-(query, shard) scan tasks
  /// against every shard.
  static void AddPerShard(Flight* f,
                          const std::vector<IndexQueryStats>& per_shard,
                          uint64_t scans_per_shard);
  Status Swap(const ShardedFeatureIndex* next);
  Result<Outcome> Take(uint64_t ticket);
  void WorkerLoop();
};

Result<uint64_t> QueryServer::Impl::Submit(std::vector<double> query,
                                           size_t k, uint64_t deadline_us) {
  if (query.size() != db->feature_dimension()) {
    return Status::InvalidArgument(
        "query dimension " + std::to_string(query.size()) +
        " does not match database dimension " +
        std::to_string(db->feature_dimension()));
  }
  for (double v : query) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "query feature contains a non-finite value");
    }
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (k > db->size()) {
    return Status::InvalidArgument(
        "k=" + std::to_string(k) + " exceeds database size " +
        std::to_string(db->size()));
  }
  if (deadline_us == 0) deadline_us = opts.default_deadline_us;
  std::unique_lock<std::mutex> lock(mu);
  if (queue.size() >= opts.max_queue) {
    ++counters.rejected;
    // Shed with a hint: with `queue.size()` requests ahead and the
    // EWMA per-request drain time, a slot should free after roughly
    // (depth + 1) × ewma — monotone in depth, tracks serving speed.
    const uint64_t per_req = drain_ewma_us > 0 ? drain_ewma_us : 1;
    const uint64_t hint = (queue.size() + 1) * per_req;
    return Status::OutOfRange(
        "admission queue full (" + std::to_string(opts.max_queue) +
        " requests waiting); retry_after_us=" + std::to_string(hint));
  }
  const uint64_t ticket = next_ticket++;
  Request req;
  req.query = std::move(query);
  req.k = k;
  req.ticket = ticket;
  if (deadline_us > 0) {
    req.deadline_at_us = clock->NowMicros() + deadline_us;
  }
  queue.push_back(std::move(req));
  outcomes.emplace(ticket, Outcome{});
  ++counters.submitted;
  if (queue.size() > counters.queue_high_water) {
    counters.queue_high_water = queue.size();
  }
  lock.unlock();
  cv_work.notify_one();
  return ticket;
}

bool QueryServer::Impl::LookupCache(uint64_t hash,
                                    const std::vector<double>& query,
                                    size_t k, uint64_t epoch,
                                    const ShardedFeatureIndex* shx,
                                    std::vector<QueryHit>* hits_out) {
  auto [begin, end] = cache_map.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    CacheEntry& e = *it->second;
    if (e.k != k || e.query != query) continue;
    if (e.db_epoch == epoch) {
      *hits_out = e.hits;
      return true;
    }
    // The database mutated since the entry was stored. Without a
    // fresh index there is no certificate to keep it alive.
    if (shx != nullptr && e.shard_epochs.size() == shx->num_shards()) {
      const std::vector<uint64_t>& cur = shx->shard_epochs();
      bool valid = true;
      size_t bad_shard = cur.size();
      for (size_t s = 0; s < cur.size(); ++s) {
        if (e.shard_epochs[s] == cur[s]) continue;
        // Shard s mutated: the entry survives only if none of its
        // hits live in s and s certifies that every record it now
        // holds lies strictly beyond the entry's k-th distance (so
        // nothing in s could have entered the top-k).
        bool depends = e.hits.size() < e.k;
        for (const QueryHit& h : e.hits) {
          if (depends) break;
          auto owner = shx->ShardOfRecord(h.record_index);
          depends = !owner.ok() || *owner == s;
        }
        if (depends || !shx->ShardAllBeyond(s, query, e.kth)) {
          valid = false;
          bad_shard = s;
          break;
        }
      }
      if (valid) {
        e.db_epoch = epoch;
        e.shard_epochs = cur;
        ++counters.cache_revalidations;
        *hits_out = e.hits;
        return true;
      }
      EnsureShardStats(cur.size());
      ++counters.shard_stats[bad_shard].cache_invalidations;
    }
    cache_fifo.erase(it->second);
    cache_map.erase(it);
    return false;
  }
  return false;
}

void QueryServer::Impl::InsertCached(CacheEntry entry) {
  // Replace any existing entry for the same (query, k): with validity
  // out of the key, a re-evaluated query would otherwise accumulate
  // duplicates.
  auto [begin, end] = cache_map.equal_range(entry.hash);
  for (auto it = begin; it != end; ++it) {
    const CacheEntry& e = *it->second;
    if (e.k == entry.k && e.query == entry.query) {
      cache_fifo.erase(it->second);
      cache_map.erase(it);
      break;
    }
  }
  while (cache_fifo.size() >= opts.cache_capacity) {
    const CacheEntry& oldest = cache_fifo.front();
    auto [obegin, oend] = cache_map.equal_range(oldest.hash);
    for (auto it = obegin; it != oend; ++it) {
      if (it->second == cache_fifo.begin()) {
        cache_map.erase(it);
        break;
      }
    }
    cache_fifo.pop_front();
    ++counters.evictions;
  }
  cache_fifo.push_back(std::move(entry));
  auto it = std::prev(cache_fifo.end());
  cache_map.emplace(it->hash, it);
}

void QueryServer::Impl::EnsureShardStats(size_t num_shards) {
  if (counters.shard_stats.size() < num_shards) {
    counters.shard_stats.resize(num_shards);
  }
}

Status QueryServer::Impl::ExactBatch(
    const std::vector<const std::vector<double>*>& queries, size_t k,
    std::vector<std::vector<QueryHit>*> hit_sinks) const {
  // Blocked many-to-many sweep over the database's packed mirror: the
  // whole micro-batch streams each block tile once (distance_kernels
  // §10), then a per-query bounded top-k selection in squared space.
  // Per-pair bits equal the pair kernel's, and the (distance, index)
  // tie-break matches the linear scan, so element i is bit-identical
  // to db->NearestNeighbors(*queries[i], k).
  const size_t nq = queries.size();
  const size_t n = db->size();
  const size_t d = db->feature_dimension();
  const size_t kk = std::min(k, n);
  std::vector<double> qbuf(nq * d);
  for (size_t i = 0; i < nq; ++i) {
    std::memcpy(qbuf.data() + i * d, queries[i]->data(),
                d * sizeof(double));
  }
  std::vector<double> sq(nq * n);
  SquaredL2ManyToMany(qbuf.data(), nq, db->packed_features().data(), n, d,
                      sq.data(), n);
  return ParallelFor(
      nq,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        BoundedTopK top;
        std::vector<TopKEntry> entries;
        for (size_t q = begin; q < end; ++q) {
          const double* row = sq.data() + q * n;
          top.Reset(kk);
          for (size_t i = 0; i < n; ++i) top.Push(row[i], i);
          top.ExtractSorted(&entries);
          std::vector<QueryHit>& hits = *hit_sinks[q];
          hits.resize(entries.size());
          for (size_t i = 0; i < entries.size(); ++i) {
            hits[i].record_index = entries[i].second;
            hits[i].distance = std::sqrt(entries[i].first);
          }
        }
        return Status::OK();
      },
      opts.parallel);
}

bool QueryServer::Impl::FormFlight(Flight* f) {
  std::unique_lock<std::mutex> lock(mu);
  // A swap is quiescing: hold off until it has installed its index.
  // The caller holds no uncommitted batch, so the swap's wait for
  // inflight == 0 cannot depend on this thread.
  cv_swap.wait(lock, [&] { return swapping == 0; });
  const uint64_t epoch = db->epoch();
  f->epoch = epoch;
  f->fault_status = Status::OK();
  // Expiry sweep: fail every overdue request wherever it sits in the
  // queue. An expired request is shed whole — it never occupies a
  // batch slot and is never answered with work done past its budget.
  if (!queue.empty()) {
    const uint64_t now = clock->NowMicros();
    std::deque<Request> keep;
    for (Request& req : queue) {
      if (req.deadline_at_us != 0 && now >= req.deadline_at_us) {
        auto it = outcomes.find(req.ticket);
        if (it != outcomes.end()) {
          it->second.status = Status::DeadlineExceeded(
              "request deadline elapsed while waiting (ticket " +
              std::to_string(req.ticket) + ")");
          it->second.ready = true;
        }
        ++f->n_expired;
      } else {
        keep.push_back(std::move(req));
      }
    }
    queue.swap(keep);
    counters.expired += f->n_expired;
  }
  // Serving-mode capture: the flight evaluates wholly through the
  // index installed NOW — a later SwapIndex cannot tear it (the swap
  // waits for this flight to commit). A fresh index serves; otherwise
  // the exact blocked fallback.
  if (index != nullptr && index->num_partitions() > 0 &&
      index->applied_epoch() == epoch) {
    f->mode = Flight::kIndex;
    f->via_index = index;
  } else {
    f->mode = Flight::kExact;
  }
  // Degradation trigger: a pure function of post-sweep queue depth,
  // so a replayed request sequence degrades identically at any
  // thread count (DESIGN.md §12.2). Degraded mode
  // is a budgeted index scan, so the exact fallback never degrades.
  f->degraded = f->mode == Flight::kIndex && opts.degrade_watermark > 0 &&
                queue.size() >= opts.degrade_watermark;
  while (!queue.empty() && f->batch.size() < opts.max_batch) {
    f->batch.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  if (f->batch.empty()) return false;
  // Fault draws happen under the formation lock: draw order equals
  // batch order, so one seed fixes the whole fault tape.
  if (opts.faults != nullptr) {
    f->fault_status = opts.faults->OnBatchFormed(f->batch.size());
  }
  if (f->mode == Flight::kIndex) {
    f->shard_epochs = f->via_index->shard_epochs();
  }
  const ShardedFeatureIndex* shx = f->via_index;
  f->plan.resize(f->batch.size());
  for (size_t i = 0; i < f->batch.size(); ++i) {
    const Request& req = f->batch[i];
    Flight::Plan& pl = f->plan[i];
    pl.hash = HashKey(opts.cache_seed, req.query, req.k);
    if (opts.cache_capacity > 0 &&
        LookupCache(pl.hash, req.query, req.k, epoch, shx, &pl.cached)) {
      pl.from_cache = true;
      ++f->n_hits;
      continue;
    }
    ++f->n_miss;
    // Coalesce duplicates inside the batch onto one evaluation.
    bool coalesced = false;
    for (size_t u = 0; u < f->uniq.size(); ++u) {
      const Request& first = f->batch[f->uniq[u]];
      if (first.k == req.k && first.query == req.query) {
        pl.eval_slot = u;
        coalesced = true;
        ++f->n_coal;
        break;
      }
    }
    if (!coalesced) {
      pl.eval_slot = f->uniq.size();
      f->uniq.push_back(i);
    }
  }
  ++inflight;
  return true;
}

void QueryServer::Impl::AddPerShard(
    Flight* f, const std::vector<IndexQueryStats>& per_shard,
    uint64_t scans_per_shard) {
  if (f->per_shard.size() < per_shard.size()) {
    f->per_shard.resize(per_shard.size());
  }
  if (f->shard_scans.size() < per_shard.size()) {
    f->shard_scans.resize(per_shard.size(), 0);
  }
  for (size_t s = 0; s < per_shard.size(); ++s) {
    f->per_shard[s] += per_shard[s];
    f->shard_scans[s] += scans_per_shard;
  }
}

void QueryServer::Impl::EvaluateFlight(Flight* f) const {
  Status eval_status = f->fault_status;
  const size_t nu = f->uniq.size();
  f->eval_hits.resize(nu);
  f->eval_bounds.assign(nu, 0.0);
  f->t0 = clock->NowMicros();
  if (nu > 0 && eval_status.ok()) {
    // Requests may carry different k; group the unique evaluations by
    // k so each group is one batched kernel call. std::map keeps the
    // group order deterministic.
    std::map<size_t, std::vector<size_t>> by_k;
    for (size_t u = 0; u < nu; ++u) {
      by_k[f->batch[f->uniq[u]].k].push_back(u);
    }
    for (const auto& [k, slots] : by_k) {
      if (f->mode == Flight::kIndex) {
        std::vector<std::vector<double>> queries(slots.size());
        for (size_t s = 0; s < slots.size(); ++s) {
          queries[s] = f->batch[f->uniq[slots[s]]].query;
        }
        IndexQueryStats st;
        std::vector<IndexQueryStats> ps;
        std::vector<double> bounds;
        // Degraded mode is the partition-budgeted exact scan through
        // the same query-block engine (DESIGN.md §12.2); its answers
        // and bounds are the same at any batch size.
        auto hits = f->degraded
                        ? f->via_index->BatchBudgetedNearestNeighbors(
                              queries, k, &bounds, &st, &ps, &opts.parallel)
                        : f->via_index->BatchNearestNeighbors(
                              queries, k, &st, &ps, &opts.parallel);
        if (!hits.ok()) {
          eval_status = hits.status().WithContext("query server batch");
          break;
        }
        f->agg += st;
        AddPerShard(f, ps, slots.size());
        for (size_t s = 0; s < slots.size(); ++s) {
          f->eval_hits[slots[s]] = std::move((*hits)[s]);
          if (f->degraded) f->eval_bounds[slots[s]] = bounds[s];
        }
      } else {
        std::vector<const std::vector<double>*> queries(slots.size());
        std::vector<std::vector<QueryHit>*> sinks(slots.size());
        for (size_t s = 0; s < slots.size(); ++s) {
          queries[s] = &f->batch[f->uniq[slots[s]]].query;
          sinks[s] = &f->eval_hits[slots[s]];
        }
        Status st = ExactBatch(queries, k, std::move(sinks));
        if (!st.ok()) {
          eval_status = st.WithContext("query server batch");
          break;
        }
      }
    }
  }
  f->t1 = clock->NowMicros();
  f->eval_status = eval_status;
}

Status QueryServer::Impl::CommitFlight(Flight* f) {
  {
    std::unique_lock<std::mutex> lock(mu);
    --inflight;
    counters.served += f->batch.size();
    ++counters.batches;
    // Micro-batch size histogram: bucket 0 = size 1, bucket b >= 1 =
    // sizes (2^(b-1), 2^b]. bucket(n) = ceil(log2(n)).
    {
      size_t bucket = 0;
      for (size_t n = f->batch.size() - 1; n > 0; n >>= 1) ++bucket;
      if (counters.batch_size_hist.size() <= bucket) {
        counters.batch_size_hist.resize(bucket + 1, 0);
      }
      ++counters.batch_size_hist[bucket];
    }
    counters.cache_hits += f->n_hits;
    counters.cache_misses += f->n_miss;
    counters.coalesced += f->n_coal;
    if (f->degraded) ++counters.degraded_batches;
    if (f->mode == Flight::kIndex) {
      counters.index_stats += f->agg;
      EnsureShardStats(f->via_index->num_shards());
      for (size_t s = 0; s < f->per_shard.size(); ++s) {
        ShardServeStats& ss = counters.shard_stats[s];
        ss.scans += f->shard_scans[s];
        ss.distance_computations += f->per_shard[s].distance_computations;
      }
    }
    // Drain-rate EWMA (integer, α=1/2): feeds the retry_after hint.
    const uint64_t per_req =
        std::max<uint64_t>(1, (f->t1 - f->t0) / f->batch.size());
    drain_ewma_us =
        drain_ewma_us == 0 ? per_req : (drain_ewma_us + per_req) / 2;
    // Degraded answers are never cached: a later cache hit would serve
    // the budgeted answer after pressure cleared.
    if (f->eval_status.ok() && opts.cache_capacity > 0 && !f->degraded) {
      for (size_t u = 0; u < f->uniq.size(); ++u) {
        const Request& req = f->batch[f->uniq[u]];
        CacheEntry entry;
        entry.hash = f->plan[f->uniq[u]].hash;
        entry.k = req.k;
        entry.query = req.query;
        entry.hits = f->eval_hits[u];
        entry.db_epoch = f->epoch;
        entry.shard_epochs = f->shard_epochs;
        entry.kth = entry.hits.empty() ? 0.0 : entry.hits.back().distance;
        InsertCached(std::move(entry));
      }
    }
    for (size_t i = 0; i < f->batch.size(); ++i) {
      auto it = outcomes.find(f->batch[i].ticket);
      if (it == outcomes.end()) continue;  // ticket abandoned
      Outcome& out = it->second;
      if (!f->eval_status.ok() && !f->plan[i].from_cache) {
        out.status = f->eval_status;
      } else {
        const std::vector<QueryHit>& hits =
            f->plan[i].from_cache ? f->plan[i].cached
                                  : f->eval_hits[f->plan[i].eval_slot];
        // Cache hits are exact answers even inside a degraded batch.
        if (!f->plan[i].from_cache && f->degraded) {
          out.degraded = true;
          out.error_bound = f->eval_bounds[f->plan[i].eval_slot];
          ++counters.degraded;
        }
        out.hits = hits;
      }
      out.ready = true;
    }
  }
  cv_done.notify_all();
  cv_swap.notify_all();
  return f->eval_status;
}

Status QueryServer::Impl::ServeBatch(size_t* served_out) {
  Flight f;
  if (!FormFlight(&f)) {
    if (served_out != nullptr) *served_out = 0;
    // The expiry sweep may have readied tickets with nothing to serve.
    if (f.n_expired > 0) cv_done.notify_all();
    return Status::OK();
  }
  EvaluateFlight(&f);
  if (served_out != nullptr) *served_out = f.batch.size();
  return CommitFlight(&f);
}

Status QueryServer::Impl::Swap(const ShardedFeatureIndex* next) {
  {
    std::unique_lock<std::mutex> lock(mu);
    ++swapping;
    cv_swap.wait(lock, [&] { return inflight == 0; });
    index = next;
    --swapping;
  }
  cv_swap.notify_all();
  return Status::OK();
}

Result<QueryServer::Impl::Outcome> QueryServer::Impl::Take(
    uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu);
  auto it = outcomes.find(ticket);
  if (it == outcomes.end()) {
    return Status::NotFound("unknown or already-taken ticket " +
                            std::to_string(ticket));
  }
  while (!it->second.ready) {
    if (running) {
      cv_done.wait(lock);
    } else {
      // No worker: serve inline until this ticket's batch has run. A
      // batch failure is recorded in its tickets' outcomes, so the
      // status of a batch this ticket was not in is not this ticket's.
      lock.unlock();
      size_t served = 0;
      (void)ServeBatch(&served);
      lock.lock();
      it = outcomes.find(ticket);
      if (it == outcomes.end()) {
        return Status::NotFound("ticket lost while serving inline");
      }
      if (served == 0 && !it->second.ready) {
        // Nothing left to form: another thread may be evaluating the
        // batch that holds this ticket, so wait for its commit.
        if (inflight > 0) {
          cv_done.wait(lock);
        } else if (queue.empty()) {
          return Status::Unknown(
              "ticket never served: queue drained without it");
        }
      }
    }
    it = outcomes.find(ticket);
    if (it == outcomes.end()) {
      return Status::NotFound("ticket taken concurrently");
    }
  }
  Outcome out = std::move(it->second);
  outcomes.erase(it);
  if (!out.status.ok()) return out.status;
  return out;
}

void QueryServer::Impl::WorkerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv_work.wait(lock, [&] { return stopping || !queue.empty(); });
      if (queue.empty() && stopping) return;
    }
    // Per-request failures are recorded in the outcomes; the worker
    // itself keeps serving.
    (void)ServeBatch(nullptr);
  }
}

QueryServer::QueryServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
QueryServer::QueryServer(QueryServer&&) noexcept = default;
QueryServer& QueryServer::operator=(QueryServer&&) noexcept = default;

QueryServer::~QueryServer() {
  if (impl_ != nullptr) Stop();
}

namespace {

Status ValidateServerOptions(const MotionDatabase* database,
                             const QueryServerOptions& options) {
  if (database == nullptr) {
    return Status::InvalidArgument("null database");
  }
  if (database->empty()) {
    return Status::FailedPrecondition("database is empty");
  }
  if (options.max_queue == 0) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (options.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (options.degrade_watermark > options.max_queue) {
    return Status::InvalidArgument(
        "degrade_watermark (" + std::to_string(options.degrade_watermark) +
        ") exceeds max_queue (" + std::to_string(options.max_queue) +
        "); it could never fire");
  }
  return Status::OK();
}

}  // namespace

Result<QueryServer> QueryServer::Create(const MotionDatabase* database,
                                        const ShardedFeatureIndex* index,
                                        const QueryServerOptions& options) {
  MOCEMG_RETURN_NOT_OK(ValidateServerOptions(database, options));
  if (index != nullptr && index->database() != database) {
    return Status::InvalidArgument(
        "index is not built over the server's database");
  }
  auto impl = std::make_unique<Impl>();
  impl->db = database;
  impl->index = index;
  impl->opts = options;
  impl->clock = options.clock != nullptr ? options.clock : SystemClock();
  return QueryServer(std::move(impl));
}

Status QueryServer::SwapIndex(const ShardedFeatureIndex* index) {
  if (index != nullptr && index->database() != impl_->db) {
    return Status::InvalidArgument(
        "index is not built over the server's database");
  }
  return impl_->Swap(index);
}

Result<uint64_t> QueryServer::SubmitNearestNeighbors(
    std::vector<double> query, size_t k) {
  return impl_->Submit(std::move(query), k, 0);
}

Result<uint64_t> QueryServer::SubmitNearestNeighbors(
    std::vector<double> query, size_t k, uint64_t deadline_us) {
  return impl_->Submit(std::move(query), k, deadline_us);
}

Status QueryServer::DrainOnce(size_t* served_out) {
  return impl_->ServeBatch(served_out);
}

Status QueryServer::Drain() {
  size_t served = 0;
  do {
    MOCEMG_RETURN_NOT_OK(impl_->ServeBatch(&served));
  } while (served > 0);
  return Status::OK();
}

Result<std::vector<QueryHit>> QueryServer::TakeHits(uint64_t ticket) {
  MOCEMG_ASSIGN_OR_RETURN(Impl::Outcome out, impl_->Take(ticket));
  return std::move(out.hits);
}

Result<ServedAnswer> QueryServer::TakeAnswer(uint64_t ticket) {
  MOCEMG_ASSIGN_OR_RETURN(Impl::Outcome out, impl_->Take(ticket));
  ServedAnswer answer;
  answer.degraded = out.degraded;
  answer.error_bound = out.error_bound;
  answer.hits = std::move(out.hits);
  return answer;
}

Result<std::vector<QueryHit>> QueryServer::NearestNeighbors(
    const std::vector<double>& query, size_t k) {
  MOCEMG_ASSIGN_OR_RETURN(uint64_t ticket,
                          SubmitNearestNeighbors(query, k));
  return TakeHits(ticket);
}

Result<std::vector<std::vector<QueryHit>>>
QueryServer::NearestNeighborsBatch(
    const std::vector<std::vector<double>>& queries, size_t k) {
  // Admission rejections are handled with backpressure: take the
  // oldest outstanding result (which blocks until its batch is served,
  // freeing queue space) and retry.
  const size_t n = queries.size();
  std::vector<uint64_t> tickets(n, 0);
  std::vector<std::vector<QueryHit>> results(n);
  size_t taken = 0;
  for (size_t i = 0; i < n; ++i) {
    for (;;) {
      auto ticket = SubmitNearestNeighbors(queries[i], k);
      if (ticket.ok()) {
        tickets[i] = *ticket;
        break;
      }
      if (ticket.status().code() != StatusCode::kOutOfRange ||
          taken >= i) {
        return ticket.status();
      }
      MOCEMG_ASSIGN_OR_RETURN(results[taken], TakeHits(tickets[taken]));
      ++taken;
    }
  }
  for (; taken < n; ++taken) {
    MOCEMG_ASSIGN_OR_RETURN(results[taken], TakeHits(tickets[taken]));
  }
  return results;
}

Status QueryServer::Start() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  if (impl_->running) return Status::OK();
  impl_->stopping = false;
  impl_->running = true;
  impl_->worker = std::thread([impl = impl_.get()] { impl->WorkerLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    if (!impl_->running) return;
    impl_->stopping = true;
  }
  impl_->cv_work.notify_all();
  impl_->worker.join();
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->running = false;
    impl_->stopping = false;
  }
}

QueryServerStats QueryServer::stats() const {
  std::unique_lock<std::mutex> lock(impl_->mu);
  QueryServerStats out = impl_->counters;
  const KernelDispatchInfo kinfo = GetKernelDispatchInfo();
  out.kernel_backend = kinfo.active;
  out.cpu_features = kinfo.cpu_features;
  return out;
}

uint64_t RetryAfterMicros(const Status& status) {
  static const char kTag[] = "retry_after_us=";
  const std::string& msg = status.message();
  const size_t at = msg.find(kTag);
  if (at == std::string::npos) return 0;
  uint64_t value = 0;
  for (size_t i = at + sizeof(kTag) - 1; i < msg.size(); ++i) {
    const char c = msg[i];
    if (c < '0' || c > '9') break;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

JitteredBackoff::JitteredBackoff(const BackoffOptions& options)
    : opts_(options), rng_(options.seed), base_us_(options.initial_us) {}

uint64_t JitteredBackoff::NextDelayUs() {
  const double base = static_cast<double>(base_us_);
  const double jitter = opts_.jitter;
  // Uniform in [base·(1−j), base·(1+j)], at least 1µs so a sleep
  // always happens and the schedule stays strictly ordered.
  const double lo = base * (1.0 - jitter);
  const double hi = base * (1.0 + jitter);
  const double drawn = jitter > 0.0 ? rng_.Uniform(lo, hi) : base;
  const double next = base * opts_.multiplier;
  base_us_ = next >= static_cast<double>(opts_.max_us)
                 ? opts_.max_us
                 : static_cast<uint64_t>(next);
  const double clamped = std::min(
      std::max(drawn, 1.0), static_cast<double>(opts_.max_us));
  return static_cast<uint64_t>(clamped);
}

void JitteredBackoff::Reset() { base_us_ = opts_.initial_us; }

Result<uint64_t> SubmitWithBackoff(QueryServer* server,
                                   std::vector<double> query, size_t k,
                                   const BackoffOptions& backoff,
                                   const Clock* clock) {
  if (server == nullptr) {
    return Status::InvalidArgument("null server");
  }
  if (clock == nullptr) clock = SystemClock();
  JitteredBackoff schedule(backoff);
  Status last = Status::OK();
  const size_t attempts = std::max<size_t>(1, backoff.max_attempts);
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    Result<uint64_t> ticket = server->SubmitNearestNeighbors(query, k);
    if (ticket.ok()) return ticket;
    if (!ticket.status().IsOutOfRange()) return ticket.status();
    last = ticket.status();
    if (attempt + 1 == attempts) break;
    // Honour whichever is larger: the client's own schedule or the
    // server's observed-drain-rate hint.
    const uint64_t delay =
        std::max(schedule.NextDelayUs(), RetryAfterMicros(last));
    clock->SleepMicros(delay);
  }
  return last;
}

}  // namespace mocemg
