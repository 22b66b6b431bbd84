// knn_serve: independent clients sending kNN requests on an open-loop
// Poisson schedule to a QueryServer (background worker) over a 4-shard
// ShardedFeatureIndex. The database holds jittered copies of the trained
// model's 2c-dimensional final features. About half the requests repeat
// a hot set (cache path), half are fresh (index path); every 64th
// operation is a record update applied with the server quiesced through
// Stop/Start. A seeded sample of answers is checked afterwards against
// MotionDatabase::NearestNeighbors at the database state it was served
// under.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "db/motion_database.h"
#include "db/query_server.h"
#include "db/sharded_index.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mocemg::MotionDatabase;
using mocemg::QueryHit;
using mocemg::QueryServer;
using mocemg::ShardedFeatureIndex;

constexpr size_t kRecords = 40000;  // 40000 × 30 × 8 B ≈ 9.2 MiB
constexpr size_t kSmokeRecords = 2000;
constexpr size_t kShards = 4;
constexpr size_t kK = 5;
constexpr size_t kHotQueries = 64;
constexpr uint64_t kUpdateEvery = 64;
constexpr double kJitter = 0.02;
// The latency limit a ladder rung must meet at p99.
constexpr double kLatencyLimitUs = 1000.0;
// Offered rate of the p50/p99 measurement, and the fixed ladder.
constexpr double kNominalRate = 4000.0;
constexpr double kLadder[] = {2000,  4000,  8000,  12000, 16000,
                              24000, 32000, 48000, 64000, 96000};
// Requests in flight in the closed-loop capacity phase (one full
// micro-batch of the server's default max_batch).
constexpr uint64_t kWindow = 64;
// A rung whose backlog exceeds this many requests is overloaded.
constexpr size_t kMaxBacklog = 4096;
// One request in kSampleEvery is checked against the linear scan.
constexpr uint64_t kSampleEvery = 32;
constexpr size_t kMaxSamples = 4000;

struct Store {
  std::unique_ptr<MotionDatabase> db;
  std::unique_ptr<ShardedFeatureIndex> index;
  std::unique_ptr<QueryServer> server;
};

std::vector<double> Jittered(const mocemg::Matrix& base, size_t row,
                             mocemg::Rng* rng) {
  std::vector<double> v = base.Row(row);
  for (double& x : v) x += rng->Gaussian(0.0, kJitter);
  return v;
}

std::unique_ptr<MotionDatabase> BuildDatabase(
    const mocemg::MotionClassifier& model, size_t records, uint64_t seed) {
  auto db = std::make_unique<MotionDatabase>();
  mocemg::Rng rng(seed ^ 0xDB);
  const mocemg::Matrix& base = model.final_features();
  for (size_t i = 0; i < records; ++i) {
    const size_t row = i % base.rows();
    mocemg::MotionRecord rec;
    rec.label = model.labels()[row];
    rec.feature = Jittered(base, row, &rng);
    mocemg::Status st = db->Insert(std::move(rec));
    if (!st.ok()) Die("database insert: " + st.ToString());
  }
  return db;
}

Store BuildStore(const mocemg::MotionClassifier& model, size_t records,
                 uint64_t seed, size_t build_threads, size_t server_threads) {
  Store s;
  s.db = BuildDatabase(model, records, seed);
  mocemg::ShardedIndexOptions iopts;
  iopts.num_shards = kShards;
  iopts.index.parallel.max_threads = build_threads;
  auto index = ShardedFeatureIndex::Build(s.db.get(), iopts);
  if (!index.ok()) Die("index build: " + index.status().ToString());
  s.index = std::make_unique<ShardedFeatureIndex>(*std::move(index));
  mocemg::QueryServerOptions sopts;
  sopts.parallel.max_threads = server_threads;
  auto server = QueryServer::Create(s.db.get(), s.index.get(), sopts);
  if (!server.ok()) Die("server: " + server.status().ToString());
  s.server = std::make_unique<QueryServer>(*std::move(server));
  return s;
}

// An answer kept for the after-run check.
struct Sample {
  std::vector<double> query;
  std::vector<QueryHit> hits;
  size_t state = 0;  // updates applied before the request was submitted
};

struct Update {
  size_t record = 0;
  std::vector<double> feature;
};

struct InFlight {
  uint64_t ticket = 0;
  int64_t due_ns = 0;
  uint64_t root_span = kNoSpan;
  uint64_t request = 0;
  bool sampled = false;
  size_t state = 0;
  std::vector<double> query;  // kept only when sampled
};

struct PhaseResult {
  std::vector<double> latency_us;
  std::vector<double> late_us;  // submit time minus due time
  std::vector<double> update_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;     // rejected or failed requests
  uint64_t failed_answers = 0;  // written by the collector thread only
  bool overloaded = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;       // when the phase's schedule ended
  int64_t drained_ns = 0;   // when its last answer was observed
};

// Drives the server: one generator (this thread) on the open-loop
// schedule, one collector thread taking answers in submission order.
class LoadGenerator {
 public:
  LoadGenerator(Store* store, const mocemg::MotionClassifier* model,
                uint64_t seed, Tracer* tracer)
      : store_(store), model_(model), rng_(seed ^ 0x5E12), tracer_(tracer) {
    mocemg::Rng hot_rng(seed ^ 0x407);
    for (size_t i = 0; i < kHotQueries; ++i) {
      hot_.push_back(Jittered(model->final_features(),
                              hot_rng.NextBelow(model->final_features().rows()),
                              &hot_rng));
    }
  }

  // Open loop at `rate` requests/s when `window` is 0; otherwise closed
  // loop keeping `window` requests in flight (a request is then due
  // when it is sent).
  PhaseResult Run(double rate, double seconds, bool keep_samples,
                  uint64_t window = 0) {
    PhaseResult out;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    OpenLoopSchedule schedule(rate, start, rng_.NextUint64());
    out.start_ns = start;
    uint64_t sent = 0;
    completed_.store(0);
    std::thread collector([&] { Collect(&out); });
    for (;;) {
      int64_t due = 0;
      if (window == 0) {
        due = schedule.NextDueNs();
        if (due >= end) break;
        WaitUntil(due);
      } else {
        while (sent - completed_.load(std::memory_order_acquire) >= window) {
        }
        due = NowNs();
        if (due >= end) break;
      }
      const uint64_t op = next_op_++;
      if (op % kUpdateEvery == kUpdateEvery - 1) {
        out.update_us.push_back(static_cast<double>(ApplyOneUpdate(op, due)) /
                                1e3);
        ++out.attempted;
        continue;
      }
      InFlight req;
      req.due_ns = due;
      req.request = op + 1;
      req.state = updates_.size();
      const bool hot = (rng_.NextUint64() & 1) != 0;
      std::vector<double> query =
          hot ? hot_[rng_.NextBelow(hot_.size())]
              : Jittered(model_->final_features(),
                         rng_.NextBelow(model_->final_features().rows()),
                         &rng_);
      req.sampled = keep_samples && op % kSampleEvery == 0 &&
                    samples_requested_ < kMaxSamples;
      samples_requested_ += req.sampled ? 1 : 0;
      if (req.sampled) req.query = query;
      if (tracer_->enabled()) req.root_span = tracer_->NewId();
      mocemg::Result<uint64_t> ticket = [&] {
        ScopedSpan span(tracer_, "db.server.submit", req.request,
                        req.root_span);
        return store_->server->SubmitNearestNeighbors(std::move(query), kK);
      }();
      out.late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
      ++out.attempted;
      if (!ticket.ok()) {
        ++out.failed;
        continue;
      }
      req.ticket = *ticket;
      ++sent;
      if (!Push(std::move(req))) {
        out.overloaded = true;
        break;
      }
    }
    out.end_ns = NowNs();
    Push(InFlight{}, /*last=*/true);
    collector.join();
    out.failed += out.failed_answers;
    return out;
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<Update>& updates() const { return updates_; }

 private:
  // Spins: a sleeping generator wakes late by up to a scheduler tick,
  // which would show as latency of the requests it sends.
  static void WaitUntil(int64_t due_ns) {
    while (NowNs() < due_ns) {
    }
  }

  // Stop and Start are the server's quiesce around the mutation.
  int64_t ApplyOneUpdate(uint64_t op, int64_t due) {
    Update u;
    u.record = rng_.NextBelow(store_->db->size());
    u.feature = Jittered(model_->final_features(),
                         u.record % model_->final_features().rows(), &rng_);
    const uint64_t request = op + 1;
    {
      ScopedSpan root(tracer_, "bench.update", request);
      {
        ScopedSpan s(tracer_, "db.server.stop", request, root.id());
        store_->server->Stop();
      }
      mocemg::Status st;
      {
        ScopedSpan s(tracer_, "db.database.update_feature", request,
                     root.id());
        st = store_->db->UpdateFeature(u.record, u.feature);
      }
      if (st.ok()) {
        ScopedSpan s(tracer_, "db.index.apply_update", request, root.id());
        st = store_->index->ApplyUpdate(u.record);
      }
      if (!st.ok()) Die("update: " + st.ToString());
      {
        ScopedSpan s(tracer_, "db.server.start", request, root.id());
        st = store_->server->Start();
      }
      if (!st.ok()) Die("server restart: " + st.ToString());
    }
    updates_.push_back(std::move(u));
    return NowNs() - due;
  }

  // Queues a request for the collector; false when the backlog is over
  // the overload bound.
  bool Push(InFlight req, bool last = false) {
    std::lock_guard<std::mutex> lock(mu_);
    if (last) {
      done_ = true;
    } else {
      queue_.push_back(std::move(req));
    }
    cv_.notify_one();
    return queue_.size() <= kMaxBacklog;
  }

  void Collect(PhaseResult* out) {
    for (;;) {
      InFlight req;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) {
          done_ = false;
          out->drained_ns = NowNs();
          return;
        }
        req = std::move(queue_.front());
        queue_.pop_front();
      }
      mocemg::Result<std::vector<QueryHit>> hits = [&] {
        ScopedSpan span(tracer_, "db.server.take", req.request,
                        req.root_span);
        return store_->server->TakeHits(req.ticket);
      }();
      const int64_t done = NowNs();
      completed_.fetch_add(1, std::memory_order_release);
      if (tracer_->enabled()) {
        Span root;
        root.name = "bench.knn_request";
        root.id = req.root_span;
        root.request = req.request;
        root.start_ns = req.due_ns;
        root.end_ns = done;
        tracer_->Record(root);
      }
      out->latency_us.push_back(
          static_cast<double>(OpenLoopLatencyNs(req.due_ns, done)) / 1e3);
      if (!hits.ok() || hits->size() != kK) {
        ++out->failed_answers;
        continue;
      }
      if (req.sampled) {
        samples_.push_back({std::move(req.query), *std::move(hits), req.state});
      }
    }
  }

  Store* store_;
  const mocemg::MotionClassifier* model_;
  mocemg::Rng rng_;
  Tracer* tracer_;
  std::vector<std::vector<double>> hot_;
  uint64_t next_op_ = 0;
  std::atomic<uint64_t> completed_{0};  // answers the collector has taken
  size_t samples_requested_ = 0;
  std::vector<Update> updates_;
  std::vector<Sample> samples_;  // written by the collector only

  std::mutex mu_;  // guards queue_ and done_
  std::condition_variable cv_;
  std::deque<InFlight> queue_;
  bool done_ = false;
};

// Replays the updates on a fresh copy of the initial database and
// checks every sampled answer against the linear scan at its state.
void VerifySamples(const mocemg::MotionClassifier& model, size_t records,
                   uint64_t seed, const LoadGenerator& load,
                   WorkloadReport* report) {
  std::unique_ptr<MotionDatabase> ref = BuildDatabase(model, records, seed);
  std::vector<const Sample*> by_state;
  for (const Sample& s : load.samples()) by_state.push_back(&s);
  std::stable_sort(by_state.begin(), by_state.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->state < b->state;
                   });
  size_t applied = 0;
  for (const Sample* s : by_state) {
    while (applied < s->state) {
      const Update& u = load.updates()[applied++];
      if (!ref->UpdateFeature(u.record, u.feature).ok()) {
        report->Fail("reference update failed");
      }
    }
    auto want = ref->NearestNeighbors(s->query, kK);
    bool same = want.ok() && want->size() == s->hits.size();
    for (size_t i = 0; same && i < want->size(); ++i) {
      same = (*want)[i].record_index == s->hits[i].record_index &&
             (*want)[i].distance == s->hits[i].distance;
    }
    if (!same) report->Fail("served answer differs from the linear scan");
  }
  report->Named("knn_serve.checked_answers",
                static_cast<double>(by_state.size()), "count");
}

double P(std::vector<double> v, double q) { return Percentile(&v, q); }

void Account(const PhaseResult& r, WorkloadReport* report) {
  report->attempted += r.attempted;
  for (uint64_t i = 0; i < r.failed; ++i) {
    report->Fail("request rejected or failed");
  }
}

}  // namespace

WorkloadReport RunKnnServe(const RunConfig& config) {
  WorkloadReport report;
  const size_t records = config.smoke ? kSmokeRecords : kRecords;
  const size_t nproc = NumCpus();
  // Generator + collector + server worker, plus pool threads for the
  // server's batch evaluation up to nproc in total.
  const size_t server_threads = nproc > 3 ? nproc - 2 : 1;
  const std::vector<mocemg::LabeledMotion> training =
      TrainingSet(config.seed, config.smoke);
  mocemg::MotionClassifier model;
  Store store;
  // The index build takes seconds, so set-up repeats at most 3 times.
  const size_t repeats = std::min<size_t>(config.setup_repeats, 3);
  const double setup_s = MedianSetupSeconds(repeats, [&](size_t) {
    store = Store{};
    model = TrainOrDie(training, config.seed);
    store = BuildStore(model, records, config.seed, nproc, server_threads);
  });
  if (!store.server->Start().ok()) Die("server start");
  report.Named("knn_serve.records", static_cast<double>(records), "count");
  report.Named("knn_serve.working_set_mb",
               static_cast<double>(records * model.final_features().cols() *
                                   sizeof(double)) /
                   (1024.0 * 1024.0),
               "MB");

  Tracer tracer(config.trace, size_t{1} << 17);
  Tracer off(false, 0);
  // One generator for every phase, so the checks replay all its updates.
  LoadGenerator load(&store, &model, config.seed, &off);
  // Warm the cache and lazy state at the nominal rate (not measured).
  load.Run(kNominalRate, std::min(0.3, config.seconds * 0.05), false);

  if (config.trace) {
    if (config.trace_setup) {
      TraceTraining(training, model, config.seed, &tracer, &report);
    }
    const mocemg::QueryServerStats before = store.server->stats();
    PhaseResult a = load.Run(kNominalRate, config.seconds * 0.35, true);
    load.set_tracer(&tracer);
    PhaseResult b = load.Run(kNominalRate, config.seconds * 0.35, true);
    Account(a, &report);
    Account(b, &report);
    const mocemg::QueryServerStats after = store.server->stats();
    auto delta = [](uint64_t x, uint64_t y) {
      return static_cast<double>(y - x);
    };
    const double hits = delta(before.cache_hits, after.cache_hits);
    const double misses = delta(before.cache_misses, after.cache_misses);
    const double submitted = delta(before.submitted, after.submitted);
    const double batches = delta(before.batches, after.batches);
    report.Layer("db.server.cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.Layer("db.server.coalesced_ratio",
                 submitted > 0
                     ? delta(before.coalesced, after.coalesced) / submitted
                     : 0.0,
                 "ratio");
    report.Layer("db.server.mean_batch",
                 batches > 0 ? delta(before.served, after.served) / batches
                             : 0.0,
                 "count");
    report.Layer("db.server.queue_high_water",
                 static_cast<double>(after.queue_high_water), "count");
    report.Layer("db.server.rejected", delta(before.rejected, after.rejected),
                 "count");
    report.Layer("db.server.expired", delta(before.expired, after.expired),
                 "count");
    report.Layer("bench.generator_late_p99_us", P(b.late_us, 0.99), "us");
    store.server->Stop();

    // Update path, from the traced phase's spans.
    const auto by_name = Tracer::ByName(tracer.Collect());
    auto mean_us = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : it->second.mean_us();
    };
    report.Layer("db.index.apply_update_us", mean_us("db.index.apply_update"),
                 "us");
    report.Layer("db.database.update_feature_us",
                 mean_us("db.database.update_feature"), "us");
    report.Layer("db.server.quiesce_us",
                 mean_us("db.server.stop") + mean_us("db.server.start"), "us");

    // The index alone: BatchNearestNeighbors on blocks of fresh queries.
    mocemg::Rng qrng(config.seed ^ 0xB10C);
    mocemg::IndexQueryStats stats;
    mocemg::ParallelOptions par;
    par.max_threads = server_threads;
    size_t queries = 0;
    int64_t busy_ns = 0;
    const int64_t end = NowNs() + static_cast<int64_t>(config.seconds * 0.2e9);
    for (uint64_t block = 0; NowNs() < end || block == 0; ++block) {
      std::vector<std::vector<double>> q;
      for (int i = 0; i < 64; ++i) {
        q.push_back(Jittered(model.final_features(),
                             qrng.NextBelow(model.final_features().rows()),
                             &qrng));
      }
      const int64_t t0 = NowNs();
      mocemg::IndexQueryStats block_stats;
      auto res = [&] {
        ScopedSpan span(&tracer, "db.index.batch_knn",
                        (uint64_t{1} << 62) + block);
        return store.index->BatchNearestNeighbors(q, kK, &block_stats,
                                                  nullptr, &par);
      }();
      stats.distance_computations += block_stats.distance_computations;
      stats.partitions_visited += block_stats.partitions_visited;
      stats.partitions_pruned += block_stats.partitions_pruned;
      stats.f32_scans += block_stats.f32_scans;
      stats.f32_refined += block_stats.f32_refined;
      busy_ns += NowNs() - t0;
      queries += q.size();
      if (!res.ok()) {
        report.Fail("BatchNearestNeighbors: " + res.status().ToString());
        continue;
      }
      // Spot-check the first query of every block against the scan.
      auto want = store.db->NearestNeighbors(q[0], kK);
      if (!want.ok() || (*want)[0].record_index != (*res)[0][0].record_index ||
          (*want)[0].distance != (*res)[0][0].distance) {
        report.Fail("index answer differs from the linear scan");
      }
      ++report.attempted;
    }
    const double nq = static_cast<double>(queries);
    const double dist_per_query =
        static_cast<double>(stats.distance_computations) / nq;
    const double parts = static_cast<double>(stats.partitions_visited +
                                             stats.partitions_pruned);
    report.Layer("db.index.batch_knn_us_per_query",
                 static_cast<double>(busy_ns) / 1e3 / nq, "us");
    report.Layer("db.index.distance_computations_per_query", dist_per_query,
                 "count");
    report.Layer("db.index.partition_prune_ratio",
                 parts > 0 ? static_cast<double>(stats.partitions_pruned) /
                                 parts
                           : 0.0,
                 "ratio");
    report.Layer("db.index.f32_refine_ratio",
                 stats.f32_scans > 0
                     ? static_cast<double>(stats.f32_refined) /
                           static_cast<double>(stats.f32_scans)
                     : 0.0,
                 "ratio");
    // Computed, not measured: distance evaluations × dim × 8 bytes.
    report.Layer("util.kernels.bytes_per_query",
                 dist_per_query *
                     static_cast<double>(model.final_features().cols()) * 8.0,
                 "B");
    ReportTrace("knn_serve", tracer, Median(a.latency_us),
                Median(b.latency_us), config.trace_dir, &report);
    VerifySamples(model, records, config.seed, load, &report);
    return report;
  }

  // Open-loop latency at the nominal rate and capacity (closed loop
  // with a full micro-batch in flight) alternate in short slices, and
  // each metric is the median over slices: a noisy stretch of the host
  // shorter than half the run then moves neither.
  PhaseResult nominal;
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  std::vector<double> slice_rates;
  const int rounds = std::max(1, static_cast<int>(config.seconds * 0.7 / 0.6));
  const double slice_s = config.seconds * 0.7 / rounds;
  for (int r = 0; r < rounds; ++r) {
    PhaseResult open = load.Run(kNominalRate, slice_s * 2.0 / 3.0, true);
    Account(open, &report);
    slice_p50.push_back(P(open.latency_us, 0.50));
    slice_p99.push_back(P(open.latency_us, 0.99));
    nominal.latency_us.insert(nominal.latency_us.end(),
                              open.latency_us.begin(), open.latency_us.end());
    nominal.late_us.insert(nominal.late_us.end(), open.late_us.begin(),
                           open.late_us.end());
    nominal.update_us.insert(nominal.update_us.end(), open.update_us.begin(),
                             open.update_us.end());
    PhaseResult closed = load.Run(0.0, slice_s / 3.0, true, kWindow);
    Account(closed, &report);
    slice_rates.push_back(
        static_cast<double>(closed.latency_us.size()) /
        (static_cast<double>(closed.drained_ns - closed.start_ns) / 1e9));
  }
  const double capacity = Median(slice_rates);

  // Ladder: the highest rate whose p99 meets the limit with no
  // rejection and no growing backlog. Overload is the ladder's probe,
  // so its rejections end the climb instead of counting as failures.
  double max_qps = 0.0;
  const double rung_s = config.seconds * 0.3 / 4.0;
  for (double rate : kLadder) {
    PhaseResult r = load.Run(rate, rung_s, true);
    const bool pass = !r.overloaded && r.failed == 0 &&
                      P(r.latency_us, 0.99) <= kLatencyLimitUs &&
                      r.drained_ns - r.end_ns <=
                          static_cast<int64_t>(kLatencyLimitUs * 1e3);
    std::printf("rung\t%.0f\t%s\tp50_us=%.1f\tp99_us=%.1f\n", rate,
                pass ? "pass" : "fail", P(r.latency_us, 0.5),
                P(r.latency_us, 0.99));
    report.attempted += r.attempted - r.failed;
    if (!pass) break;
    max_qps = rate;
  }
  store.server->Stop();
  VerifySamples(model, records, config.seed, load, &report);

  const double rss = PeakRssMb();
  const double p50 = Median(slice_p50);
  const double p99 = Median(slice_p99);
  report.Named("setup_s", setup_s, "s");
  report.Named("peak_rss_mb", rss, "MB");
  report.Named("error_rate",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
               "ratio");
  report.Named("knn_p50_us", p50, "us");
  report.Named("knn_p99_us", p99, "us");
  report.Named("knn_pooled_p99_us", P(nominal.latency_us, 0.99), "us");
  report.Named("knn_samples", static_cast<double>(nominal.latency_us.size()),
               "count");
  report.Named("knn_max_qps", max_qps, "1/s");
  report.Named("knn_capacity_qps", capacity, "1/s");

  report.Named("update_p99_us", P(nominal.update_us, 0.99), "us");
  report.Named("update_samples", static_cast<double>(nominal.update_us.size()),
               "count");
  report.Named("knn_generator_late_p99_us", P(nominal.late_us, 0.99), "us");
  report.Contract("setup_s", setup_s, "s");
  report.Contract("peak_rss_mb", rss, "MB");
  report.Contract("op_p50_us", p50, "us");
  report.Contract("op_p99_us", p99, "us");
  report.Contract("ops_per_s", capacity, "1/s");
  return report;
}

}  // namespace perfbench
