/// \file stats.h
/// \brief Small measurement helpers of the benchmark: percentiles over
/// latency samples, the open-loop arrival schedule, and the peak-RSS
/// probe. Pure functions where possible so the tests can pin them.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief The q-quantile (q in [0, 1]) of `values`, linearly
/// interpolated between closest ranks: rank h = (n - 1) * q, result
/// x[floor h] + (h - floor h) * (x[floor h + 1] - x[floor h]) over the
/// sorted values. Returns 0 for an empty input. Sorts `values`.
double Percentile(std::vector<double>* values, double q);

/// \brief Median of `values` (Percentile at 0.5) without modifying it.
double Median(std::vector<double> values);

/// \brief Exact latency histogram for high-rate samples: one counter
/// per nanosecond below kLinearNs, exact values above. Percentile()
/// returns the same value Percentile() over the raw samples would.
class LatencyHistogram {
 public:
  static constexpr int64_t kLinearNs = 1 << 16;

  LatencyHistogram() : counts_(kLinearNs, 0) {}

  void Add(int64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
  }
  /// The q-quantile in ns, interpolated as in Percentile().
  double PercentileNs(double q) const;

 private:
  // Value of the sample at 0-based sorted rank `rank`.
  int64_t ValueAtRank(uint64_t rank) const;

  std::vector<uint32_t> counts_;
  mutable std::vector<int64_t> overflow_;  // sorted lazily
  mutable bool overflow_sorted_ = true;
  uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

/// \brief Open-loop arrival schedule: Poisson arrivals at a fixed
/// offered rate, as independent clients produce. Due times depend only
/// on the seed, the rate and the request's position, never on when the
/// generator actually sent earlier requests, so a stall shows up as
/// latency of every request that fell due during it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, int64_t start_ns, uint64_t seed);

  /// Due time (ns) of the next request; strictly increasing.
  int64_t NextDueNs();

 private:
  double rate_per_s_;
  double due_ns_;
  mocemg::Rng rng_;
};

/// \brief Latency of an open-loop request: from its due time, not from
/// when it was sent, to when its answer was observed.
inline int64_t OpenLoopLatencyNs(int64_t due_ns, int64_t done_ns) {
  return done_ns - due_ns;
}

/// \brief Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
