#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double h = static_cast<double>(values->size() - 1) *
                   std::clamp(q, 0.0, 1.0);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  return (*values)[lo] +
         (h - static_cast<double>(lo)) * ((*values)[hi] - (*values)[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

void LatencyHistogram::Add(int64_t ns) {
  ns = std::max<int64_t>(ns, 0);
  if (ns < kLinearNs) {
    ++counts_[static_cast<size_t>(ns)];
  } else {
    overflow_.push_back(ns);
    overflow_sorted_ = false;
  }
  ++count_;
  sum_ns_ += static_cast<double>(ns);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  overflow_sorted_ = false;
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

int64_t LatencyHistogram::ValueAtRank(uint64_t rank) const {
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (rank < seen) return static_cast<int64_t>(i);
  }
  if (!overflow_sorted_) {
    std::sort(overflow_.begin(), overflow_.end());
    overflow_sorted_ = true;
  }
  return overflow_[rank - seen];
}

double LatencyHistogram::PercentileNs(double q) const {
  if (count_ == 0) return 0.0;
  const double h = static_cast<double>(count_ - 1) * std::clamp(q, 0.0, 1.0);
  const uint64_t lo = static_cast<uint64_t>(std::floor(h));
  const uint64_t hi = std::min(lo + 1, count_ - 1);
  const double a = static_cast<double>(ValueAtRank(lo));
  const double b = static_cast<double>(ValueAtRank(hi));
  return a + (h - static_cast<double>(lo)) * (b - a);
}

OpenLoopSchedule::OpenLoopSchedule(double rate_per_s, int64_t start_ns,
                                   uint64_t seed)
    : rate_per_s_(rate_per_s),
      due_ns_(static_cast<double>(start_ns)),
      rng_(seed) {}

int64_t OpenLoopSchedule::NextDueNs() {
  // Exponential gap with mean 1/rate; 1 - u keeps the log argument in
  // (0, 1]. Accumulated in double so the schedule does not drift by
  // per-gap truncation.
  const double u = rng_.NextDouble();
  const double gap_ns = -std::log(1.0 - u) * 1e9 / rate_per_s_;
  due_ns_ += std::max(gap_ns, 1.0);
  return static_cast<int64_t>(due_ns_);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
