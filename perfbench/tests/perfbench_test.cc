// Unit tests of the benchmark's own arithmetic: percentiles, the
// open-loop schedule and latency, and span self times.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(&v, 1.0), 4.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // rank h = 99 * 0.99 = 98.01 → 99 + 0.01 * (100 - 99)
  EXPECT_DOUBLE_EQ(Percentile(&hundred, 0.99), 99.01);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
}

TEST(PercentileTest, HistogramMatchesSortedSamples) {
  mocemg::Rng rng(3);
  LatencyHistogram hist;
  LatencyHistogram other;
  std::vector<double> raw;
  for (int i = 0; i < 20000; ++i) {
    // Mostly sub-65 µs values plus a tail past the linear range.
    const int64_t ns = i % 97 == 0
                           ? 70000 + static_cast<int64_t>(rng.NextBelow(50000))
                           : static_cast<int64_t>(rng.NextBelow(5000));
    (i % 2 == 0 ? hist : other).Add(ns);
    raw.push_back(static_cast<double>(ns));
  }
  hist.Merge(other);
  ASSERT_EQ(hist.count(), raw.size());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    std::vector<double> copy = raw;
    EXPECT_DOUBLE_EQ(hist.PercentileNs(q), Percentile(&copy, q)) << q;
  }
}

TEST(OpenLoopTest, DueTimesDependOnlyOnSeedAndRate) {
  OpenLoopSchedule a(1000.0, 5'000'000, 42);
  OpenLoopSchedule b(1000.0, 5'000'000, 42);
  OpenLoopSchedule c(1000.0, 5'000'000, 43);
  int64_t prev = 5'000'000;
  bool differs = false;
  double sum_gap = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int64_t da = a.NextDueNs();
    EXPECT_EQ(da, b.NextDueNs());
    differs |= da != c.NextDueNs();
    EXPECT_GT(da, prev);
    sum_gap += static_cast<double>(da - prev);
    prev = da;
  }
  EXPECT_TRUE(differs);
  // Poisson arrivals at 1000/s: mean gap 1 ms.
  EXPECT_NEAR(sum_gap / n, 1e6, 1e6 * 0.02);
}

TEST(OpenLoopTest, LatencyCountsTheWaitBehindAStall) {
  // Requests due at 0, 1, 2, 3 ms; the sender stalls until 10 ms and
  // each answer takes 0.5 ms after it is sent, back to back.
  OpenLoopSchedule s(1000.0, 0, 7);
  std::vector<int64_t> due;
  for (int i = 0; i < 4; ++i) due.push_back(s.NextDueNs());
  int64_t sender_free = 10'000'000;
  std::vector<int64_t> latency;
  for (int64_t d : due) {
    const int64_t sent = std::max(d, sender_free);
    const int64_t done = sent + 500'000;
    sender_free = done;
    latency.push_back(OpenLoopLatencyNs(d, done));
  }
  for (size_t i = 0; i < due.size(); ++i) {
    // Timed from the due time, so the stall shows in every request due
    // during it, not just the first.
    EXPECT_EQ(latency[i], 10'000'000 + 500'000 * static_cast<int64_t>(i + 1) -
                              due[i]);
    EXPECT_GT(latency[i], 500'000);
  }
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "x.y";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      MakeSpan(1, kNoSpan, 0, 100),
      MakeSpan(2, 1, 10, 30),   // overlaps span 3 (another thread)
      MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120),  // runs past its parent: clipped
      MakeSpan(5, 2, 15, 20),   // grandchild: counts against span 2 only
      MakeSpan(6, 99, 0, 40),   // parent not recorded: a root
  };
  const std::vector<int64_t> self = ComputeSelfTimes(spans);
  EXPECT_EQ(self[0], 100 - (40 + 10));
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
  EXPECT_EQ(self[5], 40);
}

TEST(SelfTimeTest, LayersSumSelfTimes) {
  std::vector<Span> spans = {MakeSpan(1, kNoSpan, 0, 100),
                             MakeSpan(2, 1, 0, 60), MakeSpan(3, 1, 60, 70)};
  spans[0].name = "bench.op";
  spans[1].name = "emg.parse_csv";
  spans[2].name = "emg.condition";
  EXPECT_EQ(LayerOf("emg.parse_csv"), "emg");
  EXPECT_EQ(LayerOf("bench"), "bench");
  const auto layers = Tracer::ByLayer(spans);
  EXPECT_EQ(layers.at("emg").self_ns, 70);
  EXPECT_EQ(layers.at("emg").count, 2u);
  EXPECT_EQ(layers.at("bench").self_ns, 30);
  const auto names = Tracer::ByName(spans);
  EXPECT_DOUBLE_EQ(names.at("emg.parse_csv").mean_us(), 0.06);
}

TEST(TracerTest, CollectsSpansFromEveryThreadWithUniqueIds) {
  Tracer tracer(true, 1000);
  auto work = [&] {
    for (int i = 0; i < 100; ++i) {
      ScopedSpan root(&tracer, "bench.op", i);
      ScopedSpan child(&tracer, "core.step", i, root.id());
    }
  };
  std::thread t1(work);
  std::thread t2(work);
  work();
  t1.join();
  t2.join();
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 600u);
  std::set<uint64_t> ids;
  for (const Span& s : spans) ids.insert(s.id);
  EXPECT_EQ(ids.size(), spans.size());
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_FALSE(tracer.nearly_full());

  Tracer off(false, 0);
  { ScopedSpan s(&off, "bench.op", 1); }
  EXPECT_TRUE(off.Collect().empty());
}

}  // namespace
}  // namespace perfbench
