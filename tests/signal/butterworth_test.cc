#include "signal/butterworth.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mocemg {
namespace {

constexpr double kFs = 1000.0;

double MagAtHz(const BiquadCascade& c, double hz) {
  return c.MagnitudeAt(2.0 * M_PI * hz / kFs);
}

TEST(ButterworthTest, RejectsOddOrder) {
  EXPECT_FALSE(DesignButterworthLowPass(3, 100.0, kFs).ok());
}

TEST(ButterworthTest, RejectsBadCutoffs) {
  EXPECT_FALSE(DesignButterworthLowPass(4, 0.0, kFs).ok());
  EXPECT_FALSE(DesignButterworthLowPass(4, 500.0, kFs).ok());
  EXPECT_FALSE(DesignButterworthLowPass(4, 100.0, -1.0).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DesignButterworthLowPass(4, nan, kFs).ok());
  EXPECT_FALSE(DesignButterworthLowPass(4, 100.0, nan).ok());
  EXPECT_FALSE(DesignButterworthLowPass(4, 100.0, inf).ok());
  EXPECT_FALSE(DesignButterworthHighPass(4, nan, kFs).ok());
}

TEST(ButterworthTest, LowPassHalfPowerAtCutoff) {
  auto lp = DesignButterworthLowPass(4, 100.0, kFs);
  ASSERT_TRUE(lp.ok());
  // Butterworth: |H(fc)| = 1/√2 regardless of order.
  EXPECT_NEAR(MagAtHz(*lp, 100.0), 1.0 / std::sqrt(2.0), 0.02);
}

TEST(ButterworthTest, LowPassPassbandAndStopband) {
  auto lp = DesignButterworthLowPass(4, 100.0, kFs);
  ASSERT_TRUE(lp.ok());
  EXPECT_NEAR(MagAtHz(*lp, 5.0), 1.0, 0.01);     // deep passband
  EXPECT_LT(MagAtHz(*lp, 400.0), 0.01);          // deep stopband
  // Monotonic decrease (Butterworth is maximally flat).
  EXPECT_GT(MagAtHz(*lp, 50.0), MagAtHz(*lp, 150.0));
  EXPECT_GT(MagAtHz(*lp, 150.0), MagAtHz(*lp, 300.0));
}

TEST(ButterworthTest, HighPassMirrorsLowPass) {
  auto hp = DesignButterworthHighPass(4, 100.0, kFs);
  ASSERT_TRUE(hp.ok());
  EXPECT_NEAR(MagAtHz(*hp, 100.0), 1.0 / std::sqrt(2.0), 0.02);
  EXPECT_LT(MagAtHz(*hp, 10.0), 0.01);
  EXPECT_NEAR(MagAtHz(*hp, 450.0), 1.0, 0.02);
}

TEST(ButterworthTest, HigherOrderIsSteeper) {
  auto lp2 = DesignButterworthLowPass(2, 100.0, kFs);
  auto lp8 = DesignButterworthLowPass(8, 100.0, kFs);
  ASSERT_TRUE(lp2.ok());
  ASSERT_TRUE(lp8.ok());
  EXPECT_GT(MagAtHz(*lp2, 200.0), MagAtHz(*lp8, 200.0));
}

TEST(ButterworthTest, BandPassEmgBand) {
  // The paper's conditioning band: 20–450 Hz at 1 kHz sampling.
  auto bp = DesignBandPass(4, 20.0, 450.0, kFs);
  ASSERT_TRUE(bp.ok());
  EXPECT_LT(MagAtHz(*bp, 1.0), 0.01);     // DC and drift rejected
  EXPECT_GT(MagAtHz(*bp, 100.0), 0.95);   // EMG energy passes
  EXPECT_GT(MagAtHz(*bp, 300.0), 0.9);
  EXPECT_NEAR(MagAtHz(*bp, 20.0), 1.0 / std::sqrt(2.0), 0.05);
}

TEST(ButterworthTest, BandPassRejectsInvertedBand) {
  EXPECT_FALSE(DesignBandPass(4, 450.0, 20.0, kFs).ok());
  EXPECT_FALSE(DesignBandPass(4, 100.0, 100.0, kFs).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DesignBandPass(4, nan, 450.0, kFs).ok());
  EXPECT_FALSE(DesignBandPass(4, 20.0, nan, kFs).ok());
}

TEST(ButterworthTest, BandPassRejectsEdgeAboveNyquist) {
  EXPECT_FALSE(DesignBandPass(4, 20.0, 600.0, kFs).ok());
}

TEST(ButterworthTest, SectionCountMatchesOrder) {
  auto lp = DesignButterworthLowPass(6, 80.0, kFs);
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(lp->num_sections(), 3u);
  auto bp = DesignBandPass(4, 20.0, 450.0, kFs);
  ASSERT_TRUE(bp.ok());
  EXPECT_EQ(bp->num_sections(), 4u);  // 2 HP + 2 LP
}

TEST(NotchTest, KillsCenterKeepsNeighbours) {
  auto notch = DesignNotch(60.0, 30.0, kFs);
  ASSERT_TRUE(notch.ok());
  EXPECT_LT(MagAtHz(*notch, 60.0), 1e-6);   // the hum vanishes
  EXPECT_GT(MagAtHz(*notch, 40.0), 0.95);   // EMG content survives
  EXPECT_GT(MagAtHz(*notch, 80.0), 0.95);
  EXPECT_GT(MagAtHz(*notch, 300.0), 0.99);
}

TEST(NotchTest, LowerQIsWider) {
  auto narrow = DesignNotch(60.0, 30.0, kFs);
  auto wide = DesignNotch(60.0, 2.0, kFs);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_GT(MagAtHz(*narrow, 55.0), MagAtHz(*wide, 55.0));
}

TEST(NotchTest, Validations) {
  EXPECT_FALSE(DesignNotch(0.0, 30.0, kFs).ok());
  EXPECT_FALSE(DesignNotch(600.0, 30.0, kFs).ok());
  EXPECT_FALSE(DesignNotch(60.0, 0.0, kFs).ok());
  EXPECT_FALSE(DesignNotch(60.0, 30.0, 0.0).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DesignNotch(nan, 30.0, kFs).ok());
  EXPECT_FALSE(DesignNotch(60.0, nan, kFs).ok());
  EXPECT_FALSE(
      DesignNotch(60.0, std::numeric_limits<double>::infinity(), kFs).ok());
}

TEST(ButterworthTest, FiltersSineInTimedomain) {
  // A 300 Hz sine through a 100 Hz low-pass should be strongly
  // attenuated; a 20 Hz sine should survive.
  auto lp = DesignButterworthLowPass(4, 100.0, kFs);
  ASSERT_TRUE(lp.ok());
  const size_t n = 4000;
  std::vector<double> slow(n);
  std::vector<double> fast(n);
  for (size_t i = 0; i < n; ++i) {
    slow[i] = std::sin(2.0 * M_PI * 20.0 * i / kFs);
    fast[i] = std::sin(2.0 * M_PI * 300.0 * i / kFs);
  }
  BiquadCascade lp_slow = *lp;
  auto out_slow = lp_slow.ProcessSignal(slow);
  BiquadCascade lp_fast = *lp;
  lp_fast.Reset();
  auto out_fast = lp_fast.ProcessSignal(fast);
  double rms_slow = 0.0;
  double rms_fast = 0.0;
  for (size_t i = n / 2; i < n; ++i) {  // after transient
    rms_slow += out_slow[i] * out_slow[i];
    rms_fast += out_fast[i] * out_fast[i];
  }
  EXPECT_GT(std::sqrt(rms_slow), 10.0 * std::sqrt(rms_fast));
}

}  // namespace
}  // namespace mocemg
