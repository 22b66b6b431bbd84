#include "signal/resample.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mocemg {
namespace {

TEST(ResampleTest, SameRateIsIdentity) {
  std::vector<double> v{1, 2, 3};
  auto out = Resample(v, 120.0, 120.0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, v);
}

TEST(ResampleTest, RejectsBadRates) {
  EXPECT_FALSE(Resample({1.0}, 0.0, 120.0).ok());
  EXPECT_FALSE(Resample({1.0}, 120.0, -1.0).ok());
}

TEST(ResampleTest, EmptyInput) {
  auto out = Resample({}, 1000.0, 120.0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ResampleTest, ReportedLengthMatches) {
  std::vector<double> v(1000, 0.0);
  auto out = Resample(v, 1000.0, 120.0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), ResampledLength(v.size(), 1000.0, 120.0));
  // ~1 second at 120 Hz.
  EXPECT_NEAR(static_cast<double>(out->size()), 120.0, 2.0);
}

TEST(ResampleTest, EmgRateToMocapRate) {
  // The paper's exact conversion: 1000 Hz → 120 Hz. A 10 Hz sine (well
  // inside both Nyquists) must survive with its amplitude.
  const double fs_in = 1000.0;
  const size_t n = 5000;
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * M_PI * 10.0 * i / fs_in);
  }
  auto out = Resample(v, fs_in, 120.0);
  ASSERT_TRUE(out.ok());
  double peak = 0.0;
  for (size_t i = out->size() / 4; i < 3 * out->size() / 4; ++i) {
    peak = std::max(peak, std::fabs((*out)[i]));
  }
  EXPECT_NEAR(peak, 1.0, 0.05);
}

TEST(ResampleTest, DownsamplingSuppressesAliases) {
  // 200 Hz sine is above the 60 Hz Nyquist of the 120 Hz target; the
  // anti-alias filter must kill it rather than fold it.
  const double fs_in = 1000.0;
  const size_t n = 5000;
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * M_PI * 200.0 * i / fs_in);
  }
  auto out = Resample(v, fs_in, 120.0);
  ASSERT_TRUE(out.ok());
  double rms = 0.0;
  for (double x : *out) rms += x * x;
  rms = std::sqrt(rms / static_cast<double>(out->size()));
  EXPECT_LT(rms, 0.05);
}

TEST(ResampleTest, UpsamplingInterpolatesLinearRamp) {
  std::vector<double> ramp{0.0, 1.0, 2.0, 3.0};
  auto out = Resample(ramp, 10.0, 20.0);
  ASSERT_TRUE(out.ok());
  // Every output sample lies on the ramp.
  for (size_t k = 0; k < out->size(); ++k) {
    const double t = static_cast<double>(k) / 20.0;
    EXPECT_NEAR((*out)[k], t * 10.0, 1e-9);
  }
}

}  // namespace
}  // namespace mocemg
