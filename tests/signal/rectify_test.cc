#include "signal/rectify.h"

#include <gtest/gtest.h>

namespace mocemg {
namespace {

TEST(RectifyTest, FullWave) {
  auto out = FullWaveRectify({-1.0, 2.0, -3.5, 0.0});
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 3.5, 0.0}));
}

TEST(RectifyTest, EmptySignals) {
  EXPECT_TRUE(FullWaveRectify({}).empty());
}

}  // namespace
}  // namespace mocemg
