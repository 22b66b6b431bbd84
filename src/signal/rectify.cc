#include "signal/rectify.h"

#include <cmath>

namespace mocemg {

std::vector<double> FullWaveRectify(const std::vector<double>& signal) {
  std::vector<double> out(signal.size());
  for (size_t i = 0; i < signal.size(); ++i) out[i] = std::fabs(signal[i]);
  return out;
}

}  // namespace mocemg
