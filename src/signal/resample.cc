#include "signal/resample.h"

#include <cmath>

#include "signal/butterworth.h"
#include "util/macros.h"

namespace mocemg {

size_t ResampledLength(size_t input_len, double fs_in, double fs_out) {
  if (input_len == 0) return 0;
  const double duration =
      static_cast<double>(input_len - 1) / fs_in;  // seconds
  return static_cast<size_t>(std::floor(duration * fs_out)) + 1;
}

Result<std::vector<double>> Resample(const std::vector<double>& signal,
                                     double fs_in, double fs_out) {
  if (fs_in <= 0.0 || fs_out <= 0.0) {
    return Status::InvalidArgument("sample rates must be positive");
  }
  if (signal.empty()) return std::vector<double>{};
  if (fs_in == fs_out) return signal;

  std::vector<double> conditioned = signal;
  if (fs_out < fs_in) {
    // Anti-alias before downsampling.
    MOCEMG_ASSIGN_OR_RETURN(
        BiquadCascade lp,
        DesignButterworthLowPass(8, 0.45 * fs_out, fs_in));
    conditioned = lp.FiltFilt(signal);
  }

  const size_t out_len = ResampledLength(signal.size(), fs_in, fs_out);
  std::vector<double> out(out_len);
  for (size_t k = 0; k < out_len; ++k) {
    const double t = static_cast<double>(k) / fs_out;  // seconds
    const double src = t * fs_in;                      // fractional index
    const size_t i0 = static_cast<size_t>(std::floor(src));
    if (i0 + 1 >= conditioned.size()) {
      out[k] = conditioned.back();
      continue;
    }
    const double frac = src - static_cast<double>(i0);
    out[k] = (1.0 - frac) * conditioned[i0] + frac * conditioned[i0 + 1];
  }
  return out;
}

}  // namespace mocemg
