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

Result<BiquadCascade> DesignAntiAlias(double fs_in, double fs_out) {
  return DesignButterworthLowPass(8, 0.45 * fs_out, fs_in);
}

void InterpolateLinear(const double* src, size_t stride, size_t n,
                       double fs_in, double fs_out, double* out) {
  const size_t out_len = ResampledLength(n, fs_in, fs_out);
  for (size_t k = 0; k < out_len; ++k) {
    const double t = static_cast<double>(k) / fs_out;  // seconds
    const double pos = t * fs_in;                      // fractional index
    const size_t i0 = static_cast<size_t>(std::floor(pos));
    if (i0 + 1 >= n) {
      out[k] = src[(n - 1) * stride];
      continue;
    }
    const double frac = pos - static_cast<double>(i0);
    out[k] = (1.0 - frac) * src[i0 * stride] + frac * src[(i0 + 1) * stride];
  }
}

Result<std::vector<double>> Resample(const std::vector<double>& signal,
                                     double fs_in, double fs_out) {
  if (fs_in <= 0.0 || fs_out <= 0.0) {
    return Status::InvalidArgument("sample rates must be positive");
  }
  if (signal.empty()) return std::vector<double>{};
  if (fs_in == fs_out) return signal;

  std::vector<double> out(ResampledLength(signal.size(), fs_in, fs_out));
  if (fs_out < fs_in) {
    MOCEMG_ASSIGN_OR_RETURN(BiquadCascade lp, DesignAntiAlias(fs_in, fs_out));
    const std::vector<double> filtered = lp.FiltFilt(signal);
    InterpolateLinear(filtered.data(), 1, filtered.size(), fs_in, fs_out,
                      out.data());
  } else {
    InterpolateLinear(signal.data(), 1, signal.size(), fs_in, fs_out,
                      out.data());
  }
  return out;
}

}  // namespace mocemg
