#include "signal/butterworth.h"

#include <cmath>
#include <vector>

#include "util/macros.h"

namespace mocemg {
namespace {

Status ValidateArgs(int order, double cutoff_hz, double sample_rate_hz) {
  if (order <= 0 || order % 2 != 0) {
    return Status::InvalidArgument(
        "Butterworth order must be positive and even, got " +
        std::to_string(order));
  }
  // Written so NaN fails each range check.
  if (!(sample_rate_hz > 0.0 && std::isfinite(sample_rate_hz))) {
    return Status::InvalidArgument("sample rate must be positive");
  }
  if (!(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0)) {
    return Status::InvalidArgument(
        "cutoff must lie in (0, fs/2): fc=" + std::to_string(cutoff_hz) +
        " fs=" + std::to_string(sample_rate_hz));
  }
  return Status::OK();
}

// Q values of the Butterworth pole pairs for an even-order filter:
// Q_k = 1 / (2 sin(θ_k)), θ_k = π (2k + 1) / (2N).
std::vector<double> ButterworthQs(int order) {
  std::vector<double> qs;
  for (int k = 0; k < order / 2; ++k) {
    const double theta = M_PI * (2.0 * k + 1.0) / (2.0 * order);
    qs.push_back(1.0 / (2.0 * std::sin(theta)));
  }
  return qs;
}

// RBJ audio-EQ-cookbook biquads via bilinear transform.
BiquadCoefficients RbjLowPass(double fc, double fs, double q) {
  const double w0 = 2.0 * M_PI * fc / fs;
  const double cw = std::cos(w0);
  const double alpha = std::sin(w0) / (2.0 * q);
  const double a0 = 1.0 + alpha;
  BiquadCoefficients c;
  c.b0 = (1.0 - cw) / 2.0 / a0;
  c.b1 = (1.0 - cw) / a0;
  c.b2 = (1.0 - cw) / 2.0 / a0;
  c.a1 = -2.0 * cw / a0;
  c.a2 = (1.0 - alpha) / a0;
  return c;
}

BiquadCoefficients RbjHighPass(double fc, double fs, double q) {
  const double w0 = 2.0 * M_PI * fc / fs;
  const double cw = std::cos(w0);
  const double alpha = std::sin(w0) / (2.0 * q);
  const double a0 = 1.0 + alpha;
  BiquadCoefficients c;
  c.b0 = (1.0 + cw) / 2.0 / a0;
  c.b1 = -(1.0 + cw) / a0;
  c.b2 = (1.0 + cw) / 2.0 / a0;
  c.a1 = -2.0 * cw / a0;
  c.a2 = (1.0 - alpha) / a0;
  return c;
}

}  // namespace

Result<BiquadCascade> DesignButterworthLowPass(int order, double cutoff_hz,
                                               double sample_rate_hz) {
  MOCEMG_RETURN_NOT_OK(ValidateArgs(order, cutoff_hz, sample_rate_hz));
  std::vector<BiquadCoefficients> sections;
  for (double q : ButterworthQs(order)) {
    sections.push_back(RbjLowPass(cutoff_hz, sample_rate_hz, q));
  }
  return BiquadCascade(std::move(sections));
}

Result<BiquadCascade> DesignButterworthHighPass(int order, double cutoff_hz,
                                                double sample_rate_hz) {
  MOCEMG_RETURN_NOT_OK(ValidateArgs(order, cutoff_hz, sample_rate_hz));
  std::vector<BiquadCoefficients> sections;
  for (double q : ButterworthQs(order)) {
    sections.push_back(RbjHighPass(cutoff_hz, sample_rate_hz, q));
  }
  return BiquadCascade(std::move(sections));
}

Result<BiquadCascade> DesignNotch(double center_hz, double q,
                                  double sample_rate_hz) {
  if (!(sample_rate_hz > 0.0 && std::isfinite(sample_rate_hz))) {
    return Status::InvalidArgument("sample rate must be positive");
  }
  if (!(center_hz > 0.0 && center_hz < sample_rate_hz / 2.0)) {
    return Status::InvalidArgument("notch center must lie in (0, fs/2)");
  }
  if (!(q > 0.0 && std::isfinite(q))) {
    return Status::InvalidArgument("notch Q must be positive and finite");
  }
  const double w0 = 2.0 * M_PI * center_hz / sample_rate_hz;
  const double cw = std::cos(w0);
  const double alpha = std::sin(w0) / (2.0 * q);
  const double a0 = 1.0 + alpha;
  BiquadCoefficients c;
  c.b0 = 1.0 / a0;
  c.b1 = -2.0 * cw / a0;
  c.b2 = 1.0 / a0;
  c.a1 = -2.0 * cw / a0;
  c.a2 = (1.0 - alpha) / a0;
  return BiquadCascade({c});
}

Result<BiquadCascade> DesignBandPass(int order_per_edge, double low_hz,
                                     double high_hz,
                                     double sample_rate_hz) {
  if (!(low_hz < high_hz)) {
    return Status::InvalidArgument(
        "band-pass requires low < high, got [" + std::to_string(low_hz) +
        ", " + std::to_string(high_hz) + "]");
  }
  MOCEMG_RETURN_NOT_OK(ValidateArgs(order_per_edge, low_hz, sample_rate_hz));
  MOCEMG_RETURN_NOT_OK(
      ValidateArgs(order_per_edge, high_hz, sample_rate_hz));
  std::vector<BiquadCoefficients> sections;
  for (double q : ButterworthQs(order_per_edge)) {
    sections.push_back(RbjHighPass(low_hz, sample_rate_hz, q));
  }
  for (double q : ButterworthQs(order_per_edge)) {
    sections.push_back(RbjLowPass(high_hz, sample_rate_hz, q));
  }
  return BiquadCascade(std::move(sections));
}

}  // namespace mocemg
