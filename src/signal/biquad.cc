#include "signal/biquad.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "util/kernel_dispatch.h"

namespace mocemg {

double Biquad::MagnitudeAt(double w) const {
  const std::complex<double> z = std::polar(1.0, -w);
  const std::complex<double> z2 = z * z;
  const std::complex<double> num =
      coeffs_.b0 + coeffs_.b1 * z + coeffs_.b2 * z2;
  const std::complex<double> den = 1.0 + coeffs_.a1 * z + coeffs_.a2 * z2;
  return std::abs(num / den);
}

BiquadCascade::BiquadCascade(std::vector<BiquadCoefficients> sections) {
  sections_.reserve(sections.size());
  packed_.reserve(5 * sections.size());
  for (const auto& c : sections) {
    sections_.emplace_back(c);
    packed_.insert(packed_.end(), {c.b0, c.b1, c.b2, c.a1, c.a2});
  }
}

std::vector<double> BiquadCascade::ProcessSignal(
    const std::vector<double>& input) {
  std::vector<double> out(input.size());
  for (size_t i = 0; i < input.size(); ++i) out[i] = Process(input[i]);
  return out;
}

std::vector<double> BiquadCascade::FiltFilt(
    const std::vector<double>& input) const {
  if (input.empty()) return {};
  const size_t n = input.size();
  const size_t pad = FiltFiltPad(n);
  std::vector<double> frames((n + 2 * pad) * kBiquadLanes, 0.0);
  for (size_t i = 0; i < n; ++i) frames[(pad + i) * kBiquadLanes] = input[i];
  FiltFiltLanes(frames.data(), n, /*lanes=*/1);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = frames[(pad + i) * kBiquadLanes];
  return out;
}

size_t BiquadCascade::FiltFiltPad(size_t n) {
  // Reflected edges (3 time-constants' worth, capped by length) warm the
  // filter state up before the true samples arrive.
  return std::min<size_t>(n - 1, 256);
}

void BiquadCascade::ProcessLanes(double* data, ptrdiff_t frame_stride,
                                 size_t frames, size_t lanes,
                                 bool rectify) const {
  internal::ActiveKernelOps().biquad_cascade_x4(packed_.data(),
                                                sections_.size(), data,
                                                frame_stride, frames, lanes,
                                                rectify);
}

void BiquadCascade::FiltFiltLanes(double* data, size_t n,
                                  size_t lanes) const {
  constexpr size_t L = kBiquadLanes;
  const size_t pad = FiltFiltPad(n);
  const size_t head = pad * L;            // frame of sample 0
  const size_t tail = (pad + n - 1) * L;  // frame of sample n - 1
  for (size_t i = 1; i <= pad; ++i) {
    for (size_t lane = 0; lane < lanes; ++lane) {
      data[head - i * L + lane] =
          2.0 * data[head + lane] - data[head + i * L + lane];
      data[tail + i * L + lane] =
          2.0 * data[tail + lane] - data[tail - i * L + lane];
    }
  }
  // Forward over every frame, then backward in place from the last
  // frame down to `pad`: running the reversed signal through a fresh
  // cascade is the old reverse → filter → reverse, without the copies.
  const size_t total = n + 2 * pad;
  ProcessLanes(data, 1, total, lanes, /*rectify=*/false);
  ProcessLanes(data + (total - 1) * L, -1, n + pad, lanes,
               /*rectify=*/false);
}

void BiquadCascade::Reset() {
  for (auto& s : sections_) s.Reset();
}

double BiquadCascade::MagnitudeAt(double w) const {
  double mag = 1.0;
  for (const auto& s : sections_) mag *= s.MagnitudeAt(w);
  return mag;
}

}  // namespace mocemg
