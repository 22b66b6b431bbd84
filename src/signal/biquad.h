/// \file biquad.h
/// \brief Second-order IIR sections and cascades (Direct Form II
/// transposed), the building block of the EMG acquisition filter chain.

#ifndef MOCEMG_SIGNAL_BIQUAD_H_
#define MOCEMG_SIGNAL_BIQUAD_H_

#include <cstddef>
#include <vector>

#include "util/result.h"

namespace mocemg {

/// \brief Channels per interleaved frame of the multi-lane passes
/// (ProcessLanes, FiltFiltLanes): frame i holds sample i of lanes
/// 0..3 at data[4·i .. 4·i + 3].
inline constexpr size_t kBiquadLanes = 4;

/// \brief Normalized biquad coefficients: H(z) = (b0 + b1 z⁻¹ + b2 z⁻²) /
/// (1 + a1 z⁻¹ + a2 z⁻²).
struct BiquadCoefficients {
  double b0 = 1.0;
  double b1 = 0.0;
  double b2 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
};

/// \brief One stateful second-order section (Direct Form II transposed:
/// best numerical behaviour of the direct forms for double precision).
class Biquad {
 public:
  Biquad() = default;
  explicit Biquad(const BiquadCoefficients& coeffs) : coeffs_(coeffs) {}

  /// \brief Processes one sample.
  double Process(double x) {
    const double y = coeffs_.b0 * x + s1_;
    s1_ = coeffs_.b1 * x - coeffs_.a1 * y + s2_;
    s2_ = coeffs_.b2 * x - coeffs_.a2 * y;
    return y;
  }

  /// \brief Clears the delay line.
  void Reset() { s1_ = s2_ = 0.0; }

  const BiquadCoefficients& coefficients() const { return coeffs_; }

  /// \brief Magnitude response at normalized angular frequency
  /// w = 2π f / fs (test/verification utility).
  double MagnitudeAt(double w) const;

 private:
  BiquadCoefficients coeffs_;
  double s1_ = 0.0;
  double s2_ = 0.0;
};

/// \brief A chain of biquads applied in sequence.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<BiquadCoefficients> sections);

  /// \brief Processes one sample through all sections.
  double Process(double x) {
    for (auto& s : sections_) x = s.Process(x);
    return x;
  }

  /// \brief Filters a whole signal (stateful; call Reset() between
  /// independent signals).
  std::vector<double> ProcessSignal(const std::vector<double>& input);

  /// \brief Zero-phase filtering: forward pass, then reverse pass, with
  /// simple edge-replication padding to suppress startup transients.
  /// Doubles the effective order and cancels group delay — used where the
  /// EMG envelope must stay aligned with the mocap frames.
  std::vector<double> FiltFilt(const std::vector<double>& input) const;

  /// \brief Filters lanes [0, lanes) of `frames` interleaved frames in
  /// place, every lane from zero state, through the dispatched
  /// `biquad_cascade_x4` kernel: each lane equals ProcessSignal() on a
  /// fresh cascade bit for bit. Frame i lives at
  /// data[kBiquadLanes · i · frame_stride], so a negative stride runs
  /// backward from `data`. 1 ≤ lanes ≤ kBiquadLanes; the lanes past
  /// `lanes` are left unspecified. With `rectify` the stored samples
  /// are |y|; an empty cascade then is a plain rectify.
  void ProcessLanes(double* data, ptrdiff_t frame_stride, size_t frames,
                    size_t lanes, bool rectify) const;

  /// \brief FiltFilt() of lanes [0, lanes) of an interleaved buffer, in
  /// place. `data` holds n + 2·FiltFiltPad(n) frames with the signal in
  /// the middle n; the reflected edge pads are written here. On return
  /// frames [pad, pad + n) hold FiltFilt()'s output bit for bit; the
  /// frames before `pad` and the lanes past `lanes` are left
  /// unspecified (the backward pass stops at `pad`, since no output
  /// sample depends on the frames before it).
  void FiltFiltLanes(double* data, size_t n, size_t lanes) const;

  /// \brief Edge padding FiltFilt() uses for an n-sample signal, n ≥ 1.
  static size_t FiltFiltPad(size_t n);

  void Reset();
  size_t num_sections() const { return sections_.size(); }

  /// \brief Cascade magnitude response at w = 2π f / fs.
  double MagnitudeAt(double w) const;

 private:
  std::vector<Biquad> sections_;
  /// b0, b1, b2, a1, a2 per section: the kernel op's layout.
  std::vector<double> packed_;
};

}  // namespace mocemg

#endif  // MOCEMG_SIGNAL_BIQUAD_H_
