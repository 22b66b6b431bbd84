#include "emg/acquisition.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "signal/butterworth.h"
#include "signal/resample.h"
#include "util/macros.h"

namespace mocemg {

Result<EmgRecording> ConditionRecording(const EmgRecording& raw,
                                        const AcquisitionOptions& options) {
  // NaN slips through every ordered comparison below, and a NaN edge or
  // Q designs NaN coefficients that turn every output sample NaN.
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"band_low_hz", options.band_low_hz},
        {"band_high_hz", options.band_high_hz},
        {"output_rate_hz", options.output_rate_hz},
        {"notch_hz", options.notch_hz},
        {"notch_q", options.notch_q}}) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be finite, got " +
                                     std::to_string(value));
    }
  }
  MOCEMG_RETURN_NOT_OK(raw.Validate());
  if (options.output_rate_hz <= 0.0) {
    return Status::InvalidArgument("output rate must be positive");
  }
  const double fs = raw.sample_rate_hz();
  if (!options.skip_bandpass) {
    if (options.band_low_hz < 0.0 ||
        options.band_low_hz >= options.band_high_hz) {
      return Status::InvalidArgument(
          "band-pass edges [" + std::to_string(options.band_low_hz) +
          ", " + std::to_string(options.band_high_hz) +
          "] Hz must satisfy 0 <= low < high");
    }
    if (options.band_high_hz >= fs / 2.0) {
      return Status::InvalidArgument(
          "band-pass upper edge " + std::to_string(options.band_high_hz) +
          " Hz is at or above the Nyquist frequency " +
          std::to_string(fs / 2.0) + " Hz of the " + std::to_string(fs) +
          " Hz raw rate: content there is already aliased and cannot "
          "be recovered by filtering");
    }
  }
  if (options.notch_hz > 0.0 && options.notch_hz >= fs / 2.0) {
    return Status::InvalidArgument(
        "notch frequency " + std::to_string(options.notch_hz) +
        " Hz is at or above the Nyquist frequency " +
        std::to_string(fs / 2.0) +
        " Hz: power-line hum at that rate aliases to a different "
        "frequency and the notch would dig into clean signal instead");
  }

  // Filters are designed once per recording; an empty band-pass
  // cascade still carries the fused rectify.
  const size_t n = raw.num_samples();
  const bool notch_on = options.notch_hz > 0.0;
  BiquadCascade notch;
  size_t warm = 0;
  if (notch_on) {
    MOCEMG_ASSIGN_OR_RETURN(
        notch, DesignNotch(options.notch_hz, options.notch_q, fs));
    // Warm-start: the notch's startup transient decays with time
    // constant Q/(π·f0) and would otherwise bleed hum into the first
    // feature windows. Whole seconds copied from the signal start run
    // through the notch first — an integer number of hum cycles for any
    // whole-Hz line frequency, so the hum phase is continuous at the
    // junction and the resonator state settles on the true phasor.
    const double needed =
        4.0 * options.notch_q * fs / (M_PI * options.notch_hz);
    const size_t block = static_cast<size_t>(std::lround(fs));
    if (block > 0 && n >= block) {
      // Capping at n keeps the cast defined and cannot change the block
      // count, which is capped at n / block anyway.
      const size_t capped =
          needed >= static_cast<double>(n) ? n : static_cast<size_t>(needed);
      warm = std::min((capped + block - 1) / block, n / block) * block;
    }
  }
  BiquadCascade bandpass;
  if (!options.skip_bandpass) {
    MOCEMG_ASSIGN_OR_RETURN(
        bandpass, DesignBandPass(options.filter_order, options.band_low_hz,
                                 options.band_high_hz, fs));
  }
  const double fs_out = options.output_rate_hz;
  const bool decimate = fs_out < fs;
  BiquadCascade anti_alias;
  if (decimate) {
    MOCEMG_ASSIGN_OR_RETURN(anti_alias, DesignAntiAlias(fs, fs_out));
  }

  // One interleaved scratch buffer per call (ClassifyBatch conditions
  // captures concurrently): `lead` frames for the notch warm-up or the
  // anti-alias head pad, the n signal frames, then the tail pad.
  constexpr size_t L = kBiquadLanes;
  const size_t pad = decimate ? BiquadCascade::FiltFiltPad(n) : 0;
  const size_t lead = std::max(warm, pad);
  std::vector<double> frames((lead + n + pad) * L);
  double* signal = frames.data() + lead * L;

  const size_t out_len = fs_out == fs ? n : ResampledLength(n, fs, fs_out);
  std::vector<std::vector<double>> conditioned(
      raw.num_channels(), std::vector<double>(out_len));
  for (size_t group = 0; group < raw.num_channels(); group += L) {
    const size_t lanes = std::min(L, raw.num_channels() - group);
    for (size_t lane = 0; lane < lanes; ++lane) {
      const std::vector<double>& x = raw.channel(group + lane);
      for (size_t i = 0; i < n; ++i) signal[i * L + lane] = x[i];
    }
    if (notch_on) {
      std::copy(signal, signal + warm * L, signal - warm * L);
      notch.ProcessLanes(signal - warm * L, 1, warm + n, lanes,
                         /*rectify=*/false);
    }
    bandpass.ProcessLanes(signal, 1, n, lanes, /*rectify=*/true);
    if (decimate) anti_alias.FiltFiltLanes(signal - pad * L, n, lanes);
    for (size_t lane = 0; lane < lanes; ++lane) {
      std::vector<double>& out = conditioned[group + lane];
      if (fs_out == fs) {
        for (size_t i = 0; i < n; ++i) out[i] = signal[i * L + lane];
      } else {
        InterpolateLinear(signal + lane, L, n, fs, fs_out, out.data());
      }
      // Rectified signals stay non-negative through an ideal resampler,
      // but the anti-alias filter can ring slightly below zero; clamp.
      for (double& v : out) {
        if (v < 0.0) v = 0.0;
      }
    }
  }
  return EmgRecording::Create(raw.muscles(), std::move(conditioned),
                              fs_out);
}

}  // namespace mocemg
