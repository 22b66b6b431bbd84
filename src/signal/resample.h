/// \file resample.h
/// \brief Sample-rate conversion: the Myomonitor's 1000 Hz EMG stream must
/// be brought down to the Vicon frame rate (120 Hz) before the two streams
/// can share windows. 1000/120 is not an integer ratio, so the library
/// provides an anti-aliased arbitrary-ratio resampler.

#ifndef MOCEMG_SIGNAL_RESAMPLE_H_
#define MOCEMG_SIGNAL_RESAMPLE_H_

#include <cstddef>
#include <vector>

#include "signal/biquad.h"
#include "util/result.h"

namespace mocemg {

/// \brief Arbitrary-ratio resampling: zero-phase anti-alias low-pass at
/// 0.45·min(fs_in, fs_out) followed by linear interpolation at the output
/// instants k/fs_out. Output length is floor(duration · fs_out) + 1.
Result<std::vector<double>> Resample(const std::vector<double>& signal,
                                     double fs_in, double fs_out);

/// \brief The anti-alias low-pass Resample() applies before
/// down-sampling (fs_out < fs_in): 8th-order Butterworth at
/// 0.45·fs_out, run zero-phase.
Result<BiquadCascade> DesignAntiAlias(double fs_in, double fs_out);

/// \brief Resample()'s interpolation step: reads the n samples
/// src[0], src[stride], … and writes ResampledLength(n, fs_in, fs_out)
/// linearly interpolated values at the instants k/fs_out to `out`.
/// n ≥ 1; the caller owns both buffers.
void InterpolateLinear(const double* src, size_t stride, size_t n,
                       double fs_in, double fs_out, double* out);

/// \brief Length Resample() will produce for an input of `input_len`
/// samples — used to pre-align multi-channel buffers.
size_t ResampledLength(size_t input_len, double fs_in, double fs_out);

}  // namespace mocemg

#endif  // MOCEMG_SIGNAL_RESAMPLE_H_
