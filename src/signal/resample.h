/// \file resample.h
/// \brief Sample-rate conversion: the Myomonitor's 1000 Hz EMG stream must
/// be brought down to the Vicon frame rate (120 Hz) before the two streams
/// can share windows. 1000/120 is not an integer ratio, so the library
/// provides an anti-aliased arbitrary-ratio resampler.

#ifndef MOCEMG_SIGNAL_RESAMPLE_H_
#define MOCEMG_SIGNAL_RESAMPLE_H_

#include <vector>

#include "util/result.h"

namespace mocemg {

/// \brief Arbitrary-ratio resampling: zero-phase anti-alias low-pass at
/// 0.45·min(fs_in, fs_out) followed by linear interpolation at the output
/// instants k/fs_out. Output length is floor(duration · fs_out) + 1.
Result<std::vector<double>> Resample(const std::vector<double>& signal,
                                     double fs_in, double fs_out);

/// \brief Length Resample() will produce for an input of `input_len`
/// samples — used to pre-align multi-channel buffers.
size_t ResampledLength(size_t input_len, double fs_in, double fs_out);

}  // namespace mocemg

#endif  // MOCEMG_SIGNAL_RESAMPLE_H_
