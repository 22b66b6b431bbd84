/// \file rectify.h
/// \brief Rectification for EMG conditioning.

#ifndef MOCEMG_SIGNAL_RECTIFY_H_
#define MOCEMG_SIGNAL_RECTIFY_H_

#include <vector>

namespace mocemg {

/// \brief Full-wave rectification: |x| per sample (the paper's processed
/// Myomonitor signal is full-wave rectified before down-sampling).
std::vector<double> FullWaveRectify(const std::vector<double>& signal);

}  // namespace mocemg

#endif  // MOCEMG_SIGNAL_RECTIFY_H_
