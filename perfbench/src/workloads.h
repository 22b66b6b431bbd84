/// \file workloads.h
/// \brief The benchmark's workloads. Each runs its set-up, measures for
/// the configured time, checks every answer against a reference and
/// returns its metrics. With RunConfig::trace set, a workload instead
/// makes its traced per-layer run (see NOTES.md for the metric map).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Bytes → label: ParseTrc + ParseEmgCsv + MotionClassifier::Classify
/// on held-out captures, closed loop; plus batch throughput.
WorkloadReport RunCaptureClassify(const RunConfig& config);

/// Open-loop kNN requests to a QueryServer over a 4-shard index, with
/// record updates quiescing the server.
WorkloadReport RunKnnServe(const RunConfig& config);

/// Frame-by-frame replay of conditioned captures into many
/// StreamingClassifiers, with a decision after every frame.
WorkloadReport RunStreamControl(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
