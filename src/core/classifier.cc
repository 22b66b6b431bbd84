#include "core/classifier.h"

#include <algorithm>
#include <cmath>

#include "cluster/kmeans.h"
#include "linalg/vector_ops.h"
#include "util/distance_kernels.h"
#include "util/macros.h"
#include "util/top_k.h"

namespace mocemg {
namespace {

// Extracts raw (un-normalized) window features, conditioning EMG first
// when configured.
Result<Matrix> RawWindowPoints(const MotionSequence& mocap,
                               const EmgRecording& emg,
                               const ClassifierOptions& options) {
  EmgRecording conditioned;
  const EmgRecording* emg_ptr = &emg;
  if (options.features.use_emg && options.condition_emg) {
    AcquisitionOptions acq = options.acquisition;
    acq.output_rate_hz = mocap.frame_rate_hz();
    MOCEMG_ASSIGN_OR_RETURN(conditioned, ConditionRecording(emg, acq));
    emg_ptr = &conditioned;
  }
  MOCEMG_ASSIGN_OR_RETURN(
      WindowFeatureMatrix features,
      ExtractWindowFeatures(mocap, *emg_ptr, options.features));
  return std::move(features.points);
}

}  // namespace

const char* ClassifierModeName(ClassifierMode mode) {
  switch (mode) {
    case ClassifierMode::kFull:
      return "full";
    case ClassifierMode::kMocapOnly:
      return "mocap_only";
    case ClassifierMode::kEmgOnly:
      return "emg_only";
  }
  return "unknown";
}

Result<MotionClassifier> MotionClassifier::Train(
    const std::vector<LabeledMotion>& motions,
    const ClassifierOptions& options) {
  if (motions.empty()) {
    return Status::InvalidArgument("cannot train on an empty database");
  }
  MotionClassifier clf;
  clf.options_ = options;

  // 1. Window features for every motion, in parallel over motions (the
  // window-level parallelism inside ExtractWindowFeatures runs inline
  // when nested here). Each motion's matrix lands in its own slot; the
  // pooled matrix is assembled serially in motion order afterwards, so
  // the row layout — and everything downstream — is independent of the
  // thread count.
  std::vector<Matrix> per_motion(motions.size());
  {
    Status st = ParallelFor(
        motions.size(),
        [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
          for (size_t i = begin; i < end; ++i) {
            auto points =
                RawWindowPoints(motions[i].mocap, motions[i].emg, options);
            if (!points.ok()) {
              return points.status().WithContext(
                  "while featurizing motion " + std::to_string(i) + " ('" +
                  motions[i].label_name + "')");
            }
            per_motion[i] = *std::move(points);
          }
          return Status::OK();
        },
        options.parallel);
    MOCEMG_RETURN_NOT_OK(st);
  }
  Matrix all_points;
  std::vector<std::pair<size_t, size_t>> spans;
  spans.reserve(motions.size());
  for (size_t i = 0; i < motions.size(); ++i) {
    const size_t begin = all_points.rows();
    MOCEMG_RETURN_NOT_OK(all_points.AppendRows(per_motion[i]));
    spans.emplace_back(begin, all_points.rows());
    per_motion[i] = Matrix();  // release as we go; pooled copy suffices
  }

  // 2. Normalize over the pooled window points.
  if (options.normalize_features) {
    MOCEMG_ASSIGN_OR_RETURN(clf.normalizer_, Normalizer::Fit(all_points));
  } else {
    clf.normalizer_ = Normalizer::Identity(all_points.cols());
  }
  if (options.balance_modalities && options.features.use_emg &&
      options.features.use_mocap) {
    // Equalize the modalities' expected contribution to squared
    // distances: each block scaled by 1/√(block dims). Block layout is
    // [EMG | mocap] (Section 3.3's append order).
    const size_t emg_channels = motions[0].emg.num_channels();
    WindowFeatureOptions emg_only = options.features;
    emg_only.use_mocap = false;
    const size_t emg_dim =
        WindowFeatureDimension(emg_only, emg_channels, 0);
    const size_t total = all_points.cols();
    if (emg_dim == 0 || emg_dim >= total) {
      return Status::FailedPrecondition(
          "modality balancing found a degenerate block split");
    }
    const double emg_scale = 1.0 / std::sqrt(static_cast<double>(emg_dim));
    const double mocap_scale =
        1.0 / std::sqrt(static_cast<double>(total - emg_dim));
    for (size_t j = 0; j < total; ++j) {
      MOCEMG_RETURN_NOT_OK(clf.normalizer_.ScaleOutput(
          j, j < emg_dim ? emg_scale : mocap_scale));
    }
  }
  MOCEMG_ASSIGN_OR_RETURN(Matrix normalized,
                          clf.normalizer_.Transform(all_points));

  // 3. Codebook: FCM (the paper) or k-means (ablation).
  if (options.cluster_method == ClusterMethod::kFuzzyCMeans) {
    MOCEMG_ASSIGN_OR_RETURN(clf.codebook_,
                            FcmCodebook::Train(normalized, options.fcm));
  } else {
    KmeansOptions km;
    km.num_clusters = options.fcm.num_clusters;
    km.seed = options.fcm.seed;
    km.restarts = options.fcm.restarts;
    MOCEMG_ASSIGN_OR_RETURN(KmeansModel model, FitKmeans(normalized, km));
    MOCEMG_ASSIGN_OR_RETURN(
        clf.codebook_,
        FcmCodebook::FromCenters(std::move(model.centers),
                                 options.fcm.fuzziness));
  }

  // 4. Final feature vector per motion (Eq. 5–8 on Eq. 9 memberships).
  const size_t feature_len =
      options.cluster_method == ClusterMethod::kFuzzyCMeans
          ? 2 * clf.codebook_.num_clusters()
          : clf.codebook_.num_clusters();
  clf.final_features_ = Matrix(motions.size(), feature_len);
  {
    // Membership evaluation against the fixed codebook is read-only and
    // each motion writes its own final-feature row.
    Status st = ParallelFor(
        motions.size(),
        [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
          for (size_t i = begin; i < end; ++i) {
            const Matrix points =
                normalized.RowSlice(spans[i].first, spans[i].second);
            auto feature = clf.FinalFeature(points);
            if (!feature.ok()) {
              return feature.status().WithContext(
                  "while building the final feature of motion " +
                  std::to_string(i));
            }
            clf.final_features_.SetRow(i, *feature);
          }
          return Status::OK();
        },
        options.parallel);
    MOCEMG_RETURN_NOT_OK(st);
  }
  clf.labels_.reserve(motions.size());
  clf.label_names_.reserve(motions.size());
  for (const LabeledMotion& motion : motions) {
    clf.labels_.push_back(motion.label);
    clf.label_names_.push_back(motion.label_name);
  }

  // 5. Optional modality-fallback sub-models for ClassifyRobust: the
  // same pipeline restricted to each modality's feature block.
  clf.BuildFinalDatabase();
  if (options.train_fallbacks && options.features.use_emg &&
      options.features.use_mocap) {
    ClassifierOptions sub = options;
    sub.train_fallbacks = false;
    sub.features.use_emg = false;
    auto mocap_only = Train(motions, sub);
    if (!mocap_only.ok()) {
      return mocap_only.status().WithContext(
          "while training the mocap-only fallback");
    }
    clf.mocap_only_ =
        std::make_shared<const MotionClassifier>(*std::move(mocap_only));
    sub.features.use_emg = true;
    sub.features.use_mocap = false;
    auto emg_only = Train(motions, sub);
    if (!emg_only.ok()) {
      return emg_only.status().WithContext(
          "while training the EMG-only fallback");
    }
    clf.emg_only_ =
        std::make_shared<const MotionClassifier>(*std::move(emg_only));
  }
  return clf;
}

Result<MotionClassifier> MotionClassifier::FromParts(
    const ClassifierOptions& options, Normalizer normalizer,
    FcmCodebook codebook, Matrix final_features,
    std::vector<size_t> labels, std::vector<std::string> label_names) {
  if (codebook.num_clusters() == 0) {
    return Status::InvalidArgument("codebook has no clusters");
  }
  if (normalizer.dimension() != codebook.dimension()) {
    return Status::InvalidArgument(
        "normalizer dimension " + std::to_string(normalizer.dimension()) +
        " does not match codebook dimension " +
        std::to_string(codebook.dimension()));
  }
  const size_t expected_len =
      options.cluster_method == ClusterMethod::kFuzzyCMeans
          ? 2 * codebook.num_clusters()
          : codebook.num_clusters();
  if (final_features.cols() != expected_len) {
    return Status::InvalidArgument(
        "final features have length " +
        std::to_string(final_features.cols()) + ", expected " +
        std::to_string(expected_len));
  }
  if (final_features.rows() != labels.size() ||
      labels.size() != label_names.size() || labels.empty()) {
    return Status::InvalidArgument(
        "final features / labels / names are inconsistent or empty");
  }
  MotionClassifier clf;
  clf.options_ = options;
  // Balancing is baked into the persisted normalizer (see header note);
  // clear the flag so nothing downstream re-applies it.
  clf.options_.balance_modalities = false;
  clf.normalizer_ = std::move(normalizer);
  clf.codebook_ = std::move(codebook);
  clf.final_features_ = std::move(final_features);
  clf.labels_ = std::move(labels);
  clf.label_names_ = std::move(label_names);
  clf.BuildFinalDatabase();
  return clf;
}

void MotionClassifier::BuildFinalDatabase() {
  auto db = std::make_shared<MotionDatabase>();
  for (size_t i = 0; i < final_features_.rows(); ++i) {
    MotionRecord rec;
    rec.name = label_names_[i] + "/" + std::to_string(i);
    rec.label = labels_[i];
    rec.label_name = label_names_[i];
    const double* row = final_features_.RowPtr(i);
    rec.feature.assign(row, row + final_features_.cols());
    if (!db->Insert(std::move(rec)).ok()) {
      final_db_.reset();
      return;
    }
  }
  final_db_ = std::move(db);
}

Result<Matrix> MotionClassifier::WindowPoints(
    const MotionSequence& mocap, const EmgRecording& emg) const {
  MOCEMG_ASSIGN_OR_RETURN(Matrix points,
                          RawWindowPoints(mocap, emg, options_));
  return normalizer_.Transform(points);
}

Result<std::vector<double>> MotionClassifier::FinalFeature(
    const Matrix& points) const {
  if (options_.cluster_method == ClusterMethod::kFuzzyCMeans) {
    MOCEMG_ASSIGN_OR_RETURN(Matrix memberships,
                            codebook_.MembershipMatrix(points));
    return FinalMotionFeature(memberships);
  }
  return HardAssignmentFeature(codebook_.centers(), points);
}

Result<std::vector<double>> MotionClassifier::Featurize(
    const MotionSequence& mocap, const EmgRecording& emg) const {
  if (codebook_.num_clusters() == 0) {
    return Status::FailedPrecondition("classifier is not trained");
  }
  MOCEMG_ASSIGN_OR_RETURN(Matrix points, WindowPoints(mocap, emg));
  return FinalFeature(points);
}

Result<std::vector<MotionMatch>> MotionClassifier::NearestNeighbors(
    const std::vector<double>& final_feature, size_t k) const {
  if (final_features_.rows() == 0) {
    return Status::FailedPrecondition("classifier is not trained");
  }
  if (final_feature.size() != final_features_.cols()) {
    return Status::InvalidArgument(
        "final feature dimension mismatch: got " +
        std::to_string(final_feature.size()) + ", database has " +
        std::to_string(final_features_.cols()));
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  // final_features_ is row-major contiguous: one packed kernel call for
  // all squared distances, then a squared-space bounded top-k (sqrt is
  // monotone) with the sqrt deferred to the k reported matches. Ties
  // resolve toward the smaller training index (top_k.h), the same rule
  // as every kNN path in db/, so the retrieval and serving layers
  // agree bitwise with this one.
  const size_t n = final_features_.rows();
  std::vector<double> sq(n);
  SquaredL2OneToMany(final_feature.data(), final_features_.RowPtr(0), n,
                     final_features_.cols(), sq.data());
  BoundedTopK top(std::min(k, n));
  for (size_t i = 0; i < n; ++i) top.Push(sq[i], i);
  std::vector<TopKEntry> entries;
  top.ExtractSorted(&entries);
  std::vector<MotionMatch> matches(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    matches[i].index = entries[i].second;
    matches[i].label = labels_[entries[i].second];
    matches[i].distance = std::sqrt(entries[i].first);
  }
  return matches;
}

Result<size_t> MotionClassifier::Classify(const MotionSequence& mocap,
                                          const EmgRecording& emg) const {
  MOCEMG_ASSIGN_OR_RETURN(std::vector<double> feature,
                          Featurize(mocap, emg));
  MOCEMG_ASSIGN_OR_RETURN(std::vector<MotionMatch> nn,
                          NearestNeighbors(feature, 1));
  return nn[0].label;
}

Result<std::vector<size_t>> MotionClassifier::ClassifyBatch(
    const std::vector<LabeledMotion>& trials,
    const ParallelOptions& parallel) const {
  if (codebook_.num_clusters() == 0) {
    return Status::FailedPrecondition("classifier is not trained");
  }
  // Stage 1: featurize every trial in parallel (the dominant cost —
  // conditioning, windowing, membership evaluation).
  std::vector<std::vector<double>> features(trials.size());
  Status st = ParallelFor(
      trials.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          auto feature = Featurize(trials[i].mocap, trials[i].emg);
          if (!feature.ok()) {
            return feature.status().WithContext(
                "while classifying batch trial " + std::to_string(i));
          }
          features[i] = *std::move(feature);
        }
        return Status::OK();
      },
      parallel);
  MOCEMG_RETURN_NOT_OK(st);

  // Stage 2: Classify's own nearest-neighbour step per trial, so each
  // label equals Classify's decision bit for bit.
  std::vector<size_t> labels(trials.size(), 0);
  for (size_t i = 0; i < trials.size(); ++i) {
    MOCEMG_ASSIGN_OR_RETURN(std::vector<MotionMatch> nn,
                            NearestNeighbors(features[i], 1));
    labels[i] = nn[0].label;
  }
  return labels;
}

const MotionClassifier* MotionClassifier::submodel(
    ClassifierMode mode) const {
  switch (mode) {
    case ClassifierMode::kFull:
      return this;
    case ClassifierMode::kMocapOnly:
      return mocap_only_.get();
    case ClassifierMode::kEmgOnly:
      return emg_only_.get();
  }
  return nullptr;
}

Result<Matrix> MotionClassifier::WindowPointsMasked(
    const MotionSequence& mocap, const EmgRecording& emg,
    const ClassifierOptions& options,
    const std::vector<size_t>* masked_channels) const {
  MOCEMG_ASSIGN_OR_RETURN(Matrix points,
                          RawWindowPoints(mocap, emg, options));
  if (masked_channels != nullptr && !masked_channels->empty() &&
      options.features.use_emg) {
    // EMG block leads the feature layout (Section 3.3 append order),
    // channel-major with a fixed per-channel width.
    WindowFeatureOptions one_channel = options.features;
    one_channel.use_mocap = false;
    const size_t per_channel = WindowFeatureDimension(one_channel, 1, 0);
    for (size_t c : *masked_channels) {
      for (size_t d = 0; d < per_channel; ++d) {
        const size_t col = c * per_channel + d;
        if (col >= points.cols()) break;
        // Training mean ⇒ exactly 0 after the z-score transform: the
        // dead channel neither votes for nor against any cluster.
        const double neutral = normalizer_.mean()[col];
        for (size_t r = 0; r < points.rows(); ++r) {
          points(r, col) = neutral;
        }
      }
    }
  }
  return normalizer_.Transform(points);
}

Result<RobustDecision> MotionClassifier::ClassifyRobust(
    const MotionSequence& mocap, const EmgRecording& emg,
    size_t k) const {
  if (codebook_.num_clusters() == 0) {
    return Status::FailedPrecondition("classifier is not trained");
  }
  if (!options_.features.use_emg || !options_.features.use_mocap) {
    return Status::FailedPrecondition(
        "ClassifyRobust needs the integrated (EMG + mocap) pipeline");
  }
  const StreamHealth monitor(options_.health);
  RobustDecision decision;
  MOCEMG_ASSIGN_OR_RETURN(decision.health, monitor.Assess(mocap, emg));

  // Repair what is repairable before featurizing: occlusion gaps become
  // finite (interpolated/held) coordinates.
  MotionSequence repaired;
  const MotionSequence* mocap_ptr = &mocap;
  bool mocap_missing = false;
  for (const auto& m : decision.health.markers) {
    if (m.missing_frames > 0) mocap_missing = true;
  }
  if (mocap_missing) {
    MOCEMG_ASSIGN_OR_RETURN(
        repaired, monitor.RepairMocap(mocap, &decision.health));
    mocap_ptr = &repaired;
  }

  // Modality fallback policy: an unusable modality is dropped, never
  // silently guessed around.
  if (!decision.health.mocap_usable && !decision.health.emg_usable) {
    return Status::FailedPrecondition(
        "both modalities unusable: " + decision.health.Summary());
  }
  if (!decision.health.emg_usable) {
    if (mocap_only_ == nullptr) {
      return Status::FailedPrecondition(
          "EMG unusable (" + decision.health.Summary() +
          ") and no mocap-only fallback was trained; set "
          "ClassifierOptions::train_fallbacks");
    }
    decision.mode = ClassifierMode::kMocapOnly;
  } else if (!decision.health.mocap_usable) {
    if (emg_only_ == nullptr) {
      return Status::FailedPrecondition(
          "mocap unusable (" + decision.health.Summary() +
          ") and no EMG-only fallback was trained; set "
          "ClassifierOptions::train_fallbacks");
    }
    decision.mode = ClassifierMode::kEmgOnly;
  }
  const MotionClassifier* deciding = submodel(decision.mode);

  // Detected hum is repaired in conditioning: notch at the line
  // frequency the health monitor measured.
  ClassifierOptions opts = deciding->options_;
  if (decision.health.hum_detected && opts.features.use_emg &&
      opts.condition_emg) {
    opts.acquisition.notch_hz = decision.health.hum_freq_hz;
  }
  const std::vector<size_t>* mask =
      decision.mode == ClassifierMode::kFull &&
              !decision.health.masked_channels.empty()
          ? &decision.health.masked_channels
          : nullptr;

  MOCEMG_ASSIGN_OR_RETURN(
      Matrix points,
      deciding->WindowPointsMasked(*mocap_ptr, emg, opts, mask));
  MOCEMG_ASSIGN_OR_RETURN(std::vector<double> feature,
                          deciding->FinalFeature(points));
  MOCEMG_ASSIGN_OR_RETURN(decision.matches,
                          deciding->NearestNeighbors(feature, k));
  decision.label = decision.matches[0].label;
  decision.label_name =
      deciding->label_names_[decision.matches[0].index];
  decision.degraded = decision.mode != ClassifierMode::kFull ||
                      decision.health.any_repair;
  return decision;
}

}  // namespace mocemg
