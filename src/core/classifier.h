/// \file classifier.h
/// \brief End-to-end facade over the paper's pipeline: condition EMG →
/// local-transform mocap → window features (IAV ⊕ weighted SVD) →
/// normalize → FCM codebook → final 2c feature vectors → nearest-
/// neighbour classification / retrieval. This is the type a downstream
/// application holds.

#ifndef MOCEMG_CORE_CLASSIFIER_H_
#define MOCEMG_CORE_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/codebook.h"
#include "core/normalizer.h"
#include "core/stream_health.h"
#include "core/window_features.h"
#include "db/motion_database.h"
#include "emg/acquisition.h"
#include "util/result.h"

namespace mocemg {

/// \brief One training motion: the synchronized capture plus its label.
struct LabeledMotion {
  MotionSequence mocap;  ///< global coordinates, capture frame rate
  EmgRecording emg;      ///< raw (signed, high-rate) unless
                         ///< ClassifierOptions::condition_emg is false
  size_t label = 0;
  std::string label_name;
};

/// \brief Clustering backend for the codebook.
enum class ClusterMethod : int {
  /// The paper's fuzzy c-means with membership min/max features.
  kFuzzyCMeans = 0,
  /// Hard k-means with vote-fraction features (ablation A2).
  kKmeansHard = 1,
};

/// \brief Full pipeline configuration.
struct ClassifierOptions {
  WindowFeatureOptions features;
  FcmOptions fcm;
  AcquisitionOptions acquisition;
  /// When true (default) LabeledMotion::emg / query EMG is raw and the
  /// acquisition chain is applied; set false if inputs are already
  /// conditioned to the mocap frame rate.
  bool condition_emg = true;
  /// z-score the window features before clustering (ablation A4).
  bool normalize_features = true;
  /// After z-scoring, scale each modality block by 1/√(its dimension) so
  /// EMG and mocap contribute equal expected mass to the Euclidean
  /// metric FCM clusters with. Without this, the hand's 12 mocap
  /// dimensions out-vote its 4 EMG dimensions ~3:1 and the "integration"
  /// degenerates toward mocap-only (ablation A4 quantifies it).
  bool balance_modalities = true;
  ClusterMethod cluster_method = ClusterMethod::kFuzzyCMeans;
  /// Additionally train mocap-only and EMG-only fallback sub-models so
  /// ClassifyRobust can survive the total loss of one modality. Off by
  /// default: it triples training cost and most callers never degrade.
  bool train_fallbacks = false;
  /// Thresholds for the degraded-capture path (ClassifyRobust).
  StreamHealthOptions health;
  /// Trial-level parallelism for Train's featurization pass and the
  /// final-feature pass. Window-level (features.parallel) and FCM
  /// (fcm.parallel) parallelism nest under it and automatically run
  /// inline inside a parallel region. Trained models are bit-identical
  /// for every max_threads.
  ParallelOptions parallel;
};

/// \brief A retrieval hit.
struct MotionMatch {
  size_t index = 0;      ///< position in the training set
  size_t label = 0;
  double distance = 0.0;  ///< Euclidean distance in final-feature space
};

/// \brief Which feature subspace produced a decision.
enum class ClassifierMode : int {
  kFull = 0,       ///< integrated EMG ⊕ mocap features (the paper)
  kMocapOnly = 1,  ///< EMG unusable → mocap-only fallback sub-model
  kEmgOnly = 2,    ///< mocap unusable → EMG-only fallback sub-model
};

/// \brief Stable lower-case name ("full", "mocap_only", "emg_only").
const char* ClassifierModeName(ClassifierMode mode);

/// \brief A decision from the degraded-capture path, carrying the full
/// health diagnosis alongside the label.
struct RobustDecision {
  size_t label = 0;
  std::string label_name;
  ClassifierMode mode = ClassifierMode::kFull;
  /// True whenever the decision was not made on pristine full-modality
  /// data — a repair, mask, notch, or modality fallback was involved.
  bool degraded = false;
  StreamHealthReport health;
  std::vector<MotionMatch> matches;  ///< from the deciding sub-model
};

/// \brief Trained classifier: codebook + normalizer + the database's
/// final feature vectors.
class MotionClassifier {
 public:
  MotionClassifier() = default;

  /// \brief Trains the full pipeline on labelled captures. All motions
  /// must share marker set/channel layout; fails otherwise.
  static Result<MotionClassifier> Train(
      const std::vector<LabeledMotion>& motions,
      const ClassifierOptions& options);

  /// \brief Reassembles a classifier from persisted parts (model_io.h).
  /// `final_features` rows must match labels/names; the feature length
  /// must agree with the codebook under the options' cluster method.
  /// Note: `options.balance_modalities` is already folded into the
  /// persisted normalizer, so FromParts must not re-apply it.
  static Result<MotionClassifier> FromParts(
      const ClassifierOptions& options, Normalizer normalizer,
      FcmCodebook codebook, Matrix final_features,
      std::vector<size_t> labels, std::vector<std::string> label_names);

  /// \brief Runs the feature pipeline on one (query) capture and returns
  /// its final feature vector (length 2c for FCM, c for the hard-cluster
  /// ablation).
  Result<std::vector<double>> Featurize(const MotionSequence& mocap,
                                        const EmgRecording& emg) const;

  /// \brief k nearest training motions to a final feature vector,
  /// ascending by distance.
  Result<std::vector<MotionMatch>> NearestNeighbors(
      const std::vector<double>& final_feature, size_t k) const;

  /// \brief Classifies a capture by its nearest neighbour's label.
  Result<size_t> Classify(const MotionSequence& mocap,
                          const EmgRecording& emg) const;

  /// \brief Classifies a batch of captures: a parallel featurization
  /// pass over the trials (the dominant cost), then Classify's
  /// nearest-neighbour step per trial. `trials[i].label` is ignored;
  /// element i of the result equals Classify(trials[i].mocap,
  /// trials[i].emg) exactly, so results are bit-identical at any
  /// thread count. On failure,
  /// returns the failing trial's error with its index in the message
  /// (lowest failing index among executed chunks).
  Result<std::vector<size_t>> ClassifyBatch(
      const std::vector<LabeledMotion>& trials,
      const ParallelOptions& parallel = {}) const;

  /// \brief Degradation-aware classification. Assesses stream health,
  /// repairs what is repairable (bounded marker-gap interpolation, notch
  /// at a detected hum frequency), masks dead EMG channels to their
  /// neutral (training-mean) feature values, and — when a whole modality
  /// is unusable and fallbacks were trained — decides in the healthy
  /// modality's subspace. Fails with FailedPrecondition when both
  /// modalities are unusable, or when one is unusable and no fallback
  /// exists (surfaced, never silently guessed). `k` sets how many
  /// matches the decision carries.
  Result<RobustDecision> ClassifyRobust(const MotionSequence& mocap,
                                        const EmgRecording& emg,
                                        size_t k = 1) const;

  /// \brief True when the modality-fallback sub-models are available
  /// (trained with ClassifierOptions::train_fallbacks).
  bool has_fallbacks() const {
    return mocap_only_ != nullptr && emg_only_ != nullptr;
  }

  /// \brief The sub-model deciding in `mode` (`this` for kFull); null if
  /// that fallback was not trained.
  const MotionClassifier* submodel(ClassifierMode mode) const;

  /// \brief The training set's final features as a MotionDatabase —
  /// the retrieval-side view of this classifier (record i holds final
  /// feature row i with labels_[i]). Built once at Train/FromParts;
  /// null only if that build failed. Callers use it to build a
  /// ShardedFeatureIndex or a QueryServer over the trained model.
  const MotionDatabase* final_database() const { return final_db_.get(); }

  /// \brief Training-set final features as rows (one per motion).
  const Matrix& final_features() const { return final_features_; }
  const std::vector<size_t>& labels() const { return labels_; }
  const std::vector<std::string>& label_names() const {
    return label_names_;
  }
  const FcmCodebook& codebook() const { return codebook_; }
  const Normalizer& normalizer() const { return normalizer_; }
  const ClassifierOptions& options() const { return options_; }
  size_t num_motions() const { return labels_.size(); }

 private:
  /// Window features of one capture, normalized.
  Result<Matrix> WindowPoints(const MotionSequence& mocap,
                              const EmgRecording& emg) const;
  Result<std::vector<double>> FinalFeature(const Matrix& points) const;
  /// Like WindowPoints, but with explicit (possibly notch-augmented)
  /// options and dead EMG channels neutralized to the training mean
  /// before the z-score transform (so they land at exactly 0).
  Result<Matrix> WindowPointsMasked(
      const MotionSequence& mocap, const EmgRecording& emg,
      const ClassifierOptions& options,
      const std::vector<size_t>* masked_channels) const;
  /// Populates final_db_ from final_features_/labels_; clears it on
  /// any insert failure (best-effort — the per-trial path still works).
  void BuildFinalDatabase();

  ClassifierOptions options_;
  Normalizer normalizer_;
  FcmCodebook codebook_;
  Matrix final_features_;
  std::vector<size_t> labels_;
  std::vector<std::string> label_names_;
  /// Modality-fallback sub-models (shared so the classifier stays
  /// copyable); null unless trained with train_fallbacks.
  std::shared_ptr<const MotionClassifier> mocap_only_;
  std::shared_ptr<const MotionClassifier> emg_only_;
  /// Retrieval-side view of final_features_ (shared so the classifier
  /// stays copyable; immutable after construction).
  std::shared_ptr<const MotionDatabase> final_db_;
};

}  // namespace mocemg

#endif  // MOCEMG_CORE_CLASSIFIER_H_
