// Content-based motion retrieval (the paper's Section 4: "we perform
// content-based retrieval for the given query matrices (EMG + Motion
// Capture) from our database").
//
// Builds a persistent feature database from a capture session, constructs
// the cluster-pruned index, then answers kNN queries both ways and
// reports the pruning statistics. Also demonstrates save/load of the
// database CSV.
//
// Run:  ./motion_retrieval [seed]

#include <cstdio>
#include <cstdlib>

#include "core/classifier.h"
#include "db/motion_database.h"
#include "db/sharded_index.h"
#include "eval/protocols.h"
#include "synth/dataset.h"
#include "util/logging.h"

using namespace mocemg;

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  DatasetOptions lab;
  lab.limb = Limb::kRightHand;
  lab.trials_per_class = 10;
  lab.seed = seed;
  auto captured = GenerateDataset(lab);
  MOCEMG_CHECK_OK(captured.status());

  ClassifierOptions options;
  options.fcm.num_clusters = 18;
  options.fcm.seed = seed;
  auto clf = MotionClassifier::Train(ToLabeledMotions(*captured), options);
  MOCEMG_CHECK_OK(clf.status());

  // Materialize the motion database of final feature vectors.
  MotionDatabase db;
  for (size_t i = 0; i < clf->num_motions(); ++i) {
    MotionRecord rec;
    rec.name =
        clf->label_names()[i] + "/trial" + std::to_string(i % 10);
    rec.label = clf->labels()[i];
    rec.label_name = clf->label_names()[i];
    rec.feature = clf->final_features().Row(i);
    MOCEMG_CHECK_OK(db.Insert(std::move(rec)));
  }
  const std::string db_path = "/tmp/mocemg_motion_db.csv";
  MOCEMG_CHECK_OK(db.SaveCsv(db_path));
  auto reloaded = MotionDatabase::LoadCsv(db_path);
  MOCEMG_CHECK_OK(reloaded.status());
  std::printf("database: %zu motions, %zu-d features (saved to %s)\n",
              reloaded->size(), reloaded->feature_dimension(),
              db_path.c_str());

  auto index = ShardedFeatureIndex::Build(&*reloaded);
  MOCEMG_CHECK_OK(index.status());
  std::printf("index: %zu k-means partitions\n", index->num_partitions());

  // Fresh query motions, one per class.
  size_t total_distance_calcs = 0;
  size_t queries = 0;
  for (size_t cls = 0; cls < NumClassesForLimb(lab.limb); ++cls) {
    auto query = GenerateTrial(lab, cls, 55, seed * 17 + cls);
    MOCEMG_CHECK_OK(query.status());
    auto feature = clf->Featurize(query->mocap, query->emg_raw);
    MOCEMG_CHECK_OK(feature.status());

    IndexQueryStats stats;
    auto hits = index->NearestNeighbors(*feature, 5, &stats);
    MOCEMG_CHECK_OK(hits.status());
    total_distance_calcs += stats.distance_computations;
    ++queries;

    std::printf("\nquery '%s': top-5 retrieved\n",
                query->class_name.c_str());
    for (const auto& h : *hits) {
      std::printf("  %-22s d=%.4f\n",
                  reloaded->record(h.record_index).name.c_str(),
                  h.distance);
    }
    std::printf("  pruning: %zu/%zu partitions skipped, %zu distances\n",
                stats.partitions_pruned,
                stats.partitions_pruned + stats.partitions_visited,
                stats.distance_computations);
  }
  std::printf("\nmean distance computations per query: %.1f (database %zu)\n",
              static_cast<double>(total_distance_calcs) /
                  static_cast<double>(queries),
              reloaded->size());
  return 0;
}
