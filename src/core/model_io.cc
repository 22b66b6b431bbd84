#include "core/model_io.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/csv.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace mocemg {
namespace {

constexpr char kMagic[] = "MOCEMGM1";

const char* ClusterMethodName(ClusterMethod method) {
  return method == ClusterMethod::kFuzzyCMeans ? "fcm" : "kmeans_hard";
}

Result<ClusterMethod> ClusterMethodFromName(std::string_view name) {
  if (name == "fcm") return ClusterMethod::kFuzzyCMeans;
  if (name == "kmeans_hard") return ClusterMethod::kKmeansHard;
  return Status::ParseError("unknown cluster method '" +
                            std::string(name) + "'");
}

Result<EmgFeatureKind> EmgFeatureFromName(std::string_view name) {
  for (EmgFeatureKind kind :
       {EmgFeatureKind::kIav, EmgFeatureKind::kMav, EmgFeatureKind::kRms,
        EmgFeatureKind::kWaveformLength, EmgFeatureKind::kZeroCrossings,
        EmgFeatureKind::kAr4}) {
    if (name == EmgFeatureKindName(kind)) return kind;
  }
  return Status::ParseError("unknown EMG feature '" + std::string(name) +
                            "'");
}

Result<MocapFeatureKind> MocapFeatureFromName(std::string_view name) {
  for (MocapFeatureKind kind :
       {MocapFeatureKind::kWeightedSvd, MocapFeatureKind::kMeanPosition,
        MocapFeatureKind::kDisplacement}) {
    if (name == MocapFeatureKindName(kind)) return kind;
  }
  return Status::ParseError("unknown mocap feature '" +
                            std::string(name) + "'");
}

void WriteVector(std::ostringstream* out, const char* key,
                 const std::vector<double>& v) {
  *out << key;
  for (double x : v) *out << '\t' << FormatDouble(x, 12);
  *out << '\n';
}

// One parsed "key<TAB>fields..." line.
struct Line {
  std::string key;
  std::vector<std::string> fields;
};

class LineReader {
 public:
  explicit LineReader(std::string_view text) : lines_(text) {}

  /// Next non-empty line; fails at end of input.
  Result<Line> Next(const char* expected_key = nullptr) {
    std::string_view raw;
    while (lines_.Next(&raw)) {
      if (Trim(raw).empty()) continue;
      const std::vector<std::string_view> parts = Split(raw, '\t');
      Line line;
      line.key = parts[0];
      line.fields.assign(parts.begin() + 1, parts.end());
      if (expected_key != nullptr && line.key != expected_key) {
        return Status::ParseError("expected key '" +
                                  std::string(expected_key) + "', got '" +
                                  line.key + "'");
      }
      return line;
    }
    return Status::ParseError(
        std::string("model truncated; expected ") +
        (expected_key ? expected_key : "more data"));
  }

 private:
  LineCursor lines_;
};

Result<double> OneDouble(const Line& line) {
  if (line.fields.size() != 1) {
    return Status::ParseError("key '" + line.key + "' needs one value");
  }
  return ParseDouble(line.fields[0]);
}

// A finite real: a NaN or infinite edge would design NaN filters.
Result<double> OneFiniteDouble(const Line& line) {
  MOCEMG_ASSIGN_OR_RETURN(double v, OneDouble(line));
  if (!std::isfinite(v)) {
    return Status::ParseError("key '" + line.key + "' must be finite");
  }
  return v;
}

// An exact integer in [lo, hi]: a count or order written as a real
// ("2.5", "1e300", "nan") or out of range is corrupt, and converting it
// to an integer type would be undefined.
Result<int64_t> OneInt(const Line& line, int64_t lo, int64_t hi) {
  if (line.fields.size() != 1) {
    return Status::ParseError("key '" + line.key + "' needs one value");
  }
  MOCEMG_ASSIGN_OR_RETURN(int64_t v, ParseInt(line.fields[0]));
  if (v < lo || v > hi) {
    return Status::ParseError("key '" + line.key + "' = " +
                              std::to_string(v) + " lies outside [" +
                              std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
  }
  return v;
}

Result<std::vector<double>> AllDoubles(const Line& line, size_t expected) {
  if (line.fields.size() != expected) {
    return Status::ParseError(
        "key '" + line.key + "' carries " +
        std::to_string(line.fields.size()) + " values, expected " +
        std::to_string(expected));
  }
  std::vector<double> out;
  out.reserve(expected);
  for (const auto& f : line.fields) {
    MOCEMG_ASSIGN_OR_RETURN(double v, ParseDouble(f));
    out.push_back(v);
  }
  return out;
}

}  // namespace

Result<std::string> SerializeClassifier(
    const MotionClassifier& classifier) {
  if (classifier.num_motions() == 0) {
    return Status::FailedPrecondition("classifier is not trained");
  }
  const ClassifierOptions& opts = classifier.options();
  std::ostringstream out;
  out << kMagic << '\n';
  out << "window_ms\t" << FormatDouble(opts.features.window_ms, 6) << '\n';
  out << "hop_ms\t" << FormatDouble(opts.features.hop_ms, 6) << '\n';
  out << "hop_frames\t" << opts.features.hop_frames << '\n';
  out << "use_emg\t" << (opts.features.use_emg ? 1 : 0) << '\n';
  out << "use_mocap\t" << (opts.features.use_mocap ? 1 : 0) << '\n';
  out << "emg_feature\t" << EmgFeatureKindName(opts.features.emg_feature)
      << '\n';
  out << "mocap_feature\t"
      << MocapFeatureKindName(opts.features.mocap_feature) << '\n';
  out << "normalize_heading\t"
      << (opts.features.local_transform.normalize_heading ? 1 : 0) << '\n';
  out << "condition_emg\t" << (opts.condition_emg ? 1 : 0) << '\n';
  out << "band_low_hz\t" << FormatDouble(opts.acquisition.band_low_hz, 6)
      << '\n';
  out << "band_high_hz\t"
      << FormatDouble(opts.acquisition.band_high_hz, 6) << '\n';
  out << "filter_order\t" << opts.acquisition.filter_order << '\n';
  out << "cluster_method\t" << ClusterMethodName(opts.cluster_method)
      << '\n';
  out << "fuzziness\t"
      << FormatDouble(classifier.codebook().fuzziness(), 6) << '\n';

  out << "dim\t" << classifier.codebook().dimension() << '\n';
  out << "clusters\t" << classifier.codebook().num_clusters() << '\n';
  WriteVector(&out, "normalizer_mean", classifier.normalizer().mean());
  WriteVector(&out, "normalizer_stddev",
              classifier.normalizer().stddev());
  for (size_t i = 0; i < classifier.codebook().num_clusters(); ++i) {
    WriteVector(&out, "center", classifier.codebook().centers().Row(i));
  }

  out << "motions\t" << classifier.num_motions() << '\t'
      << classifier.final_features().cols() << '\n';
  for (size_t i = 0; i < classifier.num_motions(); ++i) {
    out << "motion\t" << classifier.labels()[i] << '\t'
        << classifier.label_names()[i];
    for (double v : classifier.final_features().Row(i)) {
      out << '\t' << FormatDouble(v, 12);
    }
    out << '\n';
  }
  return out.str();
}

Result<MotionClassifier> DeserializeClassifier(const std::string& text) {
  LineReader reader(text);
  MOCEMG_ASSIGN_OR_RETURN(Line magic, reader.Next());
  if (magic.key != kMagic) {
    return Status::ParseError("not a mocemg model (bad magic '" +
                              magic.key + "')");
  }

  ClassifierOptions opts;
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("window_ms"));
    MOCEMG_ASSIGN_OR_RETURN(opts.features.window_ms, OneDouble(l));
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("hop_ms"));
    MOCEMG_ASSIGN_OR_RETURN(opts.features.hop_ms, OneDouble(l));
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("hop_frames"));
    MOCEMG_ASSIGN_OR_RETURN(
        int64_t v, OneInt(l, 0, std::numeric_limits<int64_t>::max()));
    opts.features.hop_frames = static_cast<size_t>(v);
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("use_emg"));
    MOCEMG_ASSIGN_OR_RETURN(double v, OneDouble(l));
    opts.features.use_emg = v != 0.0;
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("use_mocap"));
    MOCEMG_ASSIGN_OR_RETURN(double v, OneDouble(l));
    opts.features.use_mocap = v != 0.0;
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("emg_feature"));
    if (l.fields.size() != 1) return Status::ParseError("emg_feature");
    MOCEMG_ASSIGN_OR_RETURN(opts.features.emg_feature,
                            EmgFeatureFromName(l.fields[0]));
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("mocap_feature"));
    if (l.fields.size() != 1) return Status::ParseError("mocap_feature");
    MOCEMG_ASSIGN_OR_RETURN(opts.features.mocap_feature,
                            MocapFeatureFromName(l.fields[0]));
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("normalize_heading"));
    MOCEMG_ASSIGN_OR_RETURN(double v, OneDouble(l));
    opts.features.local_transform.normalize_heading = v != 0.0;
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("condition_emg"));
    MOCEMG_ASSIGN_OR_RETURN(double v, OneDouble(l));
    opts.condition_emg = v != 0.0;
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("band_low_hz"));
    MOCEMG_ASSIGN_OR_RETURN(opts.acquisition.band_low_hz,
                            OneFiniteDouble(l));
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("band_high_hz"));
    MOCEMG_ASSIGN_OR_RETURN(opts.acquisition.band_high_hz,
                            OneFiniteDouble(l));
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("filter_order"));
    MOCEMG_ASSIGN_OR_RETURN(
        int64_t v, OneInt(l, 1, std::numeric_limits<int>::max()));
    opts.acquisition.filter_order = static_cast<int>(v);
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("cluster_method"));
    if (l.fields.size() != 1) return Status::ParseError("cluster_method");
    MOCEMG_ASSIGN_OR_RETURN(opts.cluster_method,
                            ClusterMethodFromName(l.fields[0]));
  }
  double fuzziness = 2.0;
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("fuzziness"));
    MOCEMG_ASSIGN_OR_RETURN(fuzziness, OneDouble(l));
  }

  // Every center value takes at least two bytes of the text ("\t0"), so
  // a model declaring more than text.size() / 2 of them is corrupt — and
  // would otherwise size the center matrix from the corrupt counts.
  const int64_t max_values = static_cast<int64_t>(text.size() / 2);
  size_t dim = 0;
  size_t clusters = 0;
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("dim"));
    MOCEMG_ASSIGN_OR_RETURN(int64_t v, OneInt(l, 0, max_values));
    dim = static_cast<size_t>(v);
  }
  {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("clusters"));
    MOCEMG_ASSIGN_OR_RETURN(int64_t v, OneInt(l, 0, max_values));
    clusters = static_cast<size_t>(v);
  }
  if (dim == 0 || clusters == 0) {
    return Status::ParseError("model declares zero dim or clusters");
  }
  if (clusters > static_cast<size_t>(max_values) / dim) {
    return Status::ParseError(
        "model declares " + std::to_string(clusters) + " centers of dim " +
        std::to_string(dim) + ", more values than its " +
        std::to_string(text.size()) + " bytes hold");
  }

  MOCEMG_ASSIGN_OR_RETURN(Line mean_line, reader.Next("normalizer_mean"));
  MOCEMG_ASSIGN_OR_RETURN(std::vector<double> mean,
                          AllDoubles(mean_line, dim));
  MOCEMG_ASSIGN_OR_RETURN(Line std_line, reader.Next("normalizer_stddev"));
  MOCEMG_ASSIGN_OR_RETURN(std::vector<double> stddev,
                          AllDoubles(std_line, dim));
  MOCEMG_ASSIGN_OR_RETURN(Normalizer normalizer,
                          Normalizer::FromMoments(std::move(mean),
                                                  std::move(stddev)));

  Matrix centers(clusters, dim);
  for (size_t i = 0; i < clusters; ++i) {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("center"));
    MOCEMG_ASSIGN_OR_RETURN(std::vector<double> row, AllDoubles(l, dim));
    centers.SetRow(i, row);
  }
  MOCEMG_ASSIGN_OR_RETURN(
      FcmCodebook codebook,
      FcmCodebook::FromCenters(std::move(centers), fuzziness));

  MOCEMG_ASSIGN_OR_RETURN(Line motions_line, reader.Next("motions"));
  if (motions_line.fields.size() != 2) {
    return Status::ParseError("'motions' needs count and feature length");
  }
  MOCEMG_ASSIGN_OR_RETURN(int64_t count, ParseInt(motions_line.fields[0]));
  MOCEMG_ASSIGN_OR_RETURN(int64_t flen, ParseInt(motions_line.fields[1]));
  if (count <= 0 || flen <= 0) {
    return Status::ParseError("non-positive motion count/feature length");
  }
  if (flen > max_values || count > max_values / flen) {
    return Status::ParseError(
        "model declares " + std::to_string(count) + " motions of length " +
        std::to_string(flen) + ", more values than its " +
        std::to_string(text.size()) + " bytes hold");
  }

  Matrix finals(static_cast<size_t>(count), static_cast<size_t>(flen));
  std::vector<size_t> labels;
  std::vector<std::string> names;
  for (int64_t i = 0; i < count; ++i) {
    MOCEMG_ASSIGN_OR_RETURN(Line l, reader.Next("motion"));
    if (l.fields.size() != 2 + static_cast<size_t>(flen)) {
      return Status::ParseError("motion row " + std::to_string(i) +
                                " has wrong field count");
    }
    MOCEMG_ASSIGN_OR_RETURN(int64_t label, ParseInt(l.fields[0]));
    labels.push_back(static_cast<size_t>(label));
    names.push_back(l.fields[1]);
    std::vector<double> feature;
    feature.reserve(static_cast<size_t>(flen));
    for (int64_t j = 0; j < flen; ++j) {
      MOCEMG_ASSIGN_OR_RETURN(double v,
                              ParseDouble(l.fields[2 + static_cast<size_t>(j)]));
      feature.push_back(v);
    }
    finals.SetRow(static_cast<size_t>(i), feature);
  }

  return MotionClassifier::FromParts(opts, std::move(normalizer),
                                     std::move(codebook),
                                     std::move(finals), std::move(labels),
                                     std::move(names));
}

Status SaveClassifier(const MotionClassifier& classifier,
                      const std::string& path) {
  MOCEMG_ASSIGN_OR_RETURN(std::string text,
                          SerializeClassifier(classifier));
  return WriteStringToFile(path, text);
}

Result<MotionClassifier> LoadClassifier(const std::string& path) {
  MOCEMG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  auto result = DeserializeClassifier(text);
  if (!result.ok()) {
    return result.status().WithContext("while loading model '" + path +
                                       "'");
  }
  return result;
}

}  // namespace mocemg
