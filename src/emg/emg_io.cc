#include "emg/emg_io.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace mocemg {
namespace {

constexpr char kRateKey[] = "sample_rate_hz=";

}  // namespace

Result<EmgRecording> ParseEmgCsv(const std::string& text) {
  LineCursor lines(text);
  std::string_view line;
  // The leading comment block carries the sample rate; the first other
  // non-blank line is the channel header.
  double sample_rate = -1.0;
  bool have_header = false;
  while (lines.Next(&line)) {
    const std::string_view t = Trim(line);
    if (t.empty()) continue;
    if (t.front() != '#') {
      have_header = true;
      break;
    }
    const size_t pos = t.find(kRateKey);
    if (pos != std::string_view::npos) {
      MOCEMG_ASSIGN_OR_RETURN(
          sample_rate, ParseDouble(t.substr(pos + sizeof(kRateKey) - 1)));
    }
  }
  if (!std::isfinite(sample_rate) || sample_rate <= 0.0) {
    return Status::ParseError(
        "EMG CSV must carry a '# sample_rate_hz=<rate>' comment with a "
        "positive finite rate");
  }
  if (!have_header) {
    return Status::ParseError("EMG CSV missing channel header");
  }

  CsvLineSplitter splitter;
  MOCEMG_RETURN_NOT_OK(splitter.Split(line, lines.line_no()));
  const std::vector<std::string> names(splitter.fields().begin(),
                                       splitter.fields().end());
  const size_t width = names.size();
  // Malformed CSV (an open quote, a row of the wrong width) anywhere in
  // the text outranks a bad channel name, which outranks a bad number,
  // which outranks a non-finite sample. The first two are returned as
  // found; the others are held until every line has been split.
  Status value_error;
  Status nonfinite_error;
  std::vector<Muscle> muscles;
  muscles.reserve(width);
  for (const std::string& name : names) {
    Result<Muscle> m = MuscleFromName(std::string(Trim(name)));
    if (!m.ok()) {
      value_error = m.status();
      break;
    }
    muscles.push_back(*m);
  }
  std::vector<std::vector<double>> channels(width);
  if (value_error.ok()) {
    const std::string_view rest = lines.rest();
    const size_t max_rows = std::count(rest.begin(), rest.end(), '\n') + 1;
    for (auto& ch : channels) ch.reserve(max_rows);
  }
  size_t row = 0;
  while (lines.Next(&line)) {
    const std::string_view t = Trim(line);
    if (t.empty() || t.front() == '#') continue;
    MOCEMG_RETURN_NOT_OK(splitter.Split(line, lines.line_no()));
    MOCEMG_RETURN_NOT_OK(splitter.CheckFieldCount(width));
    for (size_t c = 0; c < width && value_error.ok(); ++c) {
      Result<double> v = ParseDouble(splitter.fields()[c]);
      if (!v.ok()) {
        value_error = v.status().WithContext("row " + std::to_string(row) +
                                             ", column " + std::to_string(c));
        break;
      }
      if (!std::isfinite(*v) && nonfinite_error.ok()) {
        nonfinite_error = Status::ParseError(
            "non-finite sample in row " + std::to_string(row) +
            ", channel '" + names[c] +
            "'; amplifier faults must be repaired upstream, not "
            "serialized as NaN");
      }
      channels[c].push_back(*v);
    }
    ++row;
  }
  MOCEMG_RETURN_NOT_OK(value_error);
  MOCEMG_RETURN_NOT_OK(nonfinite_error);
  return EmgRecording::Create(std::move(muscles), std::move(channels),
                              sample_rate);
}

Result<EmgRecording> ReadEmgCsvFile(const std::string& path) {
  MOCEMG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  auto result = ParseEmgCsv(text);
  if (!result.ok()) {
    return result.status().WithContext("while parsing '" + path + "'");
  }
  return result;
}

std::string WriteEmgCsv(const EmgRecording& recording) {
  CsvWriter w;
  w.WriteComment(std::string(kRateKey) +
                 FormatDouble(recording.sample_rate_hz(), 6));
  std::vector<std::string> header;
  for (Muscle m : recording.muscles()) header.emplace_back(MuscleName(m));
  w.WriteRow(header);
  const size_t n = recording.num_samples();
  std::vector<double> row(recording.num_channels());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < recording.num_channels(); ++c) {
      row[c] = recording.channel(c)[i];
    }
    w.WriteNumericRow(row, 10);
  }
  return w.str();
}

Status WriteEmgCsvFile(const EmgRecording& recording,
                       const std::string& path) {
  return WriteStringToFile(path, WriteEmgCsv(recording));
}

}  // namespace mocemg
