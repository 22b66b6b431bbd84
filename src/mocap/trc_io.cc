#include "mocap/trc_io.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace mocemg {
namespace {

Result<std::string_view> NextLine(LineCursor* lines, const char* what) {
  std::string_view line;
  if (!lines->Next(&line)) {
    return Status::ParseError(std::string("truncated TRC: missing ") +
                              what);
  }
  return line;
}

// Parses the coordinates of data row `row` (1-based, for messages),
// scales them to mm and appends them to `out`. A row with too few
// fields reports that before any bad value in it.
Status ParseDataRow(std::string_view line, size_t num_markers,
                    double unit_to_mm, size_t row, std::vector<double>* out) {
  const size_t coords = 3 * num_markers;
  auto fail = [&](Status value_error) {
    const size_t fields = std::count(line.begin(), line.end(), '\t') + 1;
    if (fields >= 2 + coords) return value_error;
    return Status::ParseError(
        "data row " + std::to_string(row) + " has " +
        std::to_string(fields) + " fields, expected >= " +
        std::to_string(2 + coords) + " (truncated capture?)");
  };
  // Skip the Frame# and Time columns.
  size_t pos = line.find('\t');
  if (pos != std::string_view::npos) pos = line.find('\t', pos + 1);
  for (size_t m = 0; m < coords; ++m) {
    if (pos == std::string_view::npos) return fail(Status::OK());
    const size_t begin = pos + 1;
    pos = line.find('\t', begin);
    const std::string_view field =
        line.substr(begin, std::min(pos, line.size()) - begin);
    Result<double> v = ParseDouble(field);
    if (!v.ok()) return fail(v.status());
    if (!std::isfinite(*v)) {
      return fail(Status::ParseError(
          "non-finite coordinate '" + std::string(Trim(field)) +
          "' in data row " + std::to_string(row) +
          "; occluded markers must be repaired upstream, not "
          "serialized as NaN"));
    }
    out->push_back(*v * unit_to_mm);
  }
  return Status::OK();
}

}  // namespace

Result<MotionSequence> ParseTrc(const std::string& text) {
  LineCursor lines(text);
  MOCEMG_ASSIGN_OR_RETURN(std::string_view line1,
                          NextLine(&lines, "header line 1"));
  if (!StartsWith(line1, "PathFileType")) {
    return Status::ParseError("not a TRC file (no PathFileType header)");
  }
  MOCEMG_ASSIGN_OR_RETURN(std::string_view line2,
                          NextLine(&lines, "header line 2"));
  MOCEMG_ASSIGN_OR_RETURN(std::string_view line3,
                          NextLine(&lines, "header line 3"));

  // Map header fields to values.
  const std::vector<std::string_view> keys = Split(line2, '\t');
  const std::vector<std::string_view> vals = Split(line3, '\t');
  double data_rate = 120.0;
  size_t num_frames = 0;
  size_t num_markers = 0;
  double unit_to_mm = 1.0;
  for (size_t i = 0; i < keys.size() && i < vals.size(); ++i) {
    const std::string_view key = Trim(keys[i]);
    const std::string_view val = Trim(vals[i]);
    if (key == "DataRate") {
      MOCEMG_ASSIGN_OR_RETURN(data_rate, ParseDouble(val));
      if (!std::isfinite(data_rate) || data_rate <= 0.0) {
        return Status::ParseError("TRC DataRate '" + std::string(val) +
                                  "' is not a positive finite rate");
      }
    } else if (key == "NumFrames") {
      MOCEMG_ASSIGN_OR_RETURN(int64_t v, ParseInt(val));
      num_frames = static_cast<size_t>(v);
    } else if (key == "NumMarkers") {
      MOCEMG_ASSIGN_OR_RETURN(int64_t v, ParseInt(val));
      num_markers = static_cast<size_t>(v);
    } else if (key == "Units") {
      if (EqualsIgnoreCase(val, "m")) {
        unit_to_mm = 1000.0;
      } else if (!EqualsIgnoreCase(val, "mm")) {
        return Status::ParseError("unsupported TRC units '" +
                                  std::string(val) + "'");
      }
    }
  }
  if (num_markers == 0) {
    return Status::ParseError("TRC header declares zero markers");
  }

  MOCEMG_ASSIGN_OR_RETURN(std::string_view name_line,
                          NextLine(&lines, "marker-name line"));
  // TRC pads each marker name with two empty columns.
  const std::vector<std::string_view> name_fields = Split(name_line, '\t');
  if (name_fields.size() < 2 || Trim(name_fields[0]) != "Frame#") {
    return Status::ParseError("malformed marker-name line");
  }
  std::vector<Segment> segments;
  for (size_t i = 2; i < name_fields.size(); ++i) {
    const std::string_view f = Trim(name_fields[i]);
    if (f.empty()) continue;
    MOCEMG_ASSIGN_OR_RETURN(Segment s, SegmentFromName(std::string(f)));
    segments.push_back(s);
  }
  if (segments.size() != num_markers) {
    return Status::ParseError(
        "marker-name line lists " + std::to_string(segments.size()) +
        " markers but header declares " + std::to_string(num_markers));
  }

  // Sub-header (X1 Y1 Z1 ...) — present in well-formed files; tolerate a
  // file that jumps straight to data by peeking at the first field.
  MOCEMG_ASSIGN_OR_RETURN(std::string_view line,
                          NextLine(&lines, "coordinate sub-header"));
  const size_t cols = 3 * num_markers;
  std::vector<double> data;
  // Room for the declared frames, capped by what the remaining text can
  // hold (a coordinate takes at least a digit and a tab).
  data.reserve(std::min(num_frames, lines.rest().size() / (2 * cols) + 1) *
               cols);
  size_t frames = 0;
  bool is_data = ParseInt(line.substr(0, line.find('\t'))).ok();
  do {
    if (is_data && !Trim(line).empty()) {
      MOCEMG_RETURN_NOT_OK(
          ParseDataRow(line, num_markers, unit_to_mm, frames + 1, &data));
      ++frames;
    }
    is_data = true;
  } while (lines.Next(&line));
  if (num_frames != 0 && frames != num_frames) {
    return Status::ParseError("TRC header declares " +
                              std::to_string(num_frames) +
                              " frames but file contains " +
                              std::to_string(frames));
  }

  // An empty capture keeps the 0x0 shape MotionSequence::Create rejects.
  Matrix positions;
  if (frames > 0) {
    MOCEMG_ASSIGN_OR_RETURN(
        positions, Matrix::FromRowMajor(frames, cols, std::move(data)));
  }
  return MotionSequence::Create(MarkerSet(std::move(segments)),
                                std::move(positions), data_rate);
}

Result<MotionSequence> ReadTrcFile(const std::string& path) {
  MOCEMG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  auto result = ParseTrc(text);
  if (!result.ok()) {
    return result.status().WithContext("while parsing '" + path + "'");
  }
  return result;
}

std::string WriteTrc(const MotionSequence& motion,
                     const std::string& file_label) {
  std::ostringstream out;
  const size_t frames = motion.num_frames();
  const size_t markers = motion.num_markers();
  const double rate = motion.frame_rate_hz();
  out << "PathFileType\t4\t(X/Y/Z)\t" << file_label << "\n";
  out << "DataRate\tCameraRate\tNumFrames\tNumMarkers\tUnits\t"
         "OrigDataRate\tOrigDataStartFrame\tOrigNumFrames\n";
  out << FormatDouble(rate, 2) << "\t" << FormatDouble(rate, 2) << "\t"
      << frames << "\t" << markers << "\tmm\t" << FormatDouble(rate, 2)
      << "\t1\t" << frames << "\n";
  out << "Frame#\tTime";
  for (Segment s : motion.marker_set().segments()) {
    out << "\t" << SegmentName(s) << "\t\t";
  }
  out << "\n";
  out << "\t";
  for (size_t m = 1; m <= markers; ++m) {
    out << "\tX" << m << "\tY" << m << "\tZ" << m;
  }
  out << "\n";
  for (size_t f = 0; f < frames; ++f) {
    out << (f + 1) << "\t"
        << FormatDouble(static_cast<double>(f) / rate, 5);
    for (size_t m = 0; m < markers; ++m) {
      const auto p = motion.MarkerPosition(f, m);
      out << "\t" << FormatDouble(p[0], 5) << "\t" << FormatDouble(p[1], 5)
          << "\t" << FormatDouble(p[2], 5);
    }
    out << "\n";
  }
  return out.str();
}

Status WriteTrcFile(const MotionSequence& motion, const std::string& path,
                    const std::string& file_label) {
  return WriteStringToFile(path, WriteTrc(motion, file_label));
}

}  // namespace mocemg
