#include "util/csv.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/macros.h"
#include "util/string_util.h"

namespace mocemg {

Status CsvLineSplitter::Split(std::string_view line, size_t line_no) {
  line_no_ = line_no;
  fields_.clear();
  unquoted_.clear();
  // Unescaped text is never longer than the line, so the buffer does not
  // reallocate below and views into it stay valid.
  unquoted_.reserve(line.size());
  size_t i = 0;
  while (true) {
    size_t end;
    if (i < line.size() && line[i] == '"') {
      const size_t begin = unquoted_.size();
      bool closed = false;
      for (++i; i < line.size(); ++i) {
        if (line[i] != '"') {
          unquoted_.push_back(line[i]);
        } else if (i + 1 < line.size() && line[i + 1] == '"') {
          unquoted_.push_back('"');
          ++i;
        } else {
          closed = true;
          ++i;
          break;
        }
      }
      if (!closed) {
        return Status::ParseError("unterminated quote on line " +
                                  std::to_string(line_no));
      }
      end = std::min(line.find(delimiter_, i), line.size());
      unquoted_.append(line.substr(i, end - i));
      fields_.emplace_back(unquoted_.data() + begin,
                           unquoted_.size() - begin);
    } else {
      end = std::min(line.find(delimiter_, i), line.size());
      fields_.push_back(line.substr(i, end - i));
    }
    if (end == line.size()) return Status::OK();
    i = end + 1;
  }
}

Status CsvLineSplitter::CheckFieldCount(size_t expected) const {
  if (fields_.size() == expected) return Status::OK();
  return Status::ParseError("row on line " + std::to_string(line_no_) +
                            " has " + std::to_string(fields_.size()) +
                            " fields, expected " + std::to_string(expected));
}

Result<CsvTable> CsvTable::FromString(const std::string& text,
                                      const CsvOptions& options) {
  CsvTable table;
  LineCursor lines(text);
  CsvLineSplitter splitter(options.delimiter);
  std::string_view line;
  bool header_done = !options.has_header;
  size_t expected_fields = 0;
  while (lines.Next(&line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == options.comment_char) continue;
    MOCEMG_RETURN_NOT_OK(splitter.Split(line, lines.line_no()));
    std::vector<std::string> fields(splitter.fields().begin(),
                                    splitter.fields().end());
    if (!header_done) {
      table.header_ = std::move(fields);
      expected_fields = table.header_.size();
      header_done = true;
      continue;
    }
    if (expected_fields == 0) expected_fields = fields.size();
    if (!options.allow_ragged_rows) {
      MOCEMG_RETURN_NOT_OK(splitter.CheckFieldCount(expected_fields));
    }
    table.rows_.push_back(std::move(fields));
  }
  return table;
}

Result<CsvTable> CsvTable::FromFile(const std::string& path,
                                    const CsvOptions& options) {
  MOCEMG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  auto result = FromString(text, options);
  if (!result.ok()) {
    return result.status().WithContext("while parsing '" + path + "'");
  }
  return result;
}

Result<size_t> CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

Result<std::vector<std::vector<double>>> CsvTable::ToNumeric() const {
  std::vector<std::vector<double>> out;
  out.reserve(rows_.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::vector<double> row;
    row.reserve(rows_[r].size());
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      auto v = ParseDouble(rows_[r][c]);
      if (!v.ok()) {
        return v.status().WithContext("row " + std::to_string(r) +
                                      ", column " + std::to_string(c));
      }
      row.push_back(*v);
    }
    out.push_back(std::move(row));
  }
  return out;
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) buffer_.push_back(delimiter_);
    const std::string& cell = cells[i];
    bool needs_quote =
        cell.find(delimiter_) != std::string::npos ||
        cell.find('"') != std::string::npos ||
        cell.find('\n') != std::string::npos;
    if (needs_quote) {
      buffer_.push_back('"');
      for (char c : cell) {
        if (c == '"') buffer_.push_back('"');
        buffer_.push_back(c);
      }
      buffer_.push_back('"');
    } else {
      buffer_.append(cell);
    }
  }
  buffer_.push_back('\n');
}

void CsvWriter::WriteNumericRow(const std::vector<double>& cells,
                                int precision) {
  std::vector<std::string> strs;
  strs.reserve(cells.size());
  for (double v : cells) strs.push_back(FormatDouble(v, precision));
  WriteRow(strs);
}

void CsvWriter::WriteComment(const std::string& text) {
  buffer_.append("# ");
  buffer_.append(text);
  buffer_.push_back('\n');
}

Status CsvWriter::ToFile(const std::string& path) const {
  return WriteStringToFile(path, buffer_);
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  // Size the string from the file and read it in one call. Files with no
  // size up front (pipes) or that grew since are read on to EOF.
  std::error_code ec;
  uintmax_t size = 0;
  if (std::filesystem::is_regular_file(path, ec)) {
    size = std::filesystem::file_size(path, ec);
    if (ec) size = 0;
  }
  std::string out(static_cast<size_t>(size), '\0');
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  size_t got = static_cast<size_t>(in.gcount());
  while (got == out.size() && in.peek() != std::ifstream::traits_type::eof()) {
    out.resize(std::max<size_t>(2 * out.size(), 4096));
    in.read(out.data() + got, static_cast<std::streamsize>(out.size() - got));
    got += static_cast<size_t>(in.gcount());
  }
  if (in.bad()) return Status::IOError("read failure on '" + path + "'");
  out.resize(got);
  return out;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace mocemg
