/// \file csv.h
/// \brief Hand-rolled CSV reader/writer used for motion and EMG exchange
/// files (the paper's lab exported Vicon iQ and Myomonitor captures to
/// delimited text; we keep the same interchange shape).
///
/// Dialect: configurable single-character delimiter (default ','), '#'
/// comment lines, optional header row, RFC-4180-style double-quote
/// escaping for text fields. Numeric tables are parsed strictly — every
/// cell must be a complete number.

#ifndef MOCEMG_UTIL_CSV_H_
#define MOCEMG_UTIL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace mocemg {

/// \brief Parsing options for CsvTable reads.
struct CsvOptions {
  char delimiter = ',';
  /// First non-comment line is a header of column names.
  bool has_header = true;
  /// Lines starting with this character (after trimming) are skipped.
  char comment_char = '#';
  /// Allow rows with fewer/more fields than the header (error if false).
  bool allow_ragged_rows = false;
};

/// \brief An in-memory parsed CSV: header plus string cells.
class CsvTable {
 public:
  /// \brief Parses CSV text into a table.
  static Result<CsvTable> FromString(const std::string& text,
                                     const CsvOptions& options = {});

  /// \brief Reads and parses a CSV file.
  static Result<CsvTable> FromFile(const std::string& path,
                                   const CsvOptions& options = {});

  /// \brief Column names (empty when options.has_header was false).
  const std::vector<std::string>& header() const { return header_; }

  /// \brief Parsed rows of string cells.
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const {
    return header_.empty() ? (rows_.empty() ? 0 : rows_[0].size())
                           : header_.size();
  }

  /// \brief Index of the named column, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// \brief Parses every cell as double into a row-major matrix buffer.
  /// Fails on any non-numeric cell or ragged row.
  Result<std::vector<std::vector<double>>> ToNumeric() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// \brief Splits CSV lines into fields without copying plain cells.
///
/// The one CSV field splitter: CsvTable and the EMG reader both use it.
/// A field that opens with '"' is quoted: it may hold the delimiter, a
/// doubled quote stands for one quote, and any text between the closing
/// quote and the next delimiter is kept literally. Quoted fields are
/// unescaped into a buffer the splitter owns; every other field is a view
/// into the line. Fields stay valid until the next Split().
class CsvLineSplitter {
 public:
  explicit CsvLineSplitter(char delimiter = ',') : delimiter_(delimiter) {}

  /// \brief Splits one line (without its newline). `line_no` labels
  /// errors about this line.
  Status Split(std::string_view line, size_t line_no);

  /// \brief Fields of the line last split.
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// \brief Fails unless the line last split had `expected` fields.
  Status CheckFieldCount(size_t expected) const;

 private:
  char delimiter_;
  size_t line_no_ = 0;
  std::vector<std::string_view> fields_;
  std::string unquoted_;
};

/// \brief Streaming CSV writer with quoting.
class CsvWriter {
 public:
  explicit CsvWriter(char delimiter = ',') : delimiter_(delimiter) {}

  /// \brief Appends one row; cells containing the delimiter, quotes or
  /// newlines are quoted and escaped.
  void WriteRow(const std::vector<std::string>& cells);

  /// \brief Appends one row of doubles with the given precision.
  void WriteNumericRow(const std::vector<double>& cells, int precision = 9);

  /// \brief Appends a comment line.
  void WriteComment(const std::string& text);

  /// \brief The accumulated CSV text.
  const std::string& str() const { return buffer_; }

  /// \brief Writes the accumulated text to a file.
  Status ToFile(const std::string& path) const;

 private:
  char delimiter_;
  std::string buffer_;
};

/// \brief Reads an entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Writes a string to a file, replacing any existing content.
Status WriteStringToFile(const std::string& path,
                         const std::string& content);

}  // namespace mocemg

#endif  // MOCEMG_UTIL_CSV_H_
