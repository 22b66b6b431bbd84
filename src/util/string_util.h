/// \file string_util.h
/// \brief Small string helpers shared by the hand-rolled parsers.

#ifndef MOCEMG_UTIL_STRING_UTIL_H_
#define MOCEMG_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace mocemg {

/// \brief Splits `input` on `delim`, keeping empty fields. The fields
/// are views into `input`, which must outlive them.
std::vector<std::string_view> Split(std::string_view input, char delim);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// \brief True iff `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Strict double parser: the whole trimmed token must be consumed.
///
/// Accepts exactly the tokens glibc `strtod` converts without `ERANGE`
/// (a leading '+', hex floats, inf/nan included) and returns the same
/// bits. Overflow and every nonzero subnormal result are rejected.
/// Allocation-free on the common path: decimal tokens whose magnitude
/// lies in (DBL_MIN, DBL_MAX] go through `std::from_chars`; `strtod`
/// itself decides every other token.
Result<double> ParseDouble(std::string_view token);

/// \brief Strict integer parser: the whole trimmed token must be consumed.
/// Accepts exactly what `strtoll(..., 10)` converts without `ERANGE`.
Result<int64_t> ParseInt(std::string_view token);

/// \brief Walks text one line at a time without copying.
///
/// Splits on '\n' with `std::getline` semantics (a final line without a
/// newline is still returned; text ending in '\n' yields no empty last
/// line) and drops one trailing '\r' from each line, so CRLF files read
/// like LF files.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  /// \brief Stores the next line in `*line`; false at end of text.
  bool Next(std::string_view* line);

  /// \brief 1-based number of the line last returned by Next().
  size_t line_no() const { return line_no_; }

  /// \brief The text after the line last returned by Next().
  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
  size_t line_no_ = 0;
};

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// \brief printf-style double formatting with fixed precision.
std::string FormatDouble(double value, int precision = 6);

}  // namespace mocemg

#endif  // MOCEMG_UTIL_STRING_UTIL_H_
