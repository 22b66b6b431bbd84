#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mocemg {

std::vector<std::string_view> Split(std::string_view input, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      break;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

namespace {

// The reference grammar: strtod on a NUL-terminated copy of the trimmed
// token. Only tokens the from_chars fast path does not settle reach it.
Result<double> ParseDoubleStrtod(std::string_view t) {
  const std::string copy(t);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (errno == ERANGE) {
    return Status::ParseError("numeric overflow in token '" + copy + "'");
  }
  if (end != copy.c_str() + copy.size()) {
    return Status::ParseError("trailing garbage in numeric token '" + copy +
                              "'");
  }
  return v;
}

}  // namespace

Result<double> ParseDouble(std::string_view token) {
  const std::string_view t = Trim(token);
  if (t.empty()) return Status::ParseError("empty numeric token");
  // from_chars takes a subset of strtod's grammar (no '+', no hex prefix)
  // and rounds correctly, as glibc strtod does, so a full match is the
  // strtod value. glibc also raises ERANGE on results that were tiny
  // before rounding, which can round up to DBL_MIN itself; only values
  // strictly above DBL_MIN are certain to be range-clean. Zero, DBL_MIN,
  // subnormals, inf/nan, range errors and non-matches go to strtod.
  double v = 0.0;
  const char* last = t.data() + t.size();
  const auto [ptr, ec] = std::from_chars(t.data(), last, v);
  if (ec == std::errc() && ptr == last && std::fabs(v) > DBL_MIN &&
      std::fabs(v) <= DBL_MAX) {
    return v;
  }
  return ParseDoubleStrtod(t);
}

Result<int64_t> ParseInt(std::string_view token) {
  const std::string_view t = Trim(token);
  if (t.empty()) return Status::ParseError("empty integer token");
  const char* first = t.data();
  const char* last = t.data() + t.size();
  // strtoll takes a '+' sign; from_chars does not.
  if (*first == '+' && t.size() > 1 &&
      std::isdigit(static_cast<unsigned char>(first[1]))) {
    ++first;
  }
  int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range) {
    return Status::ParseError("integer overflow in token '" +
                              std::string(t) + "'");
  }
  if (ec != std::errc() || ptr != last) {
    return Status::ParseError("trailing garbage in integer token '" +
                              std::string(t) + "'");
  }
  return v;
}

bool LineCursor::Next(std::string_view* line) {
  if (rest_.empty()) return false;
  const size_t nl = rest_.find('\n');
  if (nl == std::string_view::npos) {
    *line = rest_;
    rest_ = {};
  } else {
    *line = rest_.substr(0, nl);
    rest_.remove_prefix(nl + 1);
  }
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  ++line_no_;
  return true;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace mocemg
