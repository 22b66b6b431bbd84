/// \file mutate.h
/// \brief The seeded text mutator of the parser robustness sweep, shared
/// with the tests that replay its corpus.

#ifndef MOCEMG_TESTS_INTEGRATION_MUTATE_H_
#define MOCEMG_TESTS_INTEGRATION_MUTATE_H_

#include <string>

#include "util/random.h"

namespace mocemg {

/// Applies `count` random single-character mutations (replace, delete,
/// insert, truncate) to a copy of `input`.
inline std::string Mutate(const std::string& input, int count, Rng* rng) {
  std::string s = input;
  for (int i = 0; i < count && !s.empty(); ++i) {
    const size_t at = static_cast<size_t>(rng->NextBelow(s.size()));
    switch (rng->NextBelow(4)) {
      case 0:
        s[at] = static_cast<char>(rng->UniformInt(32, 126));
        break;
      case 1:
        s.erase(at, 1);
        break;
      case 2:
        s.insert(at, 1, static_cast<char>(rng->UniformInt(32, 126)));
        break;
      default:
        s.resize(at);
        break;
    }
  }
  return s;
}

}  // namespace mocemg

#endif  // MOCEMG_TESTS_INTEGRATION_MUTATE_H_
