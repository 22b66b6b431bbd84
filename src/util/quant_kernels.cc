#include "util/quant_kernels.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "util/kernel_dispatch.h"

namespace mocemg {

void ComputeQuantGrid(const double* block, size_t rows, size_t d,
                      double* offsets, double* scale) {
  double max_range = 0.0;
  for (size_t j = 0; j < d; ++j) offsets[j] = block[j];
  // First pass: column minima.
  for (size_t r = 1; r < rows; ++r) {
    const double* row = block + r * d;
    for (size_t j = 0; j < d; ++j) {
      offsets[j] = std::min(offsets[j], row[j]);
    }
  }
  // Second pass: the widest column range sets the uniform step.
  for (size_t r = 0; r < rows; ++r) {
    const double* row = block + r * d;
    for (size_t j = 0; j < d; ++j) {
      max_range = std::max(max_range, row[j] - offsets[j]);
    }
  }
  *scale = max_range / kQuantLevels;
}

namespace {

inline uint8_t EncodeValue(double value, double offset, double scale) {
  if (scale <= 0.0) return 0;
  const double t = std::nearbyint((value - offset) / scale);
  return static_cast<uint8_t>(std::clamp(t, 0.0, kQuantLevels));
}

}  // namespace

void QuantizeRows(const double* block, size_t rows, size_t d,
                  const double* offsets, double scale, uint8_t* codes) {
  for (size_t r = 0; r < rows; ++r) {
    const double* row = block + r * d;
    uint8_t* out = codes + r * d;
    for (size_t j = 0; j < d; ++j) {
      out[j] = EncodeValue(row[j], offsets[j], scale);
    }
  }
}

void QuantizeQuery(const double* query, size_t d, const double* offsets,
                   double scale, uint8_t* qcodes) {
  for (size_t j = 0; j < d; ++j) {
    qcodes[j] = EncodeValue(query[j], offsets[j], scale);
  }
}

void DequantizeRow(const uint8_t* codes, size_t d, const double* offsets,
                   double scale, double* out) {
  for (size_t j = 0; j < d; ++j) {
    out[j] = offsets[j] + scale * static_cast<double>(codes[j]);
  }
}

void QuantizedSsdOneToMany(const uint8_t* qcodes, const uint8_t* codes,
                           size_t rows, size_t d, uint32_t* out) {
  internal::ActiveKernelOps().ssd8_one_to_many(qcodes, codes, rows, d, out);
}

void QuantizedSsdManyToMany(const uint8_t* qcodes, size_t num_queries,
                            const uint8_t* codes, size_t rows, size_t d,
                            uint32_t* out, size_t out_stride) {
  internal::ActiveKernelOps().ssd8_many_to_many(qcodes, num_queries, codes,
                                                rows, d, out, out_stride);
}

double QuantScanSlack(size_t d, double a_sq, double b_sq) {
  // Error budget, all terms absolute (magnitudes bounded by
  // a_sq + b_sq =: M, with the caller passing bounds that cover the
  // grid's bounding box as well as the raw rows):
  //   - exact kernel accumulation on the re-rank side:          <= 4dεM
  //   - build-time error measurement accumulation:              <= 4dεM
  //   - query-residual measurement accumulation:                <= 4dεM
  //   - decode roundings (fl(off + s·c)) folded into the above: <= 8dεM
  // 32dεM covers the sum with margin; see DESIGN.md §11.2.
  return 32.0 * static_cast<double>(d) * DBL_EPSILON * (a_sq + b_sq);
}

}  // namespace mocemg
