/// \file kernels_scalar.cc
/// \brief Portable reference backend. Compiled with the project's
/// default flags only (no target-specific options), so this TU *is*
/// the "current auto-vectorized build" that the SIMD backends are
/// benchmarked against and bit-compared to.

#include <algorithm>
#include <cmath>

#include "util/distance_kernels.h"
#include "util/kernels/kernel_backend.h"

namespace mocemg {
namespace internal {
namespace {

double ScalarSquaredL2Pair(const double* x, const double* y, size_t d) {
  return SquaredL2(x, y, d);
}

double ScalarDotPair(const double* x, const double* y, size_t d) {
  return DotProduct(x, y, d);
}

void ScalarL2OneToMany(const double* query, const double* block,
                       size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = SquaredL2(query, block + r * d, d);
  }
}

void ScalarL2DotOneToMany(const double* query, double query_sq,
                          const double* block, const double* norms_sq,
                          size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] =
        query_sq + norms_sq[r] - 2.0 * DotProduct(query, block + r * d, d);
  }
}

void ScalarRowNorms(const double* block, size_t rows, size_t d,
                    double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = SquaredNorm(block + r * d, d);
  }
}

// float32 mirror family: the inline fp32 reference kernels applied per
// row. The dot-form combine is written once here — (query_sq +
// norms_sq[r]) − 2·dot, left to right — and every SIMD backend
// reproduces it literally.

void ScalarL2F32OneToMany(const float* query, const float* block,
                          size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = SquaredL2F32(query, block + r * d, d);
  }
}

void ScalarL2DotF32OneToMany(const float* query, float query_sq,
                             const float* block, const float* norms_sq,
                             size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0f * DotProductF32(query, block + r * d, d);
  }
}

void ScalarRowNormsF32(const float* block, size_t rows, size_t d,
                       float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = SquaredNormF32(block + r * d, d);
  }
}

void ScalarL2DotF32F64OneToMany(const float* query, double query_sq,
                                const float* block,
                                const double* norms_sq, size_t rows,
                                size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0 * DotProductF32ToF64(query, block + r * d, d);
  }
}

// Block (many-to-many) family: per pair these are exactly the
// one-to-many entries above, tiled over rows so a row tile streamed
// from memory is reused by every query while L2-resident. Tiling and
// loop order cannot change bits — each pair's accumulation is
// self-contained.

constexpr size_t kScalarRowTile = 64;

void ScalarL2DotManyToMany(const double* queries, const double* query_sqs,
                           size_t num_queries, const double* block,
                           const double* norms_sq, size_t rows, size_t d,
                           double* out, size_t out_stride) {
  for (size_t r0 = 0; r0 < rows; r0 += kScalarRowTile) {
    const size_t rend = r0 + std::min(rows - r0, kScalarRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const double* query = queries + q * d;
      const double query_sq = query_sqs[q];
      double* orow = out + q * out_stride;
      for (size_t r = r0; r < rend; ++r) {
        orow[r] =
            query_sq + norms_sq[r] - 2.0 * DotProduct(query, block + r * d, d);
      }
    }
  }
}

void ScalarL2DotF32ManyToMany(const float* queries, const float* query_sqs,
                              size_t num_queries, const float* block,
                              const float* norms_sq, size_t rows, size_t d,
                              float* out, size_t out_stride) {
  for (size_t r0 = 0; r0 < rows; r0 += kScalarRowTile) {
    const size_t rend = r0 + std::min(rows - r0, kScalarRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * d;
      const float query_sq = query_sqs[q];
      float* orow = out + q * out_stride;
      for (size_t r = r0; r < rend; ++r) {
        orow[r] = query_sq + norms_sq[r] -
                  2.0f * DotProductF32(query, block + r * d, d);
      }
    }
  }
}

void ScalarL2Gather(const double* query, const double* block,
                    const uint32_t* row_indices, size_t n, size_t d,
                    double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SquaredL2(query, block + static_cast<size_t>(row_indices[i]) * d,
                       d);
  }
}

// Lane-interleaved DF2T cascade: each frame's filled lanes run through
// the sections in Biquad::Process's exact order; the lanes past `lanes`
// are never touched, so a partly filled group costs only its channels.
// Sections are swept kSweepSections at a time so the state fits fixed
// arrays; a section's output sequence depends only on its input
// sequence, so sweeping in chunks cannot change a bit. A zero-section
// call with `rectify` is a plain |x| pass.
constexpr size_t kSweepSections = 8;

void ScalarBiquadCascadeX4(const double* coeffs, size_t sections,
                           double* data, ptrdiff_t frame_stride,
                           size_t frames, size_t lanes, bool rectify) {
  size_t first = 0;
  do {
    const size_t n = std::min(sections - first, kSweepSections);
    const bool store_abs = rectify && first + n == sections;
    const double* c = coeffs + 5 * first;
    double s1[kSweepSections][4] = {};
    double s2[kSweepSections][4] = {};
    ptrdiff_t at = 0;
    for (size_t f = 0; f < frames; ++f, at += 4 * frame_stride) {
      double* frame = data + at;
      for (size_t lane = 0; lane < lanes; ++lane) {
        double x = frame[lane];
        for (size_t k = 0; k < n; ++k) {
          const double* ck = c + 5 * k;
          const double y = ck[0] * x + s1[k][lane];
          s1[k][lane] = ck[1] * x - ck[3] * y + s2[k][lane];
          s2[k][lane] = ck[2] * x - ck[4] * y;
          x = y;
        }
        frame[lane] = store_abs ? std::fabs(x) : x;
      }
    }
    first += n;
  } while (first < sections);
}

}  // namespace

const KernelOps& ScalarKernelOps() {
  static const KernelOps ops = {
      "scalar",
      ScalarSquaredL2Pair,
      ScalarDotPair,
      ScalarL2OneToMany,
      ScalarL2DotOneToMany,
      ScalarRowNorms,
      ScalarL2F32OneToMany,
      ScalarL2DotF32OneToMany,
      ScalarRowNormsF32,
      ScalarL2DotF32F64OneToMany,
      ScalarL2DotManyToMany,
      ScalarL2DotF32ManyToMany,
      ScalarL2Gather,
      ScalarBiquadCascadeX4,
  };
  return ops;
}

}  // namespace internal
}  // namespace mocemg
