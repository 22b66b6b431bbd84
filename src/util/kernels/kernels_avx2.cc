/// \file kernels_avx2.cc
/// \brief AVX2 backend. This TU is compiled with `-mavx2
/// -ffp-contract=off` (see src/util/CMakeLists.txt) and must only be
/// reached through runtime dispatch on CPUs with AVX2.
///
/// Bit-exactness strategy (kernel_dispatch.h): the double kernels keep
/// ONE 4-wide ymm accumulator whose lanes are exactly the scalar
/// reference's a0..a3 — each main-loop step is a vector multiply then a
/// vector add (never FMA: fused rounding would change bits), the <= 3
/// remainder dims are handled on the extracted lanes with the scalar
/// code, and the lanes combine as (a0 + a1) + (a2 + a3). Every lane
/// performs the same IEEE ops in the same order as the scalar loop, so
/// the result is bit-identical for every input, NaN/Inf included.


#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

#include "util/kernels/kernel_backend.h"

namespace mocemg {
namespace internal {
namespace {

// ---------------------------------------------------------------------
// double kernels: 4-lane contract on one ymm accumulator.

inline double CombineTail(__m256d acc, const double* x, const double* y,
                          size_t i, size_t d, bool squared) {
  alignas(32) double a[4];
  _mm256_store_pd(a, acc);
  if (squared) {
    if (i < d) {
      const double d0 = x[i] - y[i];
      a[0] += d0 * d0;
    }
    if (i + 1 < d) {
      const double d1 = x[i + 1] - y[i + 1];
      a[1] += d1 * d1;
    }
    if (i + 2 < d) {
      const double d2 = x[i + 2] - y[i + 2];
      a[2] += d2 * d2;
    }
  } else {
    if (i < d) a[0] += x[i] * y[i];
    if (i + 1 < d) a[1] += x[i + 1] * y[i + 1];
    if (i + 2 < d) a[2] += x[i + 2] * y[i + 2];
  }
  return (a[0] + a[1]) + (a[2] + a[3]);
}

double Avx2SquaredL2Pair(const double* x, const double* y, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return CombineTail(acc, x, y, i, d, /*squared=*/true);
}

double Avx2DotPair(const double* x, const double* y, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  return CombineTail(acc, x, y, i, d, /*squared=*/false);
}

void Avx2L2OneToMany(const double* query, const double* block, size_t rows,
                     size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Avx2SquaredL2Pair(query, block + r * d, d);
  }
}

void Avx2L2DotOneToMany(const double* query, double query_sq,
                        const double* block, const double* norms_sq,
                        size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] =
        query_sq + norms_sq[r] - 2.0 * Avx2DotPair(query, block + r * d, d);
  }
}

void Avx2RowNorms(const double* block, size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    const double* row = block + r * d;
    out[r] = Avx2DotPair(row, row, d);
  }
}

// ---------------------------------------------------------------------
// float32 mirror kernels: the same ONE-4-wide-accumulator contract at
// fp32. A 256-bit step covers 8 floats; adding its low xmm then its
// high xmm into the accumulator reproduces the scalar loop exactly
// (lane j sums dim i+j, then dim i+4+j) — the trick the AVX-512 double
// kernels use for their 8-dim steps.

inline float CombineTailF32(__m128 acc, const float* x, const float* y,
                            size_t i, size_t d, bool squared) {
  alignas(16) float a[4];
  _mm_store_ps(a, acc);
  if (squared) {
    if (i < d) {
      const float d0 = x[i] - y[i];
      a[0] += d0 * d0;
    }
    if (i + 1 < d) {
      const float d1 = x[i + 1] - y[i + 1];
      a[1] += d1 * d1;
    }
    if (i + 2 < d) {
      const float d2 = x[i + 2] - y[i + 2];
      a[2] += d2 * d2;
    }
  } else {
    if (i < d) a[0] += x[i] * y[i];
    if (i + 1 < d) a[1] += x[i + 1] * y[i + 1];
    if (i + 2 < d) a[2] += x[i + 2] * y[i + 2];
  }
  return (a[0] + a[1]) + (a[2] + a[3]);
}

inline float Avx2SquaredL2PairF32(const float* x, const float* y,
                                  size_t d) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    const __m256 sq = _mm256_mul_ps(diff, diff);
    acc = _mm_add_ps(acc, _mm256_castps256_ps128(sq));
    acc = _mm_add_ps(acc, _mm256_extractf128_ps(sq, 1));
  }
  if (i + 4 <= d) {
    const __m128 diff =
        _mm_sub_ps(_mm_loadu_ps(x + i), _mm_loadu_ps(y + i));
    acc = _mm_add_ps(acc, _mm_mul_ps(diff, diff));
    i += 4;
  }
  return CombineTailF32(acc, x, y, i, d, /*squared=*/true);
}

inline float Avx2DotPairF32(const float* x, const float* y, size_t d) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 p =
        _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    acc = _mm_add_ps(acc, _mm256_castps256_ps128(p));
    acc = _mm_add_ps(acc, _mm256_extractf128_ps(p, 1));
  }
  if (i + 4 <= d) {
    acc = _mm_add_ps(acc,
                     _mm_mul_ps(_mm_loadu_ps(x + i), _mm_loadu_ps(y + i)));
    i += 4;
  }
  return CombineTailF32(acc, x, y, i, d, /*squared=*/false);
}

// fp64-accumulate over fp32 inputs: widen 4 floats to 4 doubles
// (exact) and run the double contract.
inline double Avx2DotPairF32ToF64(const float* x, const float* y,
                                  size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d vx = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d vy = _mm256_cvtps_pd(_mm_loadu_ps(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, vy));
  }
  alignas(32) double a[4];
  _mm256_store_pd(a, acc);
  if (i < d) {
    a[0] += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  if (i + 1 < d) {
    a[1] += static_cast<double>(x[i + 1]) * static_cast<double>(y[i + 1]);
  }
  if (i + 2 < d) {
    a[2] += static_cast<double>(x[i + 2]) * static_cast<double>(y[i + 2]);
  }
  return (a[0] + a[1]) + (a[2] + a[3]);
}

void Avx2L2F32OneToMany(const float* query, const float* block,
                        size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Avx2SquaredL2PairF32(query, block + r * d, d);
  }
}

void Avx2L2DotF32OneToMany(const float* query, float query_sq,
                           const float* block, const float* norms_sq,
                           size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0f * Avx2DotPairF32(query, block + r * d, d);
  }
}

void Avx2RowNormsF32(const float* block, size_t rows, size_t d,
                     float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = block + r * d;
    out[r] = Avx2DotPairF32(row, row, d);
  }
}

void Avx2L2DotF32F64OneToMany(const float* query, double query_sq,
                              const float* block, const double* norms_sq,
                              size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0 * Avx2DotPairF32ToF64(query, block + r * d, d);
  }
}

// ---------------------------------------------------------------------
// block (many-to-many) family. The one-to-many kernels above are
// latency-bound: one accumulator per pair means every 4-dim step waits
// on the previous vector add. Here 4 independent (query, row) pairs are
// kept in flight — 4 accumulator chains sharing one query load — which
// hides the add latency and roughly quadruples kernel throughput. Each
// chain performs the pair kernel's exact op sequence (multiply then
// add, same tail handling), so every pair is bit-identical to the
// one-to-many path whatever the grouping. Rows are tiled so a tile
// streamed from memory stays L2-resident across all queries.

inline void Avx2Dot4Rows(const double* x, const double* y0,
                         const double* y1, const double* y2,
                         const double* y3, size_t d, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(vx, _mm256_loadu_pd(y0 + i)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(vx, _mm256_loadu_pd(y1 + i)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(vx, _mm256_loadu_pd(y2 + i)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(vx, _mm256_loadu_pd(y3 + i)));
  }
  out[0] = CombineTail(a0, x, y0, i, d, /*squared=*/false);
  out[1] = CombineTail(a1, x, y1, i, d, /*squared=*/false);
  out[2] = CombineTail(a2, x, y2, i, d, /*squared=*/false);
  out[3] = CombineTail(a3, x, y3, i, d, /*squared=*/false);
}

inline void Avx2SquaredL24Rows(const double* x, const double* y0,
                               const double* y1, const double* y2,
                               const double* y3, size_t d, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d d0 = _mm256_sub_pd(vx, _mm256_loadu_pd(y0 + i));
    const __m256d d1 = _mm256_sub_pd(vx, _mm256_loadu_pd(y1 + i));
    const __m256d d2 = _mm256_sub_pd(vx, _mm256_loadu_pd(y2 + i));
    const __m256d d3 = _mm256_sub_pd(vx, _mm256_loadu_pd(y3 + i));
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
  }
  out[0] = CombineTail(a0, x, y0, i, d, /*squared=*/true);
  out[1] = CombineTail(a1, x, y1, i, d, /*squared=*/true);
  out[2] = CombineTail(a2, x, y2, i, d, /*squared=*/true);
  out[3] = CombineTail(a3, x, y3, i, d, /*squared=*/true);
}

inline void Avx2DotF324Rows(const float* x, const float* y0,
                            const float* y1, const float* y2,
                            const float* y3, size_t d, float* out) {
  __m128 a0 = _mm_setzero_ps();
  __m128 a1 = _mm_setzero_ps();
  __m128 a2 = _mm_setzero_ps();
  __m128 a3 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 p0 = _mm256_mul_ps(vx, _mm256_loadu_ps(y0 + i));
    const __m256 p1 = _mm256_mul_ps(vx, _mm256_loadu_ps(y1 + i));
    const __m256 p2 = _mm256_mul_ps(vx, _mm256_loadu_ps(y2 + i));
    const __m256 p3 = _mm256_mul_ps(vx, _mm256_loadu_ps(y3 + i));
    a0 = _mm_add_ps(a0, _mm256_castps256_ps128(p0));
    a0 = _mm_add_ps(a0, _mm256_extractf128_ps(p0, 1));
    a1 = _mm_add_ps(a1, _mm256_castps256_ps128(p1));
    a1 = _mm_add_ps(a1, _mm256_extractf128_ps(p1, 1));
    a2 = _mm_add_ps(a2, _mm256_castps256_ps128(p2));
    a2 = _mm_add_ps(a2, _mm256_extractf128_ps(p2, 1));
    a3 = _mm_add_ps(a3, _mm256_castps256_ps128(p3));
    a3 = _mm_add_ps(a3, _mm256_extractf128_ps(p3, 1));
  }
  if (i + 4 <= d) {
    const __m128 vx = _mm_loadu_ps(x + i);
    a0 = _mm_add_ps(a0, _mm_mul_ps(vx, _mm_loadu_ps(y0 + i)));
    a1 = _mm_add_ps(a1, _mm_mul_ps(vx, _mm_loadu_ps(y1 + i)));
    a2 = _mm_add_ps(a2, _mm_mul_ps(vx, _mm_loadu_ps(y2 + i)));
    a3 = _mm_add_ps(a3, _mm_mul_ps(vx, _mm_loadu_ps(y3 + i)));
    i += 4;
  }
  out[0] = CombineTailF32(a0, x, y0, i, d, /*squared=*/false);
  out[1] = CombineTailF32(a1, x, y1, i, d, /*squared=*/false);
  out[2] = CombineTailF32(a2, x, y2, i, d, /*squared=*/false);
  out[3] = CombineTailF32(a3, x, y3, i, d, /*squared=*/false);
}

constexpr size_t kMtmRowTile = 64;

void Avx2L2DotManyToMany(const double* queries, const double* query_sqs,
                         size_t num_queries, const double* block,
                         const double* norms_sq, size_t rows, size_t d,
                         double* out, size_t out_stride) {
  for (size_t r0 = 0; r0 < rows; r0 += kMtmRowTile) {
    const size_t rend = r0 + std::min(rows - r0, kMtmRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const double* query = queries + q * d;
      const double query_sq = query_sqs[q];
      double* orow = out + q * out_stride;
      size_t r = r0;
      for (; r + 4 <= rend; r += 4) {
        double dots[4];
        Avx2Dot4Rows(query, block + r * d, block + (r + 1) * d,
                     block + (r + 2) * d, block + (r + 3) * d, d, dots);
        orow[r] = query_sq + norms_sq[r] - 2.0 * dots[0];
        orow[r + 1] = query_sq + norms_sq[r + 1] - 2.0 * dots[1];
        orow[r + 2] = query_sq + norms_sq[r + 2] - 2.0 * dots[2];
        orow[r + 3] = query_sq + norms_sq[r + 3] - 2.0 * dots[3];
      }
      for (; r < rend; ++r) {
        orow[r] = query_sq + norms_sq[r] -
                  2.0 * Avx2DotPair(query, block + r * d, d);
      }
    }
  }
}

void Avx2L2DotF32ManyToMany(const float* queries, const float* query_sqs,
                            size_t num_queries, const float* block,
                            const float* norms_sq, size_t rows, size_t d,
                            float* out, size_t out_stride) {
  for (size_t r0 = 0; r0 < rows; r0 += kMtmRowTile) {
    const size_t rend = r0 + std::min(rows - r0, kMtmRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * d;
      const float query_sq = query_sqs[q];
      float* orow = out + q * out_stride;
      size_t r = r0;
      for (; r + 4 <= rend; r += 4) {
        float dots[4];
        Avx2DotF324Rows(query, block + r * d, block + (r + 1) * d,
                        block + (r + 2) * d, block + (r + 3) * d, d, dots);
        orow[r] = query_sq + norms_sq[r] - 2.0f * dots[0];
        orow[r + 1] = query_sq + norms_sq[r + 1] - 2.0f * dots[1];
        orow[r + 2] = query_sq + norms_sq[r + 2] - 2.0f * dots[2];
        orow[r + 3] = query_sq + norms_sq[r + 3] - 2.0f * dots[3];
      }
      for (; r < rend; ++r) {
        orow[r] = query_sq + norms_sq[r] -
                  2.0f * Avx2DotPairF32(query, block + r * d, d);
      }
    }
  }
}

void Avx2L2Gather(const double* query, const double* block,
                  const uint32_t* row_indices, size_t n, size_t d,
                  double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Avx2SquaredL24Rows(query,
                       block + static_cast<size_t>(row_indices[i]) * d,
                       block + static_cast<size_t>(row_indices[i + 1]) * d,
                       block + static_cast<size_t>(row_indices[i + 2]) * d,
                       block + static_cast<size_t>(row_indices[i + 3]) * d,
                       d, out + i);
  }
  for (; i < n; ++i) {
    out[i] = Avx2SquaredL2Pair(
        query, block + static_cast<size_t>(row_indices[i]) * d, d);
  }
}

}  // namespace

const KernelOps& Avx2KernelOps() {
  static const KernelOps ops = {
      "avx2",
      Avx2SquaredL2Pair,
      Avx2DotPair,
      Avx2L2OneToMany,
      Avx2L2DotOneToMany,
      Avx2RowNorms,
      Avx2L2F32OneToMany,
      Avx2L2DotF32OneToMany,
      Avx2RowNormsF32,
      Avx2L2DotF32F64OneToMany,
      Avx2L2DotManyToMany,
      Avx2L2DotF32ManyToMany,
      Avx2L2Gather,
  };
  return ops;
}

}  // namespace internal
}  // namespace mocemg

#endif  // x86
