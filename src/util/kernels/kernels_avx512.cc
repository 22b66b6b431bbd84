/// \file kernels_avx512.cc
/// \brief AVX-512 backend (F+BW+VL). Compiled with `-mavx512f
/// -mavx512bw -mavx512vl -ffp-contract=off`; reached only through
/// runtime dispatch on CPUs with all three feature bits.
///
/// Bit-exactness (kernel_dispatch.h): the double kernels still keep ONE
/// 4-wide accumulator — a 512-bit load covers 8 dims per iteration, but
/// its two 4-dim halves are added into the accumulator *sequentially*
/// (low half first), which is exactly the order the scalar reference's
/// lanes see (lane j sums dims i+j then i+4+j). Multiply then add,
/// never FMA.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

#include "util/kernels/kernel_backend.h"

namespace mocemg {
namespace internal {
namespace {

// ---------------------------------------------------------------------
// double kernels: 4-lane contract, 8 dims per 512-bit load.

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

double Avx512SquaredL2Pair(const double* x, const double* y, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m512d diff =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    const __m512d sq = _mm512_mul_pd(diff, diff);
    // Low half first, then high: lane j accumulates dim i+j, then dim
    // i+4+j — the scalar reference's exact per-lane order.
    acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(sq));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(sq, 1));
  }
  if (i + 4 <= d) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    i += 4;
  }
  return CombineTail(acc, x, y, i, d, /*squared=*/true);
}

double Avx512DotPair(const double* x, const double* y, size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m512d prod =
        _mm512_mul_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(prod));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(prod, 1));
  }
  if (i + 4 <= d) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    i += 4;
  }
  return CombineTail(acc, x, y, i, d, /*squared=*/false);
}

void Avx512L2OneToMany(const double* query, const double* block,
                       size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Avx512SquaredL2Pair(query, block + r * d, d);
  }
}

void Avx512L2DotOneToMany(const double* query, double query_sq,
                          const double* block, const double* norms_sq,
                          size_t rows, size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0 * Avx512DotPair(query, block + r * d, d);
  }
}

void Avx512RowNorms(const double* block, size_t rows, size_t d,
                    double* out) {
  for (size_t r = 0; r < rows; ++r) {
    const double* row = block + r * d;
    out[r] = Avx512DotPair(row, row, d);
  }
}

// ---------------------------------------------------------------------
// float32 mirror kernels: ONE 4-wide xmm accumulator; a 512-bit load
// covers 16 floats whose four 4-dim chunks are added sequentially
// (chunk 0 first) — lane j therefore accumulates dims i+j, i+4+j,
// i+8+j, i+12+j in the scalar reference's exact order. Multiply then
// add, never FMA.

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

inline __m128 AddChunksSequential(__m128 acc, __m512 wide) {
  acc = _mm_add_ps(acc, _mm512_castps512_ps128(wide));
  acc = _mm_add_ps(acc, _mm512_extractf32x4_ps(wide, 1));
  acc = _mm_add_ps(acc, _mm512_extractf32x4_ps(wide, 2));
  acc = _mm_add_ps(acc, _mm512_extractf32x4_ps(wide, 3));
  return acc;
}

inline float Avx512SquaredL2PairF32(const float* x, const float* y,
                                    size_t d) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    const __m512 diff =
        _mm512_sub_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i));
    acc = AddChunksSequential(acc, _mm512_mul_ps(diff, diff));
  }
  for (; i + 4 <= d; i += 4) {
    const __m128 diff =
        _mm_sub_ps(_mm_loadu_ps(x + i), _mm_loadu_ps(y + i));
    acc = _mm_add_ps(acc, _mm_mul_ps(diff, diff));
  }
  return CombineTailF32(acc, x, y, i, d, /*squared=*/true);
}

inline float Avx512DotPairF32(const float* x, const float* y, size_t d) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc = AddChunksSequential(
        acc, _mm512_mul_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  for (; i + 4 <= d; i += 4) {
    acc = _mm_add_ps(acc,
                     _mm_mul_ps(_mm_loadu_ps(x + i), _mm_loadu_ps(y + i)));
  }
  return CombineTailF32(acc, x, y, i, d, /*squared=*/false);
}

// fp64-accumulate over fp32 inputs: widen 8 floats to a 512-bit double
// vector (exact), then the double kernel's sequential-halves order.
inline double Avx512DotPairF32ToF64(const float* x, const float* y,
                                    size_t d) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m512d vx = _mm512_cvtps_pd(_mm256_loadu_ps(x + i));
    const __m512d vy = _mm512_cvtps_pd(_mm256_loadu_ps(y + i));
    const __m512d prod = _mm512_mul_pd(vx, vy);
    acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(prod));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(prod, 1));
  }
  if (i + 4 <= d) {
    const __m256d vx = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d vy = _mm256_cvtps_pd(_mm_loadu_ps(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, vy));
    i += 4;
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

void Avx512L2F32OneToMany(const float* query, const float* block,
                          size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Avx512SquaredL2PairF32(query, block + r * d, d);
  }
}

void Avx512L2DotF32OneToMany(const float* query, float query_sq,
                             const float* block, const float* norms_sq,
                             size_t rows, size_t d, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0f * Avx512DotPairF32(query, block + r * d, d);
  }
}

void Avx512RowNormsF32(const float* block, size_t rows, size_t d,
                       float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = block + r * d;
    out[r] = Avx512DotPairF32(row, row, d);
  }
}

void Avx512L2DotF32F64OneToMany(const float* query, double query_sq,
                                const float* block,
                                const double* norms_sq, size_t rows,
                                size_t d, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = query_sq + norms_sq[r] -
             2.0 * Avx512DotPairF32ToF64(query, block + r * d, d);
  }
}

// ---------------------------------------------------------------------
// block (many-to-many) family: 4 independent (query, row) accumulator
// chains in flight per step, sharing one query load, to hide the
// vector-add latency the one-to-many kernels serialize on. Each chain
// is the pair kernel's exact op sequence (sequential 4-dim halves of
// each 512-bit product, multiply then add, same tails), so every pair
// stays bit-identical to the one-to-many path; rows are tiled so one
// streamed tile serves the whole query block.

inline void Avx512Dot4Rows(const double* x, const double* y0,
                           const double* y1, const double* y2,
                           const double* y3, size_t d, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m512d vx = _mm512_loadu_pd(x + i);
    const __m512d p0 = _mm512_mul_pd(vx, _mm512_loadu_pd(y0 + i));
    const __m512d p1 = _mm512_mul_pd(vx, _mm512_loadu_pd(y1 + i));
    const __m512d p2 = _mm512_mul_pd(vx, _mm512_loadu_pd(y2 + i));
    const __m512d p3 = _mm512_mul_pd(vx, _mm512_loadu_pd(y3 + i));
    a0 = _mm256_add_pd(a0, _mm512_castpd512_pd256(p0));
    a0 = _mm256_add_pd(a0, _mm512_extractf64x4_pd(p0, 1));
    a1 = _mm256_add_pd(a1, _mm512_castpd512_pd256(p1));
    a1 = _mm256_add_pd(a1, _mm512_extractf64x4_pd(p1, 1));
    a2 = _mm256_add_pd(a2, _mm512_castpd512_pd256(p2));
    a2 = _mm256_add_pd(a2, _mm512_extractf64x4_pd(p2, 1));
    a3 = _mm256_add_pd(a3, _mm512_castpd512_pd256(p3));
    a3 = _mm256_add_pd(a3, _mm512_extractf64x4_pd(p3, 1));
  }
  if (i + 4 <= d) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(vx, _mm256_loadu_pd(y0 + i)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(vx, _mm256_loadu_pd(y1 + i)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(vx, _mm256_loadu_pd(y2 + i)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(vx, _mm256_loadu_pd(y3 + i)));
    i += 4;
  }
  out[0] = CombineTail(a0, x, y0, i, d, /*squared=*/false);
  out[1] = CombineTail(a1, x, y1, i, d, /*squared=*/false);
  out[2] = CombineTail(a2, x, y2, i, d, /*squared=*/false);
  out[3] = CombineTail(a3, x, y3, i, d, /*squared=*/false);
}

inline void Avx512SquaredL24Rows(const double* x, const double* y0,
                                 const double* y1, const double* y2,
                                 const double* y3, size_t d, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m512d vx = _mm512_loadu_pd(x + i);
    const __m512d d0 = _mm512_sub_pd(vx, _mm512_loadu_pd(y0 + i));
    const __m512d d1 = _mm512_sub_pd(vx, _mm512_loadu_pd(y1 + i));
    const __m512d d2 = _mm512_sub_pd(vx, _mm512_loadu_pd(y2 + i));
    const __m512d d3 = _mm512_sub_pd(vx, _mm512_loadu_pd(y3 + i));
    const __m512d p0 = _mm512_mul_pd(d0, d0);
    const __m512d p1 = _mm512_mul_pd(d1, d1);
    const __m512d p2 = _mm512_mul_pd(d2, d2);
    const __m512d p3 = _mm512_mul_pd(d3, d3);
    a0 = _mm256_add_pd(a0, _mm512_castpd512_pd256(p0));
    a0 = _mm256_add_pd(a0, _mm512_extractf64x4_pd(p0, 1));
    a1 = _mm256_add_pd(a1, _mm512_castpd512_pd256(p1));
    a1 = _mm256_add_pd(a1, _mm512_extractf64x4_pd(p1, 1));
    a2 = _mm256_add_pd(a2, _mm512_castpd512_pd256(p2));
    a2 = _mm256_add_pd(a2, _mm512_extractf64x4_pd(p2, 1));
    a3 = _mm256_add_pd(a3, _mm512_castpd512_pd256(p3));
    a3 = _mm256_add_pd(a3, _mm512_extractf64x4_pd(p3, 1));
  }
  if (i + 4 <= d) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d d0 = _mm256_sub_pd(vx, _mm256_loadu_pd(y0 + i));
    const __m256d d1 = _mm256_sub_pd(vx, _mm256_loadu_pd(y1 + i));
    const __m256d d2 = _mm256_sub_pd(vx, _mm256_loadu_pd(y2 + i));
    const __m256d d3 = _mm256_sub_pd(vx, _mm256_loadu_pd(y3 + i));
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
    i += 4;
  }
  out[0] = CombineTail(a0, x, y0, i, d, /*squared=*/true);
  out[1] = CombineTail(a1, x, y1, i, d, /*squared=*/true);
  out[2] = CombineTail(a2, x, y2, i, d, /*squared=*/true);
  out[3] = CombineTail(a3, x, y3, i, d, /*squared=*/true);
}

inline void Avx512DotF324Rows(const float* x, const float* y0,
                              const float* y1, const float* y2,
                              const float* y3, size_t d, float* out) {
  __m128 a0 = _mm_setzero_ps();
  __m128 a1 = _mm_setzero_ps();
  __m128 a2 = _mm_setzero_ps();
  __m128 a3 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    const __m512 vx = _mm512_loadu_ps(x + i);
    a0 = AddChunksSequential(a0,
                             _mm512_mul_ps(vx, _mm512_loadu_ps(y0 + i)));
    a1 = AddChunksSequential(a1,
                             _mm512_mul_ps(vx, _mm512_loadu_ps(y1 + i)));
    a2 = AddChunksSequential(a2,
                             _mm512_mul_ps(vx, _mm512_loadu_ps(y2 + i)));
    a3 = AddChunksSequential(a3,
                             _mm512_mul_ps(vx, _mm512_loadu_ps(y3 + i)));
  }
  for (; i + 4 <= d; i += 4) {
    const __m128 vx = _mm_loadu_ps(x + i);
    a0 = _mm_add_ps(a0, _mm_mul_ps(vx, _mm_loadu_ps(y0 + i)));
    a1 = _mm_add_ps(a1, _mm_mul_ps(vx, _mm_loadu_ps(y1 + i)));
    a2 = _mm_add_ps(a2, _mm_mul_ps(vx, _mm_loadu_ps(y2 + i)));
    a3 = _mm_add_ps(a3, _mm_mul_ps(vx, _mm_loadu_ps(y3 + i)));
  }
  out[0] = CombineTailF32(a0, x, y0, i, d, /*squared=*/false);
  out[1] = CombineTailF32(a1, x, y1, i, d, /*squared=*/false);
  out[2] = CombineTailF32(a2, x, y2, i, d, /*squared=*/false);
  out[3] = CombineTailF32(a3, x, y3, i, d, /*squared=*/false);
}

constexpr size_t kMtmRowTile = 64;

void Avx512L2DotManyToMany(const double* queries, const double* query_sqs,
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
        Avx512Dot4Rows(query, block + r * d, block + (r + 1) * d,
                       block + (r + 2) * d, block + (r + 3) * d, d, dots);
        orow[r] = query_sq + norms_sq[r] - 2.0 * dots[0];
        orow[r + 1] = query_sq + norms_sq[r + 1] - 2.0 * dots[1];
        orow[r + 2] = query_sq + norms_sq[r + 2] - 2.0 * dots[2];
        orow[r + 3] = query_sq + norms_sq[r + 3] - 2.0 * dots[3];
      }
      for (; r < rend; ++r) {
        orow[r] = query_sq + norms_sq[r] -
                  2.0 * Avx512DotPair(query, block + r * d, d);
      }
    }
  }
}

void Avx512L2DotF32ManyToMany(const float* queries, const float* query_sqs,
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
        Avx512DotF324Rows(query, block + r * d, block + (r + 1) * d,
                          block + (r + 2) * d, block + (r + 3) * d, d,
                          dots);
        orow[r] = query_sq + norms_sq[r] - 2.0f * dots[0];
        orow[r + 1] = query_sq + norms_sq[r + 1] - 2.0f * dots[1];
        orow[r + 2] = query_sq + norms_sq[r + 2] - 2.0f * dots[2];
        orow[r + 3] = query_sq + norms_sq[r + 3] - 2.0f * dots[3];
      }
      for (; r < rend; ++r) {
        orow[r] = query_sq + norms_sq[r] -
                  2.0f * Avx512DotPairF32(query, block + r * d, d);
      }
    }
  }
}

void Avx512L2Gather(const double* query, const double* block,
                    const uint32_t* row_indices, size_t n, size_t d,
                    double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Avx512SquaredL24Rows(
        query, block + static_cast<size_t>(row_indices[i]) * d,
        block + static_cast<size_t>(row_indices[i + 1]) * d,
        block + static_cast<size_t>(row_indices[i + 2]) * d,
        block + static_cast<size_t>(row_indices[i + 3]) * d, d, out + i);
  }
  for (; i < n; ++i) {
    out[i] = Avx512SquaredL2Pair(
        query, block + static_cast<size_t>(row_indices[i]) * d, d);
  }
}

}  // namespace

const KernelOps& Avx512KernelOps() {
  static const KernelOps ops = {
      "avx512",
      Avx512SquaredL2Pair,
      Avx512DotPair,
      Avx512L2OneToMany,
      Avx512L2DotOneToMany,
      Avx512RowNorms,
      Avx512L2F32OneToMany,
      Avx512L2DotF32OneToMany,
      Avx512RowNormsF32,
      Avx512L2DotF32F64OneToMany,
      Avx512L2DotManyToMany,
      Avx512L2DotF32ManyToMany,
      Avx512L2Gather,
  };
  return ops;
}

}  // namespace internal
}  // namespace mocemg

#endif  // x86
