/// \file quant_kernels.h
/// \brief Scalar-grid integer quantization kernels for the coarse-scan
/// index tier: per-dimension affine codes over a packed row-major
/// block, exact *integer* coarse distance scans over 8-bit codes, and
/// the conservative error slack that makes coarse pruning *provable*
/// (no true neighbor is ever discarded — survivors are re-ranked with
/// the exact kernels).
///
/// Grid: dimension j of a block is coded on the affine grid
/// `value ≈ offset[j] + scale · code`, code ∈ {0..kQuantLevels}, with
/// `offset[j] = min_r block[r][j]` per dimension and a single
/// per-partition `scale = max_j (max_r − min_r) / kQuantLevels` (0 when
/// every column is constant, in which case every code is 0 and the
/// decode is exact). The integer scan identity is
/// `‖q̃ − r̃‖² = scale² · Σ_j (qcode_j − code_j)²`.
///
/// The coarse scans read 1 byte per dimension instead of 8 and prune
/// via the two-hop triangle inequality
/// `‖q − r‖ ≥ scale·√D − ‖q − q̃‖ − ‖r − r̃‖`, with the few
/// floating-point *scalars* (the query residual, the stored error, the
/// current k-th best) inflated by QuantScanSlack so every rounding
/// difference between the coarse and exact paths is absorbed
/// (derivation in DESIGN.md §11.2); the survivors' reported distances
/// always come from the exact kernels. The integer scans route through
/// the runtime-dispatched SIMD backends (kernel_dispatch.h) and are
/// exact int32 arithmetic on every backend.

#ifndef MOCEMG_UTIL_QUANT_KERNELS_H_
#define MOCEMG_UTIL_QUANT_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace mocemg {

/// \brief Top code of the grid: codes are one byte per dimension.
inline constexpr double kQuantLevels = 255.0;

/// \brief Fills offsets[j] with the per-dimension column minima and
/// *scale with the uniform grid step (widest column range /
/// kQuantLevels) of a rows × d packed block. Requires rows >= 1; an
/// all-constant block gets scale 0.
void ComputeQuantGrid(const double* block, size_t rows, size_t d,
                      double* offsets, double* scale);

/// \brief Encodes every row of the block on the grid:
/// codes[r*d + j] = round((block[r][j] − offsets[j]) / scale),
/// clamped to [0, kQuantLevels] (0 when scale == 0).
void QuantizeRows(const double* block, size_t rows, size_t d,
                  const double* offsets, double scale, uint8_t* codes);

/// \brief Encodes one query vector on a partition's grid, clamped to
/// [0, kQuantLevels] — unlike block rows the query may fall far outside the
/// partition's bounding box, and the clamp keeps q̃ inside it (the
/// resulting extra ‖q − q̃‖ residual weakens pruning, never
/// correctness).
void QuantizeQuery(const double* query, size_t d, const double* offsets,
                   double scale, uint8_t* qcodes);

/// \brief Decodes one coded row: out[j] = offsets[j] +
/// scale · codes[j]. Used at build time to *measure* each row's actual
/// reconstruction error with the exact pair kernel, and at query time
/// to measure the query's own residual ‖q − q̃‖².
void DequantizeRow(const uint8_t* codes, size_t d, const double* offsets,
                   double scale, double* out);

/// \brief 8-bit coarse scan: out[r] = Σ_j (qcodes[j] − codes[r*d+j])²
/// in exact int32 arithmetic. scale² · out[r] equals ‖q̃ − r̃‖² exactly
/// in real arithmetic, so the only rounding in the coarse bound lives
/// in per-partition scalars, not in the per-row loop. Requires
/// d · 255² < 2³² (d ≤ 66049; the index build gates far below that).
void QuantizedSsdOneToMany(const uint8_t* qcodes, const uint8_t* codes,
                           size_t rows, size_t d, uint32_t* out);

/// \brief Blocked 8-bit coarse scan: out[q * out_stride + r] for
/// q < num_queries, r < rows, row-tiled so a code tile is streamed once
/// per query batch (the integer analogue of SquaredL2ManyToMany, used
/// by batched coarse passes and the kernel benchmarks). Each entry is
/// bit-identical to the one-to-many scan.
void QuantizedSsdManyToMany(const uint8_t* qcodes, size_t num_queries,
                            const uint8_t* codes, size_t rows, size_t d,
                            uint32_t* out, size_t out_stride);

/// \brief Absolute slack covering the floating-point error of any
/// exact-kernel squared-distance evaluation between vectors drawn from
/// (query, block rows, grid reconstructions):
/// 32 · d · ε · (a_sq + b_sq), ε = 2⁻⁵². Callers pass the two largest
/// squared magnitudes involved (e.g. ‖q‖² and the partition's
/// max-norm/bounding-box bound). The 32 (vs the exact kernels' proven
/// 4) budgets the decode roundings and the grid box exceeding the data
/// box on narrow columns; DESIGN.md §11.2 gives the accounting. The
/// bound covers the float side only; the integer side is exact.
double QuantScanSlack(size_t d, double a_sq, double b_sq);

}  // namespace mocemg

#endif  // MOCEMG_UTIL_QUANT_KERNELS_H_
