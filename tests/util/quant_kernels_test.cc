#include "util/quant_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/distance_kernels.h"
#include "util/random.h"

namespace mocemg {
namespace {

struct QuantBlock {
  size_t rows = 0;
  size_t d = 0;
  std::vector<double> block;
  std::vector<double> offsets;
  double scale = 0.0;
  std::vector<uint8_t> codes;
};

QuantBlock MakeBlock(size_t rows, size_t d, uint64_t seed,
                     double spread = 10.0) {
  QuantBlock b;
  b.rows = rows;
  b.d = d;
  b.block.resize(rows * d);
  Rng rng(seed);
  for (double& v : b.block) v = rng.Gaussian(0.0, spread);
  b.offsets.resize(d);
  b.codes.resize(rows * d);
  ComputeQuantGrid(b.block.data(), rows, d, b.offsets.data(), &b.scale);
  QuantizeRows(b.block.data(), rows, d, b.offsets.data(), b.scale,
               b.codes.data());
  return b;
}

TEST(QuantKernelsTest, GridCoversColumnRange) {
  QuantBlock b = MakeBlock(64, 7, 1);
  EXPECT_GT(b.scale, 0.0);
  double widest = 0.0;
  for (size_t j = 0; j < b.d; ++j) {
    double lo = b.block[j], hi = b.block[j];
    for (size_t r = 1; r < b.rows; ++r) {
      lo = std::min(lo, b.block[r * b.d + j]);
      hi = std::max(hi, b.block[r * b.d + j]);
    }
    EXPECT_EQ(b.offsets[j], lo);
    // The uniform step must cover every column's range.
    EXPECT_GE(b.offsets[j] + 255.0 * b.scale,
              hi - 1e-12 * std::abs(hi - lo));
    widest = std::max(widest, hi - lo);
  }
  EXPECT_NEAR(b.scale * 255.0, widest, 1e-12 * widest);
}

// Per-coordinate reconstruction error is at most half a grid step —
// the defining property of round-to-nearest on the affine grid.
TEST(QuantKernelsTest, RoundTripErrorWithinHalfStep) {
  for (size_t d : {1, 3, 4, 9, 32}) {
    QuantBlock b = MakeBlock(50, d, 2 + d);
    std::vector<double> decoded(d);
    for (size_t r = 0; r < b.rows; ++r) {
      DequantizeRow(b.codes.data() + r * d, d, b.offsets.data(), b.scale,
                    decoded.data());
      for (size_t j = 0; j < d; ++j) {
        const double err = std::abs(decoded[j] - b.block[r * d + j]);
        EXPECT_LE(err, 0.5 * b.scale * (1.0 + 1e-12))
            << "d " << d << " row " << r << " col " << j;
      }
    }
  }
}

TEST(QuantKernelsTest, ConstantColumnDecodesExactly) {
  const size_t rows = 8, d = 2;
  std::vector<double> block(rows * d);
  for (size_t r = 0; r < rows; ++r) {
    block[r * d] = 3.25;                       // constant → code 0
    block[r * d + 1] = static_cast<double>(r); // varying
  }
  std::vector<double> offsets(d);
  double scale = 0.0;
  std::vector<uint8_t> codes(rows * d);
  ComputeQuantGrid(block.data(), rows, d, offsets.data(), &scale);
  EXPECT_GT(scale, 0.0);
  QuantizeRows(block.data(), rows, d, offsets.data(), scale,
               codes.data());
  std::vector<double> decoded(d);
  for (size_t r = 0; r < rows; ++r) {
    // A constant column's codes are all 0, so the decode is the offset
    // itself — exact.
    EXPECT_EQ(codes[r * d], 0);
    DequantizeRow(codes.data() + r * d, d, offsets.data(), scale,
                  decoded.data());
    EXPECT_EQ(decoded[0], 3.25);
  }
}

TEST(QuantKernelsTest, AllConstantBlockHasScaleZero) {
  const size_t rows = 4, d = 3;
  std::vector<double> block(rows * d, -1.5);
  std::vector<double> offsets(d);
  double scale = 1.0;
  std::vector<uint8_t> codes(rows * d, 7);
  ComputeQuantGrid(block.data(), rows, d, offsets.data(), &scale);
  EXPECT_EQ(scale, 0.0);
  QuantizeRows(block.data(), rows, d, offsets.data(), scale,
               codes.data());
  for (uint8_t c : codes) EXPECT_EQ(c, 0);
}

// A query far outside the partition's bounding box clamps onto the box
// edge — codes saturate at 0/255 instead of wrapping.
TEST(QuantKernelsTest, QueryCodesClampToTheBox) {
  QuantBlock b = MakeBlock(32, 4, 3);
  std::vector<double> query(b.d);
  std::vector<uint8_t> qcodes(b.d);
  for (size_t j = 0; j < b.d; ++j) query[j] = 1e6;
  QuantizeQuery(query.data(), b.d, b.offsets.data(), b.scale,
                qcodes.data());
  for (uint8_t c : qcodes) EXPECT_EQ(c, 255);
  for (size_t j = 0; j < b.d; ++j) query[j] = -1e6;
  QuantizeQuery(query.data(), b.d, b.offsets.data(), b.scale,
                qcodes.data());
  for (uint8_t c : qcodes) EXPECT_EQ(c, 0);
}

// The integer kernel must equal the reference Σ(qc − c)² exactly, and
// scale² · D must match the decoded reconstructions' squared distance
// within the slack — that identity is what makes the coarse bound
// provable with all rounding confined to per-partition scalars.
TEST(QuantKernelsTest, IntegerSsdMatchesDecodedReconstructions) {
  for (size_t d : {1, 2, 4, 7, 16, 33}) {
    QuantBlock b = MakeBlock(40, d, 5 + d);
    Rng rng(6 + d);
    std::vector<double> query(d), q_dec(d), r_dec(d);
    std::vector<uint8_t> qcodes(d);
    std::vector<uint32_t> ssd(b.rows);
    for (int trial = 0; trial < 10; ++trial) {
      double q_sq = 0.0;
      for (size_t j = 0; j < d; ++j) {
        query[j] = rng.Gaussian(0.0, 10.0);
        q_sq += query[j] * query[j];
      }
      QuantizeQuery(query.data(), d, b.offsets.data(), b.scale,
                    qcodes.data());
      QuantizedSsdOneToMany(qcodes.data(), b.codes.data(), b.rows, d,
                            ssd.data());
      DequantizeRow(qcodes.data(), d, b.offsets.data(), b.scale,
                    q_dec.data());
      double max_norm_sq = 0.0;
      for (size_t r = 0; r < b.rows; ++r) {
        max_norm_sq = std::max(
            max_norm_sq, SquaredNorm(b.block.data() + r * d, d));
      }
      const double slack = QuantScanSlack(d, q_sq, max_norm_sq);
      for (size_t r = 0; r < b.rows; ++r) {
        // Exact integer reference.
        uint32_t want = 0;
        for (size_t j = 0; j < d; ++j) {
          const int32_t diff = int32_t(qcodes[j]) -
                               int32_t(b.codes[r * d + j]);
          want += uint32_t(diff * diff);
        }
        EXPECT_EQ(ssd[r], want) << "d " << d << " row " << r;
        // scale²·D vs the decoded reconstructions' exact distance.
        DequantizeRow(b.codes.data() + r * d, d, b.offsets.data(),
                      b.scale, r_dec.data());
        const double exact = SquaredL2(q_dec.data(), r_dec.data(), d);
        EXPECT_NEAR(b.scale * b.scale * double(ssd[r]), exact,
                    slack + 1e-9 * exact)
            << "d " << d << " trial " << trial << " row " << r;
      }
    }
  }
}

// The blocked many-to-many scan is bit-identical to running the
// one-to-many scan per query, including when out_stride > rows.
TEST(QuantKernelsTest, ManyToManyMatchesPerQueryScan) {
  Rng rng(46);
  for (size_t d : {1, 4, 7, 33}) {
    const size_t nq = 5;
    const size_t rows = 300;  // > the kernel's row tile
    const size_t out_stride = rows + 3;
    std::vector<uint8_t> qcodes(nq * d), codes(rows * d);
    for (uint8_t& c : qcodes) c = static_cast<uint8_t>(rng.NextBelow(256));
    for (uint8_t& c : codes) c = static_cast<uint8_t>(rng.NextBelow(256));
    std::vector<uint32_t> blocked(nq * out_stride, 0xdeadbeef);
    QuantizedSsdManyToMany(qcodes.data(), nq, codes.data(), rows, d,
                           blocked.data(), out_stride);
    std::vector<uint32_t> single(rows);
    for (size_t q = 0; q < nq; ++q) {
      QuantizedSsdOneToMany(qcodes.data() + q * d, codes.data(), rows, d,
                            single.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(blocked[q * out_stride + r], single[r])
            << "d " << d << " query " << q << " row " << r;
      }
    }
  }
}

// Certified prune-bound property: the coarse lower
// bound scale·√ssd − ‖q − q̃‖ − err_r (all scalars slack-inflated the
// way the index computes it) never exceeds the true distance, so
// pruning on it can never discard a true neighbor.
TEST(QuantKernelsTest, CoarseLowerBoundNeverExceedsTrueDistance) {
  Rng rng(47);
  for (size_t d : {2, 5, 16, 33}) {
    const size_t rows = 60;
    std::vector<double> block(rows * d);
    for (double& v : block) v = rng.Gaussian(0.0, 8.0);
    std::vector<double> offsets(d);
    double scale = 0.0;
    std::vector<uint8_t> codes(rows * d);
    ComputeQuantGrid(block.data(), rows, d, offsets.data(), &scale);
    QuantizeRows(block.data(), rows, d, offsets.data(), scale,
                 codes.data());
    // Per-row measured reconstruction errors (as the index stores).
    std::vector<double> row_err(rows), decoded(d);
    double max_norm_sq = 0.0;
    for (size_t r = 0; r < rows; ++r) {
      DequantizeRow(codes.data() + r * d, d, offsets.data(), scale,
                    decoded.data());
      row_err[r] = std::sqrt(
          SquaredL2(decoded.data(), block.data() + r * d, d));
      max_norm_sq = std::max(max_norm_sq,
                             SquaredNorm(block.data() + r * d, d));
    }
    std::vector<uint8_t> qcodes(d);
    std::vector<double> query(d), q_dec(d);
    std::vector<uint32_t> ssd(rows);
    for (int trial = 0; trial < 20; ++trial) {
      // Mix of in-box queries and far-outside ones (clamped codes).
      const double spread = (trial % 4 == 3) ? 100.0 : 8.0;
      for (double& v : query) v = rng.Gaussian(0.0, spread);
      QuantizeQuery(query.data(), d, offsets.data(), scale,
                    qcodes.data());
      QuantizedSsdOneToMany(qcodes.data(), codes.data(), rows, d,
                            ssd.data());
      DequantizeRow(qcodes.data(), d, offsets.data(), scale,
                    q_dec.data());
      const double q_sq = SquaredNorm(query.data(), d);
      const double slack = QuantScanSlack(d, q_sq, max_norm_sq);
      const double q_res =
          std::sqrt(SquaredL2(query.data(), q_dec.data(), d) + slack);
      for (size_t r = 0; r < rows; ++r) {
        const double coarse =
            scale * std::sqrt(double(ssd[r])) - q_res -
            (row_err[r] + std::sqrt(slack));
        const double truth = std::sqrt(
            SquaredL2(query.data(), block.data() + r * d, d));
        EXPECT_LE(coarse, truth + 1e-12)
            << "d " << d << " trial " << trial << " row " << r;
      }
    }
  }
}

TEST(QuantKernelsTest, SlackIsPositiveAndMonotone) {
  EXPECT_GT(QuantScanSlack(1, 1.0, 1.0), 0.0);
  EXPECT_LT(QuantScanSlack(4, 1.0, 1.0), QuantScanSlack(8, 1.0, 1.0));
  EXPECT_LT(QuantScanSlack(4, 1.0, 1.0), QuantScanSlack(4, 2.0, 1.0));
  // Tiny relative to the quantities it guards at realistic scales.
  EXPECT_LT(QuantScanSlack(128, 1e4, 1e4), 1e-7);
}

}  // namespace
}  // namespace mocemg
