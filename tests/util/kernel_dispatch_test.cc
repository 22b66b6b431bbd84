#include "util/kernel_dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace mocemg {
namespace {

// Every dim 1..67 covers each unroll remainder of every backend's
// vector width (2, 4, 8 doubles; 16/32/64 bytes) many times over, plus
// the sub-width edge where the main loop never runs.
constexpr size_t kMaxDim = 67;

// Restores the auto-detected backend when a test that forces one exits.
struct ScopedAutoBackend {
  ~ScopedAutoBackend() {
    EXPECT_TRUE(SetKernelBackend(KernelBackend::kAuto).ok());
  }
};

bool BitsEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool BitsEqualF(float a, float b) {
  uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool Contains(const std::vector<KernelBackend>& v, KernelBackend b) {
  return std::find(v.begin(), v.end(), b) != v.end();
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Gaussian(0.0, 3.0);
  return v;
}

TEST(KernelDispatchTest, NamesParseRoundTrip) {
  for (KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kAvx512}) {
    auto parsed = ParseKernelBackend(KernelBackendName(b));
    ASSERT_TRUE(parsed.ok()) << KernelBackendName(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(ParseKernelBackend("").ok());
  EXPECT_FALSE(ParseKernelBackend("sse9").ok());
  EXPECT_FALSE(ParseKernelBackend("AVX2 ").ok());
  // "neon" is not a backend name, and the error lists exactly the four
  // accepted names.
  const auto neon = ParseKernelBackend("neon");
  ASSERT_FALSE(neon.ok());
  EXPECT_EQ(neon.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(neon.status().message(),
            "unknown kernel backend \"neon\" (expected auto, scalar, avx2 "
            "or avx512)");
}

TEST(KernelDispatchTest, DispatchInfoInvariants) {
  // Scalar is always compiled and always usable, detection never
  // resolves to auto, and the active backend is one the CPU can run.
  const std::vector<KernelBackend> compiled = CompiledKernelBackends();
  const std::vector<KernelBackend> usable = UsableKernelBackends();
  EXPECT_TRUE(Contains(compiled, KernelBackend::kScalar));
  EXPECT_TRUE(Contains(usable, KernelBackend::kScalar));
  for (KernelBackend b : usable) EXPECT_TRUE(Contains(compiled, b));
  EXPECT_FALSE(Contains(compiled, KernelBackend::kAuto));
  const KernelBackend active = ActiveKernelBackend();
  EXPECT_NE(active, KernelBackend::kAuto);
  EXPECT_TRUE(Contains(usable, active));

  const KernelDispatchInfo info = GetKernelDispatchInfo();
  EXPECT_EQ(info.active, KernelBackendName(active));
  EXPECT_NE(info.compiled.find("scalar"), std::string::npos);
  EXPECT_NE(info.usable.find("scalar"), std::string::npos);
  EXPECT_FALSE(info.cpu_features.empty());
}

TEST(KernelDispatchTest, OpsTableLookup) {
  // Every usable backend exposes a fully populated table; kAuto aliases
  // the active one; backends the CPU/build cannot run return nullptr.
  const KernelOps* auto_ops = GetKernelOps(KernelBackend::kAuto);
  ASSERT_NE(auto_ops, nullptr);
  EXPECT_STREQ(auto_ops->name, KernelBackendName(ActiveKernelBackend()));
  const std::vector<KernelBackend> usable = UsableKernelBackends();
  for (KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kAvx512}) {
    const KernelOps* ops = GetKernelOps(b);
    if (!Contains(usable, b)) {
      EXPECT_EQ(ops, nullptr) << KernelBackendName(b);
      continue;
    }
    ASSERT_NE(ops, nullptr) << KernelBackendName(b);
    EXPECT_STREQ(ops->name, KernelBackendName(b));
    EXPECT_NE(ops->squared_l2_pair, nullptr);
    EXPECT_NE(ops->dot_pair, nullptr);
    EXPECT_NE(ops->l2_one_to_many, nullptr);
    EXPECT_NE(ops->l2dot_one_to_many, nullptr);
    EXPECT_NE(ops->row_norms, nullptr);
    EXPECT_NE(ops->l2_f32_one_to_many, nullptr);
    EXPECT_NE(ops->l2dot_f32_one_to_many, nullptr);
    EXPECT_NE(ops->row_norms_f32, nullptr);
    EXPECT_NE(ops->l2dot_f32d_one_to_many, nullptr);
    EXPECT_NE(ops->l2dot_many_to_many, nullptr);
    EXPECT_NE(ops->l2dot_f32_many_to_many, nullptr);
    EXPECT_NE(ops->l2_gather, nullptr);
  }
}

TEST(KernelDispatchTest, ForcingUnusableBackendFailsCleanly) {
  ScopedAutoBackend restore;
  const KernelBackend before = ActiveKernelBackend();
  const std::vector<KernelBackend> usable = UsableKernelBackends();
  for (KernelBackend b :
       {KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    if (Contains(usable, b)) continue;
    const Status s = SetKernelBackend(b);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition)
        << KernelBackendName(b);
    // The active table is unchanged on error.
    EXPECT_EQ(ActiveKernelBackend(), before);
  }
}

TEST(KernelDispatchTest, ForcingScalarTakesEffect) {
  ScopedAutoBackend restore;
  ASSERT_TRUE(SetKernelBackend(KernelBackend::kScalar).ok());
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  EXPECT_STREQ(internal::ActiveKernelOps().name, "scalar");
  const KernelDispatchInfo info = GetKernelDispatchInfo();
  EXPECT_EQ(info.active, "scalar");
}

// The tentpole contract: every backend the CPU can run reproduces the
// scalar reference bit-for-bit on every op, every dim 1..67, and
// varying row counts. Any divergence here means switching backends
// could change a kNN result or pruning decision.
TEST(KernelDispatchTest, AllUsableBackendsMatchScalarBitExactly) {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  ASSERT_NE(ref, nullptr);
  Rng rng(31);
  for (KernelBackend b : UsableKernelBackends()) {
    if (b == KernelBackend::kScalar) continue;
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d = 1; d <= kMaxDim; ++d) {
      const size_t rows = 1 + (d * 7) % 13;
      const std::vector<double> q = RandomVector(d, &rng);
      const std::vector<double> block = RandomVector(rows * d, &rng);

      EXPECT_TRUE(BitsEqual(ops->squared_l2_pair(q.data(), block.data(), d),
                            ref->squared_l2_pair(q.data(), block.data(), d)))
          << ops->name << " squared_l2_pair dim " << d;
      EXPECT_TRUE(BitsEqual(ops->dot_pair(q.data(), block.data(), d),
                            ref->dot_pair(q.data(), block.data(), d)))
          << ops->name << " dot_pair dim " << d;

      std::vector<double> got(rows), want(rows);
      ops->l2_one_to_many(q.data(), block.data(), rows, d, got.data());
      ref->l2_one_to_many(q.data(), block.data(), rows, d, want.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqual(got[r], want[r]))
            << ops->name << " l2_one_to_many dim " << d << " row " << r;
      }

      std::vector<double> got_norms(rows), want_norms(rows);
      ops->row_norms(block.data(), rows, d, got_norms.data());
      ref->row_norms(block.data(), rows, d, want_norms.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqual(got_norms[r], want_norms[r]))
            << ops->name << " row_norms dim " << d << " row " << r;
      }

      const double q_sq = ref->dot_pair(q.data(), q.data(), d);
      ops->l2dot_one_to_many(q.data(), q_sq, block.data(), want_norms.data(),
                             rows, d, got.data());
      ref->l2dot_one_to_many(q.data(), q_sq, block.data(), want_norms.data(),
                             rows, d, want.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqual(got[r], want[r]))
            << ops->name << " l2dot_one_to_many dim " << d << " row " << r;
      }
    }
  }
}

// The fp32 tier inherits the same contract: every usable backend's
// fp32 ops — the fp32-accumulate scans, the row norms, and the
// fp64-accumulate variant — reproduce scalar bit-for-bit on every dim
// 1..67. Divergence here would break the certified refine gate, whose
// error bound assumes one specific rounding sequence.
TEST(KernelDispatchTest, F32OpsMatchScalarBitExactlyOnEveryBackend) {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  ASSERT_NE(ref, nullptr);
  Rng rng(34);
  for (KernelBackend b : UsableKernelBackends()) {
    if (b == KernelBackend::kScalar) continue;
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d = 1; d <= kMaxDim; ++d) {
      const size_t rows = 1 + (d * 7) % 13;
      std::vector<float> q(d), block(rows * d);
      for (float& x : q) x = static_cast<float>(rng.Gaussian(0.0, 3.0));
      for (float& x : block) x = static_cast<float>(rng.Gaussian(0.0, 3.0));

      std::vector<float> got(rows), want(rows);
      ops->l2_f32_one_to_many(q.data(), block.data(), rows, d, got.data());
      ref->l2_f32_one_to_many(q.data(), block.data(), rows, d, want.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqualF(got[r], want[r]))
            << ops->name << " l2_f32_one_to_many dim " << d << " row " << r;
      }

      std::vector<float> got_norms(rows), want_norms(rows);
      ops->row_norms_f32(block.data(), rows, d, got_norms.data());
      ref->row_norms_f32(block.data(), rows, d, want_norms.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqualF(got_norms[r], want_norms[r]))
            << ops->name << " row_norms_f32 dim " << d << " row " << r;
      }

      float q_sq = 0.0f;
      ref->row_norms_f32(q.data(), 1, d, &q_sq);
      ops->l2dot_f32_one_to_many(q.data(), q_sq, block.data(),
                                 want_norms.data(), rows, d, got.data());
      ref->l2dot_f32_one_to_many(q.data(), q_sq, block.data(),
                                 want_norms.data(), rows, d, want.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqualF(got[r], want[r]))
            << ops->name << " l2dot_f32_one_to_many dim " << d << " row "
            << r;
      }

      // The fp64-accumulate variant takes double norms and returns
      // double distances from float inputs.
      const std::vector<double> block64(block.begin(), block.end());
      std::vector<double> norms64(rows), got64(rows), want64(rows);
      ref->row_norms(block64.data(), rows, d, norms64.data());
      const double q_sq64 = static_cast<double>(q_sq);
      ops->l2dot_f32d_one_to_many(q.data(), q_sq64, block.data(),
                                  norms64.data(), rows, d, got64.data());
      ref->l2dot_f32d_one_to_many(q.data(), q_sq64, block.data(),
                                  norms64.data(), rows, d, want64.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_TRUE(BitsEqual(got64[r], want64[r]))
            << ops->name << " l2dot_f32d_one_to_many dim " << d << " row "
            << r;
      }
    }
  }
}

// fp32 specials flow identically too: a NaN or Inf element must
// surface in the fp32 scan result on every backend, so the refine
// gate's NaN-compares-false fallback re-checks the row in double.
TEST(KernelDispatchTest, F32SpecialValuesPropagateOnEveryBackend) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(35);
  for (KernelBackend b : UsableKernelBackends()) {
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d : {1, 3, 4, 5, 8, 11, 19}) {
      for (size_t pos = 0; pos < d; ++pos) {
        std::vector<float> x(d), y(d);
        for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 3.0));
        for (float& v : y) v = static_cast<float>(rng.Gaussian(0.0, 3.0));
        x[pos] = nan;
        float out = 0.0f;
        ops->l2_f32_one_to_many(x.data(), y.data(), 1, d, &out);
        EXPECT_TRUE(std::isnan(out))
            << ops->name << " dim " << d << " nan at " << pos;
        x[pos] = inf;
        ops->l2_f32_one_to_many(x.data(), y.data(), 1, d, &out);
        EXPECT_EQ(out, inf) << ops->name << " dim " << d << " inf at "
                            << pos;
      }
    }
  }
}

// NaN and Inf must flow through every backend the way the scalar
// reference flows them — a backend that flushed or reordered specials
// could turn a poisoned row into a plausible distance.
TEST(KernelDispatchTest, SpecialValuesPropagateOnEveryBackend) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(32);
  for (KernelBackend b : UsableKernelBackends()) {
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d : {1, 3, 4, 5, 8, 11, 19}) {
      for (size_t pos = 0; pos < d; ++pos) {
        std::vector<double> x = RandomVector(d, &rng);
        const std::vector<double> y = RandomVector(d, &rng);
        x[pos] = nan;
        EXPECT_TRUE(std::isnan(ops->squared_l2_pair(x.data(), y.data(), d)))
            << ops->name << " dim " << d << " nan at " << pos;
        double out = 0.0;
        ops->l2_one_to_many(x.data(), y.data(), 1, d, &out);
        EXPECT_TRUE(std::isnan(out))
            << ops->name << " dim " << d << " nan at " << pos;
        x[pos] = inf;
        EXPECT_EQ(ops->squared_l2_pair(x.data(), y.data(), d), inf)
            << ops->name << " dim " << d << " inf at " << pos;
      }
    }
    // Inf − Inf inside the difference is NaN on every backend.
    const std::vector<double> x = {inf, 1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y = {inf, 0.0, 0.0, 0.0, 0.0};
    EXPECT_TRUE(std::isnan(ops->squared_l2_pair(x.data(), y.data(), 5)))
        << ops->name;
  }
}

// The many-to-many / gather block ops: every (query, row) pair on
// every usable backend must produce the exact bits of the
// corresponding one-to-many (or pair) op — the contract the blocked
// query-block scan (DESIGN.md §16) builds its bit-identity on. The
// out_stride exceeds `rows` so stride handling is exercised, and the
// padding lanes must be left untouched.
TEST(KernelDispatchTest, ManyToManyOpsMatchOneToManyBitExactly) {
  Rng rng(36);
  for (KernelBackend b : UsableKernelBackends()) {
    const KernelOps* ops = GetKernelOps(b);
    ASSERT_NE(ops, nullptr);
    for (size_t d = 1; d <= kMaxDim; d += (d < 12 ? 1 : 7)) {
      const size_t rows = 1 + (d * 7) % 13;
      const size_t nq = 1 + (d * 3) % 6;
      const size_t stride = rows + 3;  // force out_stride > rows
      const std::vector<double> queries = RandomVector(nq * d, &rng);
      const std::vector<double> block = RandomVector(rows * d, &rng);
      std::vector<double> norms(rows), q_sqs(nq);
      ops->row_norms(block.data(), rows, d, norms.data());
      ops->row_norms(queries.data(), nq, d, q_sqs.data());

      // f64 dot-form block vs per-query one-to-many.
      const double pad = -7.25;
      std::vector<double> got(nq * stride, pad), want(rows);
      ops->l2dot_many_to_many(queries.data(), q_sqs.data(), nq, block.data(),
                              norms.data(), rows, d, got.data(), stride);
      for (size_t q = 0; q < nq; ++q) {
        ops->l2dot_one_to_many(queries.data() + q * d, q_sqs[q],
                               block.data(), norms.data(), rows, d,
                               want.data());
        for (size_t r = 0; r < rows; ++r) {
          EXPECT_TRUE(BitsEqual(got[q * stride + r], want[r]))
              << ops->name << " l2dot_many_to_many dim " << d << " q " << q
              << " row " << r;
        }
        for (size_t r = rows; r < stride; ++r) {
          EXPECT_EQ(got[q * stride + r], pad)
              << ops->name << " stride padding clobbered";
        }
      }

      // Gather vs squared_l2_pair at a shuffled index list.
      std::vector<uint32_t> idx;
      for (size_t r = 0; r < rows; ++r) {
        if ((r * 5 + d) % 3 != 0) idx.push_back(uint32_t(rows - 1 - r));
      }
      if (idx.empty()) idx.push_back(0);
      std::vector<double> gout(idx.size());
      ops->l2_gather(queries.data(), block.data(), idx.data(), idx.size(),
                     d, gout.data());
      for (size_t i = 0; i < idx.size(); ++i) {
        EXPECT_TRUE(BitsEqual(
            gout[i], ops->squared_l2_pair(
                         queries.data(), block.data() + idx[i] * d, d)))
            << ops->name << " l2_gather dim " << d << " i " << i;
      }

      // f32 dot-form block vs per-query one-to-many.
      std::vector<float> qf(nq * d), bf(rows * d);
      for (size_t i = 0; i < qf.size(); ++i) {
        qf[i] = static_cast<float>(queries[i]);
      }
      for (size_t i = 0; i < bf.size(); ++i) {
        bf[i] = static_cast<float>(block[i]);
      }
      std::vector<float> nf(rows), qsf(nq);
      ops->row_norms_f32(bf.data(), rows, d, nf.data());
      ops->row_norms_f32(qf.data(), nq, d, qsf.data());
      std::vector<float> got_f(nq * stride, -7.25f), want_f(rows);
      ops->l2dot_f32_many_to_many(qf.data(), qsf.data(), nq, bf.data(),
                                  nf.data(), rows, d, got_f.data(), stride);
      for (size_t q = 0; q < nq; ++q) {
        ops->l2dot_f32_one_to_many(qf.data() + q * d, qsf[q], bf.data(),
                                   nf.data(), rows, d, want_f.data());
        for (size_t r = 0; r < rows; ++r) {
          EXPECT_TRUE(BitsEqualF(got_f[q * stride + r], want_f[r]))
              << ops->name << " l2dot_f32_many_to_many dim " << d << " q "
              << q << " row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mocemg
