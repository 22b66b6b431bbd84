// Microbenchmarks: the runtime-dispatched SIMD kernel backends against
// the scalar reference table. Each family takes a trailing mode arg
// (0 = the scalar table called directly — i.e. the previous
// auto-vectorized build, since kernels_scalar.cc compiles with the
// project's default flags — and 1 = the dispatched table, the widest
// backend this CPU can run) so both modes run inside one binary
// seconds apart and tools/run_benchmarks.sh can report paired per-pass
// ratios that cancel host load. Both sides drive the identical loop
// through a KernelOps pointer; only the table differs.
//
// Bit-exactness means the two modes return identical outputs — the
// ratio is pure wall-clock, never a quality trade.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "util/kernel_dispatch.h"
#include "util/logging.h"
#include "util/random.h"

namespace mocemg {
namespace {

const KernelOps* OpsForMode(int64_t mode) {
  const KernelOps* ops =
      GetKernelOps(mode == 1 ? KernelBackend::kAuto : KernelBackend::kScalar);
  MOCEMG_CHECK(ops != nullptr);
  return ops;
}

std::vector<double> GaussianVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  return v;
}

// Args: {dim, mode}. The double one-to-many partition scan (exact
// tier) — the 4-lane contract means both modes emit identical bits.
void BM_L2OneToMany(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const KernelOps* ops = OpsForMode(state.range(1));
  const size_t rows = 2048;
  const auto query = GaussianVec(dim, 21);
  const auto block = GaussianVec(rows * dim, 22);
  std::vector<double> out(rows);
  for (auto _ : state) {
    ops->l2_one_to_many(query.data(), block.data(), rows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_L2OneToMany)->ArgsProduct({{30, 64, 128, 240}, {0, 1}});

std::vector<float> GaussianVecF(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

// Args: {dim, mode}. The fp32 mirror scan at the heart of the f32
// exact tier: same dims and row count as BM_L2OneToMany, so the
// fp32-vs-f64 kernel ratio the PR9 gate wants is this family against
// that one at matching {dim, mode}.
void BM_L2F32OneToMany(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const KernelOps* ops = OpsForMode(state.range(1));
  const size_t rows = 2048;
  const auto query = GaussianVecF(dim, 21);
  const auto block = GaussianVecF(rows * dim, 22);
  std::vector<float> out(rows);
  for (auto _ : state) {
    ops->l2_f32_one_to_many(query.data(), block.data(), rows, dim,
                            out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_L2F32OneToMany)->ArgsProduct({{30, 64, 128, 240}, {0, 1}});

// Args: {dim, mode}. The dot-form fp32 scan the index actually runs
// (precomputed row norms, one dot per row).
void BM_L2DotF32OneToMany(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const KernelOps* ops = OpsForMode(state.range(1));
  const size_t rows = 2048;
  const auto query = GaussianVecF(dim, 23);
  const auto block = GaussianVecF(rows * dim, 24);
  std::vector<float> norms(rows), out(rows);
  ops->row_norms_f32(block.data(), rows, dim, norms.data());
  float q_sq = 0.0f;
  ops->row_norms_f32(query.data(), 1, dim, &q_sq);
  for (auto _ : state) {
    ops->l2dot_f32_one_to_many(query.data(), q_sq, block.data(),
                               norms.data(), rows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_L2DotF32OneToMany)->ArgsProduct({{30, 64, 128, 240}, {0, 1}});

// Args: {dim, mode}. The dot-form f64 scan, for the direct paired
// fp32-vs-f64 comparison on the formulation the index uses.
void BM_L2DotF64OneToMany(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const KernelOps* ops = OpsForMode(state.range(1));
  const size_t rows = 2048;
  const auto query = GaussianVec(dim, 23);
  const auto block = GaussianVec(rows * dim, 24);
  std::vector<double> norms(rows), out(rows);
  ops->row_norms(block.data(), rows, dim, norms.data());
  double q_sq = 0.0;
  ops->row_norms(query.data(), 1, dim, &q_sq);
  for (auto _ : state) {
    ops->l2dot_one_to_many(query.data(), q_sq, block.data(), norms.data(),
                           rows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_L2DotF64OneToMany)->ArgsProduct({{30, 64, 128, 240}, {0, 1}});

}  // namespace
}  // namespace mocemg

BENCHMARK_MAIN();
