/// \file kernel_dispatch.h
/// \brief Runtime selection of SIMD backends for the distance kernel
/// family.
///
/// The library ships several implementations of the hot kernels —
/// portable scalar (the bit-exactness reference, see
/// distance_kernels.h), AVX2 and AVX-512 — each compiled in its
/// own translation unit with target-specific flags, so one binary
/// carries all of them without `-march=native`. At first use the
/// dispatcher probes the CPU once, picks the widest usable backend, and
/// publishes a function-pointer table (`KernelOps`) that every kernel
/// entry point (`SquaredL2OneToMany`, `SquaredL2DotManyToMany`, …) routes
/// through. Consumers — MotionDatabase linear scan, the
/// ShardedFeatureIndex partition scan, k-means, FCM, GK, classifier
/// kNN — therefore pick up the dispatched backend with no call-site
/// changes.
///
/// **Bit-exactness contract.** Every backend reproduces the scalar
/// reference bit-for-bit, for every shape, dimension and input
/// (including NaN/Inf propagation): the double kernels implement the
/// exact 4-lane accumulation order of distance_kernels.h (one 4-wide
/// vector accumulator, multiply then add — never FMA — with scalar
/// remainder handling in the same lanes), and the float32 mirror
/// kernels implement the identical 4-lane order at fp32 precision.
/// Switching backends can never change a kNN result, a pruning
/// decision, or a clustering iterate — only the wall-clock. The contract is enforced by
/// tests/util/kernel_dispatch_test.cc across dims 1–67 for every
/// backend the binary carries.
///
/// On a CPU with neither AVX2 nor AVX-512 (or a non-x86 build, e.g.
/// aarch64) auto detection picks scalar.
///
/// **Override.** `MOCEMG_KERNEL={auto,scalar,avx2,avx512}` (env,
/// read once at first dispatch) or SetKernelBackend() (CLI / tests)
/// force a specific backend; forcing one the CPU or build cannot run
/// fails cleanly (env: warning + auto, API: error Status).

#ifndef MOCEMG_UTIL_KERNEL_DISPATCH_H_
#define MOCEMG_UTIL_KERNEL_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace mocemg {

/// \brief One kernel implementation family, compiled per-TU.
enum class KernelBackend : int {
  kAuto = 0,    ///< pick the widest usable backend (default)
  kScalar = 1,  ///< portable reference (always compiled, always usable)
  kAvx2 = 2,    ///< x86-64 AVX2
  kAvx512 = 3,  ///< x86-64 AVX-512 (F+BW+VL)
};

/// \brief Function-pointer table one backend fills in. All entries are
/// non-null and honour the contracts of distance_kernels.h. The
/// `*_f32*` entries scan the float32 SoA mirror of the exact tier:
/// fp32 accumulation with the same literal 4-lane
/// order (bit-exact across backends like the double family), plus one
/// fp64-accumulate variant (`l2dot_f32d_one_to_many`) used by the
/// float-precision error-bound analysis and its tests.
///
/// The `*_many_to_many` entries evaluate a whole query block against a
/// row block, writing `out[q * out_stride + r]`. Each (query, row) pair
/// is REQUIRED to produce the exact bits of the corresponding
/// one-to-many entry on that pair — implementations may tile for cache
/// residency and interleave several independent pairs to break the
/// per-pair accumulator latency chain, but every pair keeps its own
/// self-contained 4-lane accumulator, so loop order can never change a
/// result. `l2_gather` evaluates `squared_l2_pair` at a gathered index
/// list (the fp32 tier's f64 refine and the f64 dot-form re-check use
/// it to batch their unseparable rows); same per-pair contract.
struct KernelOps {
  const char* name;
  double (*squared_l2_pair)(const double* x, const double* y, size_t d);
  double (*dot_pair)(const double* x, const double* y, size_t d);
  void (*l2_one_to_many)(const double* query, const double* block,
                         size_t rows, size_t d, double* out);
  void (*l2dot_one_to_many)(const double* query, double query_sq,
                            const double* block, const double* norms_sq,
                            size_t rows, size_t d, double* out);
  void (*row_norms)(const double* block, size_t rows, size_t d,
                    double* out);
  void (*l2_f32_one_to_many)(const float* query, const float* block,
                             size_t rows, size_t d, float* out);
  void (*l2dot_f32_one_to_many)(const float* query, float query_sq,
                                const float* block, const float* norms_sq,
                                size_t rows, size_t d, float* out);
  void (*row_norms_f32)(const float* block, size_t rows, size_t d,
                        float* out);
  void (*l2dot_f32d_one_to_many)(const float* query, double query_sq,
                                 const float* block,
                                 const double* norms_sq, size_t rows,
                                 size_t d, double* out);
  void (*l2dot_many_to_many)(const double* queries, const double* query_sqs,
                             size_t num_queries, const double* block,
                             const double* norms_sq, size_t rows, size_t d,
                             double* out, size_t out_stride);
  void (*l2dot_f32_many_to_many)(const float* queries,
                                 const float* query_sqs, size_t num_queries,
                                 const float* block, const float* norms_sq,
                                 size_t rows, size_t d, float* out,
                                 size_t out_stride);
  void (*l2_gather)(const double* query, const double* block,
                    const uint32_t* row_indices, size_t n, size_t d,
                    double* out);
};

/// \brief Stable lowercase name ("auto", "scalar", "avx2", ...).
const char* KernelBackendName(KernelBackend backend);

/// \brief Parses a backend name (as accepted by MOCEMG_KERNEL).
Result<KernelBackend> ParseKernelBackend(const std::string& name);

/// \brief The backend currently answering dispatched kernel calls
/// (never kAuto — detection has resolved it).
KernelBackend ActiveKernelBackend();

/// \brief Backends compiled into this binary (always includes kScalar).
std::vector<KernelBackend> CompiledKernelBackends();

/// \brief Compiled backends the current CPU can execute.
std::vector<KernelBackend> UsableKernelBackends();

/// \brief Forces the active backend. kAuto re-runs detection (honouring
/// MOCEMG_KERNEL). Fails with FailedPrecondition when the backend is
/// not compiled in or the CPU lacks the features; the active table is
/// unchanged on error. Thread-safe, but swapping mid-scan gives a mix
/// of (bit-identical) backends — intended for startup / tests.
Status SetKernelBackend(KernelBackend backend);

/// \brief The ops table of a specific backend, or nullptr when that
/// backend is not compiled in / not usable on this CPU. kAuto returns
/// the auto-detected table. Exposed for the equivalence tests and the
/// kernel micro-benchmarks; library code should call the dispatched
/// entry points instead.
const KernelOps* GetKernelOps(KernelBackend backend);

/// \brief Snapshot of the dispatch decision for stats / bench metadata.
struct KernelDispatchInfo {
  std::string active;         ///< active backend name
  std::string compiled;       ///< comma-joined compiled backend names
  std::string usable;         ///< comma-joined CPU-usable backend names
  std::string cpu_features;   ///< detected feature flags, comma-joined
  bool env_override = false;  ///< MOCEMG_KERNEL forced a non-auto pick
};

/// \brief Returns the current dispatch decision + CPU feature flags.
KernelDispatchInfo GetKernelDispatchInfo();

namespace internal {
/// The table the dispatched entry points read (acquire-loaded once per
/// call). Initializes dispatch on first use.
const KernelOps& ActiveKernelOps();
}  // namespace internal

}  // namespace mocemg

#endif  // MOCEMG_UTIL_KERNEL_DISPATCH_H_
