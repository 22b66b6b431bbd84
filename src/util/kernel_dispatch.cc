#include "util/kernel_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "util/kernels/kernel_backend.h"
#include "util/logging.h"

namespace mocemg {
namespace {

// ---------------------------------------------------------------------
// CPU feature probing. __builtin_cpu_supports is available on GCC and
// Clang for x86; every other architecture runs the scalar backend.

#if defined(__x86_64__) || defined(__i386__)
// The builtin requires a string literal, so this has to be a macro.
#define MOCEMG_CPU_HAS(feature) (__builtin_cpu_supports(feature) != 0)
#endif

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return MOCEMG_CPU_HAS("avx2");
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  return MOCEMG_CPU_HAS("avx512f") && MOCEMG_CPU_HAS("avx512bw") &&
         MOCEMG_CPU_HAS("avx512vl");
#else
  return false;
#endif
}

std::string DetectCpuFeatures() {
  std::string features;
#if defined(__x86_64__) || defined(__i386__)
  const auto add = [&features](const char* name) {
    if (!features.empty()) features += ',';
    features += name;
  };
#define MOCEMG_ADD_FEATURE(f) \
  if (MOCEMG_CPU_HAS(f)) add(f)
  MOCEMG_ADD_FEATURE("sse2");
  MOCEMG_ADD_FEATURE("sse4.2");
  MOCEMG_ADD_FEATURE("avx");
  MOCEMG_ADD_FEATURE("fma");
  MOCEMG_ADD_FEATURE("avx2");
  MOCEMG_ADD_FEATURE("avx512f");
  MOCEMG_ADD_FEATURE("avx512bw");
  MOCEMG_ADD_FEATURE("avx512dq");
  MOCEMG_ADD_FEATURE("avx512vl");
  MOCEMG_ADD_FEATURE("avx512vnni");
#undef MOCEMG_ADD_FEATURE
#endif
  if (features.empty()) features = "none";
  return features;
}

bool BackendCompiled(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if defined(MOCEMG_HAVE_AVX2_BACKEND)
      return true;
#else
      return false;
#endif
    case KernelBackend::kAvx512:
#if defined(MOCEMG_HAVE_AVX512_BACKEND)
      return true;
#else
      return false;
#endif
    case KernelBackend::kAuto:
      return false;
  }
  return false;
}

bool BackendUsable(KernelBackend backend) {
  if (!BackendCompiled(backend)) return false;
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
      return CpuSupportsAvx2();
    case KernelBackend::kAvx512:
      return CpuSupportsAvx512();
    case KernelBackend::kAuto:
      return false;
  }
  return false;
}

const KernelOps* OpsFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &internal::ScalarKernelOps();
    case KernelBackend::kAvx2:
#if defined(MOCEMG_HAVE_AVX2_BACKEND)
      return &internal::Avx2KernelOps();
#else
      return nullptr;
#endif
    case KernelBackend::kAvx512:
#if defined(MOCEMG_HAVE_AVX512_BACKEND)
      return &internal::Avx512KernelOps();
#else
      return nullptr;
#endif
    case KernelBackend::kAuto:
      return nullptr;
  }
  return nullptr;
}

KernelBackend WidestUsable() {
  // Preference order: widest vectors first, scalar as the floor.
  for (const KernelBackend b : {KernelBackend::kAvx512, KernelBackend::kAvx2}) {
    if (BackendUsable(b)) return b;
  }
  return KernelBackend::kScalar;
}

struct DispatchState {
  std::atomic<const KernelOps*> active{nullptr};
  std::atomic<int> active_backend{static_cast<int>(KernelBackend::kScalar)};
  std::atomic<bool> env_override{false};
  std::once_flag init_once;
};

DispatchState& State() {
  static DispatchState state;
  return state;
}

void Publish(KernelBackend backend) {
  DispatchState& state = State();
  state.active_backend.store(static_cast<int>(backend),
                             std::memory_order_relaxed);
  state.active.store(OpsFor(backend), std::memory_order_release);
}

// Resolves kAuto: MOCEMG_KERNEL env override when set and usable
// (warning + detection otherwise), else the widest usable backend.
KernelBackend ResolveAuto() {
  DispatchState& state = State();
  state.env_override.store(false, std::memory_order_relaxed);
  const char* env = std::getenv("MOCEMG_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    const Result<KernelBackend> parsed = ParseKernelBackend(env);
    if (!parsed.ok()) {
      MOCEMG_LOG(kWarning) << "MOCEMG_KERNEL=" << env
                           << " is not a kernel backend name; using auto "
                              "detection";
    } else if (parsed.ValueOrDie() == KernelBackend::kAuto) {
      // explicit auto: fall through to detection
    } else if (!BackendUsable(parsed.ValueOrDie())) {
      MOCEMG_LOG(kWarning)
          << "MOCEMG_KERNEL=" << env << " requested but the "
          << (BackendCompiled(parsed.ValueOrDie()) ? "CPU lacks the features"
                                              : "backend is not compiled in")
          << "; using auto detection";
    } else {
      state.env_override.store(true, std::memory_order_relaxed);
      return parsed.ValueOrDie();
    }
  }
  return WidestUsable();
}

void EnsureInit() {
  DispatchState& state = State();
  std::call_once(state.init_once, [] { Publish(ResolveAuto()); });
}

std::string JoinNames(const std::vector<KernelBackend>& backends) {
  std::string out;
  for (const KernelBackend b : backends) {
    if (!out.empty()) out += ',';
    out += KernelBackendName(b);
  }
  return out;
}

}  // namespace

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Result<KernelBackend> ParseKernelBackend(const std::string& name) {
  for (const KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kAvx512}) {
    if (name == KernelBackendName(b)) return b;
  }
  return Status::InvalidArgument(
      "unknown kernel backend \"" + name +
      "\" (expected auto, scalar, avx2 or avx512)");
}

KernelBackend ActiveKernelBackend() {
  EnsureInit();
  return static_cast<KernelBackend>(
      State().active_backend.load(std::memory_order_relaxed));
}

std::vector<KernelBackend> CompiledKernelBackends() {
  std::vector<KernelBackend> out;
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    if (BackendCompiled(b)) out.push_back(b);
  }
  return out;
}

std::vector<KernelBackend> UsableKernelBackends() {
  std::vector<KernelBackend> out;
  for (const KernelBackend b : CompiledKernelBackends()) {
    if (BackendUsable(b)) out.push_back(b);
  }
  return out;
}

Status SetKernelBackend(KernelBackend backend) {
  EnsureInit();
  if (backend == KernelBackend::kAuto) {
    Publish(ResolveAuto());
    return Status::OK();
  }
  if (!BackendCompiled(backend)) {
    return Status::FailedPrecondition(
        std::string("kernel backend ") + KernelBackendName(backend) +
        " is not compiled into this binary");
  }
  if (!BackendUsable(backend)) {
    return Status::FailedPrecondition(
        std::string("this CPU lacks the features for kernel backend ") +
        KernelBackendName(backend));
  }
  Publish(backend);
  return Status::OK();
}

const KernelOps* GetKernelOps(KernelBackend backend) {
  if (backend == KernelBackend::kAuto) {
    EnsureInit();
    return State().active.load(std::memory_order_acquire);
  }
  if (!BackendUsable(backend)) return nullptr;
  return OpsFor(backend);
}

KernelDispatchInfo GetKernelDispatchInfo() {
  EnsureInit();
  KernelDispatchInfo info;
  info.active = KernelBackendName(ActiveKernelBackend());
  info.compiled = JoinNames(CompiledKernelBackends());
  info.usable = JoinNames(UsableKernelBackends());
  info.cpu_features = DetectCpuFeatures();
  info.env_override = State().env_override.load(std::memory_order_relaxed);
  return info;
}

namespace internal {

const KernelOps& ActiveKernelOps() {
  EnsureInit();
  return *State().active.load(std::memory_order_acquire);
}

}  // namespace internal
}  // namespace mocemg
