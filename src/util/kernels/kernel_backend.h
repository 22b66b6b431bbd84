/// \file kernel_backend.h
/// \brief Internal: per-backend KernelOps factories. Each backend lives
/// in its own translation unit compiled with the matching target flags
/// (see src/util/CMakeLists.txt); the dispatcher links only the tables
/// whose MOCEMG_HAVE_*_BACKEND definition is set. Every table must
/// reproduce the scalar reference bit-for-bit (kernel_dispatch.h).

#ifndef MOCEMG_UTIL_KERNELS_KERNEL_BACKEND_H_
#define MOCEMG_UTIL_KERNELS_KERNEL_BACKEND_H_

#include "util/kernel_dispatch.h"

namespace mocemg {
namespace internal {

/// Portable reference backend; always compiled. Its double kernels are
/// the inline ones from distance_kernels.h, so "scalar" is by
/// definition the bit-exactness baseline.
const KernelOps& ScalarKernelOps();

/// x86-64 AVX2 backend (TU compiled with -mavx2 -ffp-contract=off).
const KernelOps& Avx2KernelOps();

/// x86-64 AVX-512 backend (TU compiled with
/// -mavx512f -mavx512bw -mavx512vl -ffp-contract=off).
const KernelOps& Avx512KernelOps();

}  // namespace internal
}  // namespace mocemg

#endif  // MOCEMG_UTIL_KERNELS_KERNEL_BACKEND_H_
