// Internal to src/nn: the dense kernel variants behind Matrix's `*_into` ops.
//
// Each variant is one instruction set's build of the same four kernels. The
// baseline x86-64 set always exists; the AVX2+FMA and AVX-512 sets exist on
// x86-64 GCC/Clang builds and run only where the CPU reports the feature
// bits. Matrix dispatches to the widest supported set, picked once at
// start-up by __builtin_cpu_supports — there is no flag or setting.
//
// Every variant fixes each output element's IEEE operation sequence
// (docs/PERFORMANCE.md §Fused kernels), and the FMA variants share one
// sequence, so AVX2 and AVX-512 hosts produce the same bits.
// tests/support/nn_kernel_oracle.h writes those sequences out as scalar code
// and the FusedKernels tests compare every variant the host can run against
// it, bit for bit.
#pragma once

#include <cstddef>
#include <span>

namespace hero::nn::kernels {

// accum: o (m×n) += a (m×k) · b (k×n);
// transA_accum: o (k×n) += aᵀ · b with a (m×k), b (m×n).
using AccumFn = void (*)(const double* a, std::size_t m, std::size_t k,
                         const double* b, std::size_t n, double* o);
// o (m×n) = a (m×k) · bᵀ with b (n×k); adds into o when `accumulate`.
using TransBFn = void (*)(const double* a, std::size_t m, std::size_t k,
                          const double* b, std::size_t n, double* o, bool accumulate);
// o (m×n) = a (m×k) · w (k×n) + bias (1×n).
using AffineFn = void (*)(const double* a, std::size_t m, std::size_t k,
                          const double* w, std::size_t n, const double* bias, double* o);

struct KernelSet {
  const char* isa;  // "base", "avx2" or "avx512"
  bool fma;         // true when the sequences use fused multiply-adds
  bool supported;   // whether this CPU can run the set
  AccumFn accum;
  AccumFn transA_accum;
  TransBFn transB;
  AffineFn affine;
};

// Every set compiled into this binary, baseline first, widest last.
std::span<const KernelSet> kernel_sets();

// The set Matrix uses: the last supported entry of kernel_sets().
const KernelSet& active_kernels();

}  // namespace hero::nn::kernels
