// Scalar statement of the dense kernels' per-element IEEE operation
// sequences (src/nn/kernels.h, docs/PERFORMANCE.md §Fused kernels).
//
// Each function computes what one kernel family computes, element by
// element, in exactly the order of roundings the kernels fix. The file is
// compiled with -ffp-contract=off, so every `*` and `+` written here rounds
// on its own and every fused multiply-add is an explicit std::fma. The
// FusedKernels tests compare each kernel variant the host can run against
// these functions bit for bit: an oracle that disagrees with a variant means
// the variant changed the bits that checkpoints and digests depend on.
#pragma once

#include <cstddef>

namespace hero::nn::oracle {

// kBase: the baseline x86-64 kernels (no FMA; each product rounds).
// kFma: the AVX2 and AVX-512 kernels, which share one sequence.
enum class Seq { kBase, kFma };

// o (m×n) = a (m×k) · w (k×n) + bias (1×n).
void affine(Seq seq, const double* a, std::size_t m, std::size_t k, const double* w,
            std::size_t n, const double* bias, double* o);

// o (k×n) += aᵀ · b with a (m×k), b (m×n).
void transA_accum(Seq seq, const double* a, std::size_t m, std::size_t k,
                  const double* b, std::size_t n, double* o);

// o (m×n) = a (m×k) · bᵀ with b (n×k), or o += that when `accumulate`.
void transB(Seq seq, const double* a, std::size_t m, std::size_t k, const double* b,
            std::size_t n, double* o, bool accumulate);

}  // namespace hero::nn::oracle
