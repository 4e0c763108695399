// Register-blocked GEMM micro-kernel (portable scalar reference).
//
// Portable analogue of the paper's assembly inner kernel: an 8x16 C update
// accumulated in registers by a sequence of rank-1 outer products over
// packed, strictly stride-one A and B panels (Sec. V-A2). The accumulator
// array and fixed trip counts let GCC fully unroll and vectorize the body;
// fringes are handled by zero-padding during packing, never by branches
// here.
//
// This scalar kernel is the reference implementation behind the runtime
// kernel dispatch (dispatch.h); SIMD variants live in kernels_sse2.h /
// kernels_avx2.h / kernels_avx512.h. All kernels share one contract:
//
//   C(0:mr, 0:nr) = alpha * sum_k a_panel[k] (outer) b_panel[k]
//                   + beta * C(0:mr, 0:nr)
//
// with beta == 0 meaning "write, do not read C" (NaN in C must not
// propagate). Folding beta into the kernel lets the blocked driver apply it
// on the first k-block instead of sweeping all of C in a serial pre-pass.
// The FMA kernels (avx2, avx512) accumulate each element from zero with one
// FMA per k in ascending order and write fma(beta, C, alpha * acc) on full
// and fringe tiles alike, so their fp32 results are bitwise identical.
#pragma once

#include <cstddef>

#include "blas/pack.h"

namespace bgqhf::blas {

/// Scalar reference kernel; a_panel points at kc*MR packed values, b_panel
/// at kc*NR. See the contract above. Like the SIMD kernels it computes the
/// tile one 8-column slice at a time (slices wholly past nr are skipped):
/// 8x16 accumulators would not fit the register file, and each element's
/// arithmetic does not depend on the slicing.
template <typename T>
inline void microkernel(std::size_t kc, const T* __restrict a_panel,
                        const T* __restrict b_panel, T alpha, T beta,
                        T* __restrict c, std::size_t ldc, std::size_t mr,
                        std::size_t nr) {
  constexpr std::size_t kSlice = 8;
  for (std::size_t j0 = 0; j0 < nr; j0 += kSlice) {
    const std::size_t w = (nr - j0 < kSlice) ? (nr - j0) : kSlice;
    T acc[kMR][kSlice] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const T* __restrict a = a_panel + k * kMR;
      const T* __restrict b = b_panel + k * kNR + j0;
      for (std::size_t i = 0; i < kMR; ++i) {
        const T ai = a[i];
        for (std::size_t j = 0; j < kSlice; ++j) {
          acc[i][j] += ai * b[j];
        }
      }
    }
    T* __restrict cs = c + j0;
    if (beta == T{}) {
      if (mr == kMR && w == kSlice) {
        for (std::size_t i = 0; i < kMR; ++i) {
          for (std::size_t j = 0; j < kSlice; ++j) {
            cs[i * ldc + j] = alpha * acc[i][j];
          }
        }
      } else {
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < w; ++j) {
            cs[i * ldc + j] = alpha * acc[i][j];
          }
        }
      }
    } else if (mr == kMR && w == kSlice) {
      for (std::size_t i = 0; i < kMR; ++i) {
        for (std::size_t j = 0; j < kSlice; ++j) {
          cs[i * ldc + j] = alpha * acc[i][j] + beta * cs[i * ldc + j];
        }
      }
    } else {
      for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          cs[i * ldc + j] = alpha * acc[i][j] + beta * cs[i * ldc + j];
        }
      }
    }
  }
}

}  // namespace bgqhf::blas
