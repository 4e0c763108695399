// AVX-512 GEMM micro-kernels: native-width fp32, bf16 widen-FMA and int8
// VNNI.
//
//   fp32: the full 8x16 C tile lives in eight zmm accumulators -- the
//   kNR = 16 packed panel is one zmm per k-step, the way the paper's inner
//   kernel is register-blocked to the full QPX width (Sec. V-A2). Every C
//   element gets exactly the AVX2 kernel's arithmetic (one FMA per k in
//   ascending order from zero, then fma(beta, C, alpha * acc)), so fp32
//   results are bitwise identical to sgemm_microkernel_avx2; fringe tiles
//   use masked loads and stores.
//
// The reduced-precision kernels follow the accumulate-only contract of
// kernels_reduced.h. Why they are bitwise-identical to the scalar
// references:
//
//   bf16: each k-step widens the B row (u16 << 16 reinterpreted as fp32)
//   and issues one 16-wide FMA per A row, in the same ascending-k,
//   one-FMA-per-element order as the scalar loop. We deliberately do NOT
//   use vdpbf16ps: its internal rounding/denormal behaviour is
//   implementation-defined territory, while widen+FMA is plain IEEE fp32.
//
//   int8: vpdpbusd(u8, s8) accumulates 4-wide dot products into int32
//   without intermediate saturation (unlike the vpmaddubsw emulation), so
//   the arithmetic is exact integer math — identical to scalar by
//   definition.
//
// Compiled with -mavx512{f,bw,vl,vnni} in its own translation unit; the
// dispatcher (dispatch.cpp) only selects these after a runtime cpuid probe.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgqhf::blas {

#if defined(BGQHF_HAVE_AVX512_TU)

/// 8x16 fp32 SGEMM kernel; same contract as microkernel<float> (beta == 0
/// writes without reading C).
void sgemm_microkernel_avx512(std::size_t kc, const float* a_panel,
                              const float* b_panel, float alpha, float beta,
                              float* c, std::size_t ldc, std::size_t mr,
                              std::size_t nr);

void bf16_microkernel_avx512(std::size_t kc, const float* a_panel,
                             const std::uint16_t* b_panel, float* acc);

void int8_microkernel_avx512(std::size_t kgroups, const std::uint8_t* a_panel,
                             const std::int8_t* b_panel, std::int32_t* acc);

#endif  // BGQHF_HAVE_AVX512_TU

}  // namespace bgqhf::blas
