//===- KernelsAvx512.cpp - AVX-512 kernel table ---------------------------===//
//
// Instantiates the shared SIMD kernel templates for 512-bit AVX-512. The
// file is compiled with -mavx512f -mavx512dq -mavx512bw -mavx512vl (plus
// AVX2/FMA) when the compiler supports them; otherwise the registration is
// null. Dispatch.cpp selects this level only when CPUID reports all four
// feature flags, so Skylake-X-era and newer server parts qualify.
//
// The sddmm dot product uses 256-bit groups (DotGroup = 8), like the AVX2
// table.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include "kernels/SimdKernelsImpl.h"

#include <immintrin.h>

namespace {

struct Avx512Traits {
  using Vec = __m512;
  static constexpr int64_t Width = 16;
  static constexpr int64_t DotGroup = 8;

  static Vec load(const float *P) { return _mm512_loadu_ps(P); }
  static void store(float *P, Vec V) { _mm512_storeu_ps(P, V); }
  static Vec set1(float X) { return _mm512_set1_ps(X); }
  static Vec zero() { return _mm512_setzero_ps(); }
  static Vec add(Vec A, Vec B) { return _mm512_add_ps(A, B); }
  static Vec mul(Vec A, Vec B) { return _mm512_mul_ps(A, B); }
  static Vec fma(Vec A, Vec B, Vec C) { return _mm512_fmadd_ps(A, B, C); }
  static Vec max(Vec A, Vec B) { return _mm512_max_ps(A, B); }

  static float hsum(Vec V) { return _mm512_reduce_add_ps(V); }

  /// 256-bit dot group with the same reduction tree as the AVX2 table.
  static float dotGroup(const float *X, const float *Y) {
    __m256 Prod = _mm256_mul_ps(_mm256_loadu_ps(X), _mm256_loadu_ps(Y));
    __m128 Lo = _mm256_castps256_ps128(Prod);
    __m128 Hi = _mm256_extractf128_ps(Prod, 1);
    __m128 Sum = _mm_add_ps(Lo, Hi);
    Sum = _mm_add_ps(Sum, _mm_movehl_ps(Sum, Sum));
    Sum = _mm_add_ss(Sum, _mm_shuffle_ps(Sum, Sum, 0x55));
    return _mm_cvtss_f32(Sum);
  }
};

} // namespace

const granii::kernels::SimdOps *granii::kernels::detail::avx512SimdOps() {
  using namespace granii::kernels;
  static const SimdOps Ops = [] {
    SimdOps Table =
        simd_impl::makeSimdOps<Avx512Traits>(IsaLevel::Avx512, "avx512");
    // Calibration vs the scalar level, medians from `micro_kernels --json`
    // on the reference host (docs/SIMD.md documents the procedure): gemm
    // 13.5x; geomean of spmm_u 6.8x / spmm_w 5.0x / sddmm 2.3x = 4.3x.
    Table.DenseThroughputScale = 13.5;
    Table.SparseThroughputScale = 4.3;
    return Table;
  }();
  return &Ops;
}

#else // !AVX-512 target support

const granii::kernels::SimdOps *granii::kernels::detail::avx512SimdOps() {
  return nullptr;
}

#endif
