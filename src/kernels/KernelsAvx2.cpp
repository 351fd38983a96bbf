//===- KernelsAvx2.cpp - AVX2+FMA kernel table ----------------------------===//
//
// Instantiates the shared SIMD kernel templates for 256-bit AVX2 with FMA.
// This file is compiled with -mavx2 -mfma when the compiler supports them
// (see src/kernels/CMakeLists.txt); the guard below turns the table into a
// null registration otherwise, and Dispatch.cpp additionally requires the
// host CPU to report avx2+fma before ever selecting it.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include "kernels/SimdKernelsImpl.h"

#include <immintrin.h>

namespace {

struct Avx2Traits {
  using Vec = __m256;
  static constexpr int64_t Width = 8;

  static Vec load(const float *P) { return _mm256_loadu_ps(P); }
  static void store(float *P, Vec V) { _mm256_storeu_ps(P, V); }
  static Vec set1(float X) { return _mm256_set1_ps(X); }
  static Vec zero() { return _mm256_setzero_ps(); }
  static Vec add(Vec A, Vec B) { return _mm256_add_ps(A, B); }
  static Vec mul(Vec A, Vec B) { return _mm256_mul_ps(A, B); }
  static Vec fma(Vec A, Vec B, Vec C) { return _mm256_fmadd_ps(A, B, C); }
  static Vec max(Vec A, Vec B) { return _mm256_max_ps(A, B); }
  /// X where Pre > 0 (ordered compare), +0 elsewhere.
  static Vec maskPositive(Vec Pre, Vec X) {
    return _mm256_and_ps(_mm256_cmp_ps(Pre, zero(), _CMP_GT_OQ), X);
  }
  /// X where Pre > 0 (ordered compare), Y elsewhere.
  static Vec selectPositive(Vec Pre, Vec X, Vec Y) {
    return _mm256_blendv_ps(Y, X, _mm256_cmp_ps(Pre, zero(), _CMP_GT_OQ));
  }

  /// Lane-pair reduction tree: (0+4, 1+5, 2+6, 3+7) -> pairs -> scalar.
  /// Fixed order, so every reduction folds identically wherever it runs.
  static float hsum(Vec V) {
    __m128 Lo = _mm256_castps256_ps128(V);
    __m128 Hi = _mm256_extractf128_ps(V, 1);
    __m128 Sum = _mm_add_ps(Lo, Hi);
    Sum = _mm_add_ps(Sum, _mm_movehl_ps(Sum, Sum));
    Sum = _mm_add_ss(Sum, _mm_shuffle_ps(Sum, Sum, 0x55));
    return _mm_cvtss_f32(Sum);
  }
};

} // namespace

const granii::kernels::SimdOps *granii::kernels::detail::avx2SimdOps() {
  using namespace granii::kernels;
  static const SimdOps Ops = [] {
    SimdOps Table =
        simd_impl::makeSimdOps<Avx2Traits>(IsaLevel::Avx2, "avx2");
    // Calibration vs the scalar level, medians from `micro_kernels --json`
    // on the reference host (docs/SIMD.md documents the procedure): gemm
    // 7.9x; geomean of spmm_u 4.9x / spmm_w 4.9x / sddmm 2.2x = 3.8x.
    Table.DenseThroughputScale = 8.0;
    Table.SparseThroughputScale = 3.8;
    return Table;
  }();
  return &Ops;
}

#else // !(__AVX2__ && __FMA__)

const granii::kernels::SimdOps *granii::kernels::detail::avx2SimdOps() {
  return nullptr;
}

#endif
