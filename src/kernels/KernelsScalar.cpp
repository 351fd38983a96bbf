//===- KernelsScalar.cpp - Portable scalar kernel table -------------------===//
//
// The portable fallback level of the runtime ISA dispatch. These routines
// are the original scalar inner loops of Kernels.cpp, kept verbatim (zero
// skips, accumulation order, mul-then-add arithmetic — no FMA contraction)
// so GRANII_ISA=scalar reproduces the pre-SIMD library bitwise on every
// platform and gives the sanitizer jobs a portable leg to pin.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"

#include <algorithm>

using namespace granii;
using namespace granii::kernels;

namespace {

void gemmRowRange(const float *A, int64_t Lda, const float *B, int64_t Ldb,
                  float *C, int64_t Ldc, int64_t K, int64_t N,
                  int64_t RowBegin, int64_t RowEnd, bool Accumulate) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    const float *ARow = A + I * Lda;
    float *CRow = C + I * Ldc;
    if (!Accumulate)
      std::fill(CRow, CRow + N, 0.0f);
    for (int64_t KK = 0; KK < K; ++KK) {
      float AVal = ARow[KK];
      if (AVal == 0.0f)
        continue;
      const float *BRow = B + KK * Ldb;
      for (int64_t J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
}

void gemmTLhsRowRange(const float *A, int64_t Lda, const float *B,
                      int64_t Ldb, float *C, int64_t Ldc, int64_t M,
                      int64_t N, int64_t RowBegin, int64_t RowEnd) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float *CRow = C + R * Ldc;
    std::fill(CRow, CRow + N, 0.0f);
    for (int64_t I = 0; I < M; ++I) {
      float AVal = A[I * Lda + R];
      if (AVal == 0.0f)
        continue;
      const float *BRow = B + I * Ldb;
      for (int64_t J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
}

void gemmTRhsRowRange(const float *A, int64_t Lda, const float *B,
                      int64_t Ldb, float *C, int64_t Ldc, int64_t K,
                      int64_t NOut, int64_t RowBegin, int64_t RowEnd) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    const float *ARow = A + I * Lda;
    float *CRow = C + I * Ldc;
    for (int64_t J = 0; J < NOut; ++J) {
      const float *BRow = B + J * Ldb;
      float Acc = 0.0f;
      for (int64_t KK = 0; KK < K; ++KK)
        Acc += ARow[KK] * BRow[KK];
      CRow[J] = Acc;
    }
  }
}

void spmmRowRange(const int64_t *Offsets, const int32_t *Cols,
                  const float *Vals, const int64_t *ValIdx, const float *B,
                  int64_t Ldb, float *Dst, int64_t LdDst, int64_t N,
                  SpmmCombine Combine, bool Mean, int64_t RowBegin,
                  int64_t RowEnd) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float *Out = Dst + R * LdDst;
    const int64_t Begin = Offsets[R];
    const int64_t End = Offsets[R + 1];
    std::fill(Out, Out + N, 0.0f);
    for (int64_t K = Begin; K < End; ++K) {
      const float *Src = B + static_cast<int64_t>(Cols[K]) * Ldb;
      if (Combine == SpmmCombine::CopyRhs) {
        for (int64_t J = 0; J < N; ++J)
          Out[J] += Src[J];
      } else {
        float EdgeVal = Vals ? Vals[ValIdx ? ValIdx[K] : K] : 1.0f;
        if (Combine == SpmmCombine::Mul) {
          for (int64_t J = 0; J < N; ++J)
            Out[J] += EdgeVal * Src[J];
        } else { // Add combine.
          for (int64_t J = 0; J < N; ++J)
            Out[J] += EdgeVal + Src[J];
        }
      }
    }
    if (Mean && End > Begin) {
      float Inv = 1.0f / static_cast<float>(End - Begin);
      for (int64_t J = 0; J < N; ++J)
        Out[J] *= Inv;
    }
  }
}

void sddmmDotRowRange(const int64_t *Offsets, const int32_t *Cols,
                      const float *U, int64_t Ldu, const float *V,
                      int64_t Ldv, float *Out, int64_t Width,
                      int64_t RowBegin, int64_t RowEnd) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    const float *URow = U + R * Ldu;
    for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K) {
      const float *VRow = V + static_cast<int64_t>(Cols[K]) * Ldv;
      float Acc = 0.0f;
      for (int64_t J = 0; J < Width; ++J)
        Acc += URow[J] * VRow[J];
      Out[K] = Acc;
    }
  }
}

void scaleRange(float Alpha, const float *X, float *Out, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Out[I] = Alpha * X[I];
}

void mulRange(const float *X, const float *Y, float *Out, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Out[I] = X[I] * Y[I];
}

void addRange(const float *X, const float *Y, float *Out, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Out[I] = X[I] + Y[I];
}

void axpyRange(float Alpha, const float *X, float *Y, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Y[I] += Alpha * X[I];
}

void reluRange(const float *X, float *Out, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Out[I] = X[I] > 0.0f ? X[I] : 0.0f;
}

SimdOps makeScalarOps() {
  SimdOps Ops;
  Ops.Level = IsaLevel::Scalar;
  Ops.Name = "scalar";
  Ops.DenseThroughputScale = 1.0;
  Ops.SparseThroughputScale = 1.0;
  Ops.GemmRowRange = &gemmRowRange;
  Ops.GemmTLhsRowRange = &gemmTLhsRowRange;
  Ops.GemmTRhsRowRange = &gemmTRhsRowRange;
  Ops.SpmmRowRange = &spmmRowRange;
  Ops.SddmmDotRowRange = &sddmmDotRowRange;
  Ops.ScaleRange = &scaleRange;
  Ops.MulRange = &mulRange;
  Ops.AddRange = &addRange;
  Ops.AxpyRange = &axpyRange;
  Ops.ReluRange = &reluRange;
  return Ops;
}

} // namespace

const SimdOps &kernels::detail::scalarSimdOps() {
  static const SimdOps Ops = makeScalarOps();
  return Ops;
}
