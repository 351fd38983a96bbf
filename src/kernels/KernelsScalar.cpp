//===- KernelsScalar.cpp - Portable scalar kernel table -------------------===//
//
// The portable fallback level of the runtime ISA dispatch. These routines
// are the original scalar inner loops of Kernels.cpp and of the executor's
// attention gradients, kept verbatim (zero skips, accumulation order,
// mul-then-add arithmetic — no FMA contraction) so GRANII_ISA=scalar
// reproduces the pre-SIMD library bitwise on every platform and gives the
// sanitizer jobs a portable leg to pin.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"

#include <algorithm>

using namespace granii;
using namespace granii::kernels;

namespace {

/// Applies \p Epi's steps to output row \p Row, which the row routine has
/// just accumulated in place: scaleRange's and reluRange's arithmetic below.
void applyEpilogue(const RowEpilogue &Epi, int64_t Row, float *Out,
                   int64_t N) {
  for (int O = 0; O < Epi.Count; ++O) {
    const RowEpilogue::Op &Op = Epi.Ops[O];
    if (Op.Kind == RowEpilogue::OpKind::Scale) {
      const float Alpha = Op.Scale[static_cast<size_t>(Row)];
      for (int64_t J = 0; J < N; ++J)
        Out[J] = Alpha * Out[J];
    } else {
      for (int64_t J = 0; J < N; ++J)
        Out[J] = Out[J] > 0.0f ? Out[J] : 0.0f;
    }
  }
}

void gemmRowRange(const float *A, int64_t Lda, const float *B, int64_t Ldb,
                  float *C, int64_t Ldc, int64_t K, int64_t N,
                  int64_t RowBegin, int64_t RowEnd, const RowEpilogue *Epi) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    const float *ARow = A + I * Lda;
    float *CRow = C + I * Ldc;
    std::fill(CRow, CRow + N, 0.0f);
    for (int64_t KK = 0; KK < K; ++KK) {
      float AVal = ARow[KK];
      if (AVal == 0.0f)
        continue;
      const float *BRow = B + KK * Ldb;
      for (int64_t J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
    if (Epi)
      applyEpilogue(*Epi, I, CRow, N);
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
                  int64_t RowBegin, int64_t RowEnd, const RowEpilogue *Epi) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float *Out = Dst + R * LdDst;
    std::fill(Out, Out + N, 0.0f);
    for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K) {
      const float *Src = B + static_cast<int64_t>(Cols[K]) * Ldb;
      if (!Vals) {
        for (int64_t J = 0; J < N; ++J)
          Out[J] += Src[J];
      } else {
        float EdgeVal = Vals[ValIdx ? ValIdx[K] : K];
        for (int64_t J = 0; J < N; ++J)
          Out[J] += EdgeVal * Src[J];
      }
    }
    if (Epi)
      applyEpilogue(*Epi, R, Out, N);
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

void gemvRowRange(const float *A, int64_t Lda, const float *X, float *Y,
                  int64_t K, int64_t RowBegin, int64_t RowEnd) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    const float *Row = A + I * Lda;
    float Acc = 0.0f;
    for (int64_t J = 0; J < K; ++J)
      Acc += Row[J] * X[J];
    Y[I] = Acc;
  }
}

void attnThetaGradRows(const float *Grad, const float *AVec, float *DTheta,
                       int64_t Ld, int64_t Cols, int64_t RowBegin,
                       int64_t RowEnd, bool First) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float G = Grad[R];
    float *Row = DTheta + R * Ld;
    if (G == 0.0f) {
      if (First)
        std::fill_n(Row, Cols, 0.0f);
      continue;
    }
    for (int64_t C = 0; C < Cols; ++C)
      Row[C] = (First ? 0.0f : Row[C]) + G * AVec[C];
  }
}

/// Columns one pass over the rows accumulates.
constexpr int64_t AttnGradMaxPassCols = 128;

/// The partial sums live in a local array, so threads owning neighbouring
/// column ranges never share a written cache line, and one pass over the
/// rows serves up to AttnGradMaxPassCols columns, reading adjacent lines of
/// each row together.
void attnVecGradCols(const float *Theta, int64_t Ld, int64_t Rows,
                     const float *Grad, float *DA, int64_t C0, int64_t C1,
                     bool First) {
  for (; C0 < C1; C0 += AttnGradMaxPassCols) {
    const int64_t Width = std::min(AttnGradMaxPassCols, C1 - C0);
    float Acc[AttnGradMaxPassCols];
    if (First)
      std::fill_n(Acc, Width, 0.0f);
    else
      std::copy_n(DA + C0, Width, Acc);
    const float *Base = Theta + C0;
    for (int64_t R = 0; R < Rows; ++R) {
      if (R + AttnGradPrefetchRows < Rows)
        for (int64_t C = 0; C < Width; C += AttnGradColBlock)
          __builtin_prefetch(Base + (R + AttnGradPrefetchRows) * Ld + C);
      float G = Grad[R];
      const float *Row = Base + R * Ld;
      for (int64_t C = 0; C < Width; ++C)
        Acc[C] += G * Row[C];
    }
    std::copy_n(Acc, Width, DA + C0);
  }
}

void leakyReluBackwardRange(float Slope, const float *Pre, const float *Grad,
                            float *DIn, int64_t N, bool First) {
  for (int64_t I = 0; I < N; ++I) {
    const float Sel = Pre[I] > 0.0f ? 1.0f : Slope;
    DIn[I] = (First ? 0.0f : DIn[I]) + Grad[I] * Sel;
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

void reluBackwardRange(const float *Pre, const float *Grad, float *Out,
                       int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Out[I] = Pre[I] > 0.0f ? Grad[I] : 0.0f;
}

void leakyReluRange(float Slope, const float *X, float *Out, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Out[I] = X[I] > 0.0f ? X[I] : Slope * X[I];
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
  Ops.GemvRowRange = &gemvRowRange;
  Ops.AttnThetaGradRows = &attnThetaGradRows;
  Ops.AttnVecGradCols = &attnVecGradCols;
  Ops.LeakyReluBackwardRange = &leakyReluBackwardRange;
  Ops.ScaleRange = &scaleRange;
  Ops.MulRange = &mulRange;
  Ops.AddRange = &addRange;
  Ops.AxpyRange = &axpyRange;
  Ops.ReluRange = &reluRange;
  Ops.ReluBackwardRange = &reluBackwardRange;
  Ops.LeakyReluRange = &leakyReluRange;
  return Ops;
}

} // namespace

const SimdOps &kernels::detail::scalarSimdOps() {
  static const SimdOps Ops = makeScalarOps();
  return Ops;
}
