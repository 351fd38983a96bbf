//===- FormatKernels.cpp - Per-format g-SpMM / g-SDDMM ---------------------===//

#include "kernels/FormatKernels.h"

#include "kernels/Dispatch.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdint>

using namespace granii;
using namespace granii::kernels;

namespace {

void checkDenseDst(const DenseMatrix &Dst, int64_t Rows, int64_t Cols,
                   const char *Kernel) {
  GRANII_CHECK(Dst.rows() == Rows && Dst.cols() == Cols,
               std::string(Kernel) + " destination shape mismatch (have " +
                   std::to_string(Dst.rows()) + "x" +
                   std::to_string(Dst.cols()) + ", need " +
                   std::to_string(Rows) + "x" + std::to_string(Cols) + ")");
}

void checkVals(std::span<const float> Vals, int64_t Nnz, const char *Kernel) {
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Nnz,
               std::string(Kernel) + " edge value count mismatch");
}

SpmmCombine combineFor(const Semiring &S) {
  switch (S.Combine) {
  case CombineOpKind::Mul:
    return SpmmCombine::Mul;
  case CombineOpKind::CopyRhs:
    return SpmmCombine::CopyRhs;
  case CombineOpKind::Add:
    return SpmmCombine::Add;
  }
  return SpmmCombine::Mul;
}

bool isSumLike(const Semiring &S) {
  return S.Reduce == ReduceOpKind::Sum || S.Reduce == ReduceOpKind::Mean;
}

bool isPlusTimes(const Semiring &S) {
  return S.Reduce == ReduceOpKind::Sum && S.Combine == CombineOpKind::Mul;
}

/// The general (max/min) reduction body for one output row, identical to
/// the CSR kernel's shared scalar path: identity fill iff the row has
/// entries, then reduce(combine(edge, feature)) element by element.
/// \p Next yields the next (column, CSR value index) pair in CSR order.
template <typename NextFn>
void generalReduceRow(const Semiring &S, std::span<const float> Vals,
                      const DenseMatrix &B, float *Out, int64_t NCols,
                      int64_t Len, NextFn Next) {
  const bool Any = Len > 0;
  const float Identity = S.reduceIdentity();
  for (int64_t J = 0; J < NCols; ++J)
    Out[J] = Any ? Identity : 0.0f;
  for (int64_t K = 0; K < Len; ++K) {
    const auto [Col, ValIdx] = Next(K);
    const float EdgeVal =
        Vals.empty() ? 1.0f : Vals[static_cast<size_t>(ValIdx)];
    const float *Src = B.rowPtr(Col);
    for (int64_t J = 0; J < NCols; ++J)
      Out[J] = S.reduce(Out[J], S.combine(EdgeVal, Src[J]));
  }
}

/// The general (non-plus-times) SDDMM body for one edge, identical to the
/// CSR kernel's shared scalar path.
float generalSddmmEdge(const Semiring &S, const float *URow, const float *VRow,
                       int64_t Width) {
  float Acc = S.reduceIdentity();
  for (int64_t J = 0; J < Width; ++J)
    Acc = S.reduce(Acc, S.combine(URow[J], VRow[J]));
  return Acc;
}

} // namespace

void kernels::spmmEllInto(const EllMatrix &A, std::span<const float> Vals,
                          const DenseMatrix &B, const Semiring &S,
                          DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.rows(), "spmm_ell dimension mismatch");
  checkVals(Vals, A.nnz(), "spmm_ell");
  checkDenseDst(Dst, A.rows(), B.cols(), "spmm_ell");
  const auto &Offsets = A.rowOffsets();
  const int64_t NCols = B.cols();
  if (isSumLike(S)) {
    // Row trampoline into the dispatched CSR row routine: each ELL row's
    // live columns are contiguous (rowColsPtr) and its values sit at the
    // CSR row offset, so a {0, len} offset pair makes SpmmRowRange — the
    // very routine the CSR path runs — process the row unchanged.
    const SimdOps &Ops = simdOps();
    const SpmmCombine Combine = combineFor(S);
    const bool Mean = S.Reduce == ReduceOpKind::Mean;
    const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      for (int64_t R = RowBegin; R < RowEnd; ++R) {
        const int64_t LocalOffsets[2] = {0, A.rowNnz(R)};
        Ops.SpmmRowRange(LocalOffsets, A.rowColsPtr(R),
                         ValsPtr ? ValsPtr + Offsets[R] : nullptr, nullptr,
                         B.data(), NCols, Dst.rowPtr(R), NCols, 0, NCols,
                         Combine, Mean, 0, 1);
      }
    });
    return;
  }
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const int32_t *Cols = A.rowColsPtr(R);
      const int64_t Base = Offsets[R];
      generalReduceRow(S, Vals, B, Dst.rowPtr(R), NCols, A.rowNnz(R),
                       [&](int64_t K) {
                         return std::pair<int32_t, int64_t>(Cols[K], Base + K);
                       });
    }
  });
}

void kernels::spmmSellInto(const SellMatrix &A, std::span<const float> Vals,
                           const DenseMatrix &B, const Semiring &S,
                           DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.rows(), "spmm_sell dimension mismatch");
  checkVals(Vals, A.nnz(), "spmm_sell");
  checkDenseDst(Dst, A.rows(), B.cols(), "spmm_sell");
  const auto &Offsets = A.rowOffsets();
  const int64_t NCols = B.cols();
  if (isSumLike(S)) {
    const SimdOps &Ops = simdOps();
    const SpmmCombine Combine = combineFor(S);
    const bool Mean = S.Reduce == ReduceOpKind::Mean;
    const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      for (int64_t R = RowBegin; R < RowEnd; ++R) {
        const int64_t LocalOffsets[2] = {0, A.rowNnz(R)};
        Ops.SpmmRowRange(LocalOffsets, A.rowColsPtr(R),
                         ValsPtr ? ValsPtr + Offsets[R] : nullptr, nullptr,
                         B.data(), NCols, Dst.rowPtr(R), NCols, 0, NCols,
                         Combine, Mean, 0, 1);
      }
    });
    return;
  }
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const int32_t *Cols = A.rowColsPtr(R);
      const int64_t Base = Offsets[R];
      generalReduceRow(S, Vals, B, Dst.rowPtr(R), NCols, A.rowNnz(R),
                       [&](int64_t K) {
                         return std::pair<int32_t, int64_t>(Cols[K], Base + K);
                       });
    }
  });
}

void kernels::spmmHybInto(const HybMatrix &A, std::span<const float> Vals,
                          const DenseMatrix &B, const Semiring &S,
                          DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.rows(), "spmm_hyb dimension mismatch");
  checkVals(Vals, A.nnz(), "spmm_hyb");
  checkDenseDst(Dst, A.rows(), B.cols(), "spmm_hyb");
  const auto &Offsets = A.rowOffsets();
  const auto &CooOffsets = A.cooRowOffsets();
  const auto &CooColIds = A.cooCols();
  const int64_t NCols = B.cols();
  const int64_t EllWidth = A.ellWidth();
  if (isSumLike(S)) {
    // ELL part then overflow is exactly CSR order, but the two segments
    // share one accumulator row, so this composes the dispatch table's
    // per-neighbor ops (the loop bodies of SpmmRowRange) instead of
    // calling it per segment (its leading zero-fill would wipe segment 1).
    const SimdOps &Ops = simdOps();
    const bool Mean = S.Reduce == ReduceOpKind::Mean;
    const bool PlainSum = S.Combine == CombineOpKind::CopyRhs ||
                          (S.Combine == CombineOpKind::Mul && Vals.empty());
    const bool MulCombine = S.Combine == CombineOpKind::Mul;
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      for (int64_t R = RowBegin; R < RowEnd; ++R) {
        float *Out = Dst.rowPtr(R);
        std::fill(Out, Out + NCols, 0.0f);
        const int64_t Len = A.rowNnz(R);
        const int64_t EllLen = std::min(Len, EllWidth);
        const int64_t ValBase = Offsets[R];
        const int32_t *Ell = A.ellRowColsPtr(R);
        auto Accumulate = [&](int32_t Col, int64_t ValIdx) {
          const float *Src = B.rowPtr(Col);
          if (PlainSum) {
            Ops.AddRange(Out, Src, Out, NCols);
          } else if (MulCombine) {
            Ops.AxpyRange(Vals[static_cast<size_t>(ValIdx)], Src, Out, NCols);
          } else { // Add combine.
            const float Edge =
                Vals.empty() ? 1.0f : Vals[static_cast<size_t>(ValIdx)];
            for (int64_t J = 0; J < NCols; ++J)
              Out[J] = (Edge + Src[J]) + Out[J];
          }
        };
        for (int64_t K = 0; K < EllLen; ++K)
          Accumulate(Ell[K], ValBase + K);
        for (int64_t K = CooOffsets[R]; K < CooOffsets[R + 1]; ++K)
          Accumulate(CooColIds[K], ValBase + EllLen + (K - CooOffsets[R]));
        if (Mean && Len > 0)
          Ops.ScaleRange(1.0f / static_cast<float>(Len), Out, Out, NCols);
      }
    });
    return;
  }
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const int64_t Len = A.rowNnz(R);
      const int64_t EllLen = std::min(Len, EllWidth);
      const int64_t Base = Offsets[R];
      const int32_t *Ell = A.ellRowColsPtr(R);
      const int32_t *Coo = CooColIds.data() + CooOffsets[R];
      generalReduceRow(S, Vals, B, Dst.rowPtr(R), NCols, Len, [&](int64_t K) {
        const int32_t Col = K < EllLen ? Ell[K] : Coo[K - EllLen];
        return std::pair<int32_t, int64_t>(Col, Base + K);
      });
    }
  });
}

void kernels::spmmCscTransposedInto(const CscMatrix &A,
                                    std::span<const float> Vals,
                                    const DenseMatrix &B, const Semiring &S,
                                    DenseMatrix &Dst) {
  GRANII_CHECK(A.rows() == B.rows(), "spmm_csc_t dimension mismatch");
  checkVals(Vals, A.nnz(), "spmm_csc_t");
  checkDenseDst(Dst, A.cols(), B.cols(), "spmm_csc_t");
  const auto &ColOffsets = A.colOffsets();
  const auto &Rows = A.rowIndices();
  const auto &CsrIdx = A.csrIndices();
  const int64_t NCols = B.cols();
  if (isSumLike(S)) {
    // Output row c is column c of the source; its entries come in ascending
    // source-row order — the entry order of transposed()'s row c — and the
    // value index gathers each entry's value through the CSC→CSR map, so
    // the dispatched CSR row routine computes the transpose-then-SpMM
    // result bitwise while touching the values in place.
    const SimdOps &Ops = simdOps();
    const SpmmCombine Combine = combineFor(S);
    const bool Mean = S.Reduce == ReduceOpKind::Mean;
    const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
    parallelForCsrRows(ColOffsets, [&](int64_t ColBegin, int64_t ColEnd) {
      Ops.SpmmRowRange(ColOffsets.data(), Rows.data(), ValsPtr, CsrIdx.data(),
                       B.data(), NCols, Dst.data(), NCols, 0, NCols, Combine,
                       Mean, ColBegin, ColEnd);
    });
    return;
  }
  parallelForCsrRows(ColOffsets, [&](int64_t ColBegin, int64_t ColEnd) {
    for (int64_t C = ColBegin; C < ColEnd; ++C) {
      const int64_t Begin = ColOffsets[C];
      generalReduceRow(S, Vals, B, Dst.rowPtr(C), NCols, A.colNnz(C),
                       [&](int64_t K) {
                         return std::pair<int32_t, int64_t>(
                             Rows[Begin + K], CsrIdx[Begin + K]);
                       });
    }
  });
}

void kernels::sddmmEllInto(const EllMatrix &Mask, const DenseMatrix &U,
                           const DenseMatrix &V, const Semiring &S,
                           std::span<float> Out) {
  GRANII_CHECK(Mask.rows() == U.rows(), "sddmm_ell left operand row mismatch");
  GRANII_CHECK(Mask.cols() == V.rows(), "sddmm_ell right operand row mismatch");
  GRANII_CHECK(U.cols() == V.cols(), "sddmm_ell feature width mismatch");
  GRANII_CHECK(static_cast<int64_t>(Out.size()) == Mask.nnz(),
               "sddmm_ell destination length mismatch");
  const auto &Offsets = Mask.rowOffsets();
  const int64_t Width = U.cols();
  if (isPlusTimes(S)) {
    const SimdOps &Ops = simdOps();
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      for (int64_t R = RowBegin; R < RowEnd; ++R) {
        const int64_t LocalOffsets[2] = {0, Mask.rowNnz(R)};
        Ops.SddmmDotRowRange(LocalOffsets, Mask.rowColsPtr(R), U.rowPtr(R),
                             Width, V.data(), Width, Out.data() + Offsets[R],
                             0, Width, /*FirstTile=*/true, 0, 1);
      }
    });
    return;
  }
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const float *URow = U.rowPtr(R);
      const int32_t *Cols = Mask.rowColsPtr(R);
      const int64_t Len = Mask.rowNnz(R);
      for (int64_t K = 0; K < Len; ++K)
        Out[static_cast<size_t>(Offsets[R] + K)] =
            generalSddmmEdge(S, URow, V.rowPtr(Cols[K]), Width);
    }
  });
}

void kernels::sddmmSellInto(const SellMatrix &Mask, const DenseMatrix &U,
                            const DenseMatrix &V, const Semiring &S,
                            std::span<float> Out) {
  GRANII_CHECK(Mask.rows() == U.rows(), "sddmm_sell left operand row mismatch");
  GRANII_CHECK(Mask.cols() == V.rows(),
               "sddmm_sell right operand row mismatch");
  GRANII_CHECK(U.cols() == V.cols(), "sddmm_sell feature width mismatch");
  GRANII_CHECK(static_cast<int64_t>(Out.size()) == Mask.nnz(),
               "sddmm_sell destination length mismatch");
  const auto &Offsets = Mask.rowOffsets();
  const int64_t Width = U.cols();
  if (isPlusTimes(S)) {
    const SimdOps &Ops = simdOps();
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      for (int64_t R = RowBegin; R < RowEnd; ++R) {
        const int64_t LocalOffsets[2] = {0, Mask.rowNnz(R)};
        Ops.SddmmDotRowRange(LocalOffsets, Mask.rowColsPtr(R), U.rowPtr(R),
                             Width, V.data(), Width, Out.data() + Offsets[R],
                             0, Width, /*FirstTile=*/true, 0, 1);
      }
    });
    return;
  }
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const float *URow = U.rowPtr(R);
      const int32_t *Cols = Mask.rowColsPtr(R);
      const int64_t Len = Mask.rowNnz(R);
      for (int64_t K = 0; K < Len; ++K)
        Out[static_cast<size_t>(Offsets[R] + K)] =
            generalSddmmEdge(S, URow, V.rowPtr(Cols[K]), Width);
    }
  });
}

void kernels::sddmmHybInto(const HybMatrix &Mask, const DenseMatrix &U,
                           const DenseMatrix &V, const Semiring &S,
                           std::span<float> Out) {
  GRANII_CHECK(Mask.rows() == U.rows(), "sddmm_hyb left operand row mismatch");
  GRANII_CHECK(Mask.cols() == V.rows(), "sddmm_hyb right operand row mismatch");
  GRANII_CHECK(U.cols() == V.cols(), "sddmm_hyb feature width mismatch");
  GRANII_CHECK(static_cast<int64_t>(Out.size()) == Mask.nnz(),
               "sddmm_hyb destination length mismatch");
  const auto &Offsets = Mask.rowOffsets();
  const auto &CooOffsets = Mask.cooRowOffsets();
  const auto &CooColIds = Mask.cooCols();
  const int64_t Width = U.cols();
  const int64_t EllWidth = Mask.ellWidth();
  if (isPlusTimes(S)) {
    // Per-edge dots are independent, so the two segments get their own
    // trampoline calls; both column segments are contiguous in storage.
    const SimdOps &Ops = simdOps();
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      for (int64_t R = RowBegin; R < RowEnd; ++R) {
        const int64_t Len = Mask.rowNnz(R);
        const int64_t EllLen = std::min(Len, EllWidth);
        const int64_t EllOffsets[2] = {0, EllLen};
        Ops.SddmmDotRowRange(EllOffsets, Mask.ellRowColsPtr(R), U.rowPtr(R),
                             Width, V.data(), Width, Out.data() + Offsets[R],
                             0, Width, /*FirstTile=*/true, 0, 1);
        const int64_t CooLen = Len - EllLen;
        if (CooLen > 0) {
          const int64_t CooLocal[2] = {0, CooLen};
          Ops.SddmmDotRowRange(CooLocal, CooColIds.data() + CooOffsets[R],
                               U.rowPtr(R), Width, V.data(), Width,
                               Out.data() + Offsets[R] + EllLen, 0, Width,
                               /*FirstTile=*/true, 0, 1);
        }
      }
    });
    return;
  }
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const float *URow = U.rowPtr(R);
      const int64_t Len = Mask.rowNnz(R);
      const int64_t EllLen = std::min(Len, EllWidth);
      const int32_t *Ell = Mask.ellRowColsPtr(R);
      const int32_t *Coo = CooColIds.data() + CooOffsets[R];
      for (int64_t K = 0; K < Len; ++K) {
        const int32_t Col = K < EllLen ? Ell[K] : Coo[K - EllLen];
        Out[static_cast<size_t>(Offsets[R] + K)] =
            generalSddmmEdge(S, URow, V.rowPtr(Col), Width);
      }
    }
  });
}
