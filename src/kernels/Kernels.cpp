//===- Kernels.cpp - Sparse and dense matrix primitives --------------------===//
//
// Parallelization contract: every kernel partitions work so each thread
// owns a disjoint set of output rows (or output elements), and each output
// element's serial computation is independent of the partition. Results are
// therefore bitwise-identical at every thread count. Sparse row loops use
// the nnz-balanced partitioner (parallelForCsrRows) so skewed-degree graphs
// do not serialize on their hub rows.
//
// Destination-passing contract: the `...Into` forms hold the real kernel
// bodies, never allocate, and fully overwrite every destination element
// (rows that accumulate are zeroed inside the same parallel region first,
// preserving bitwise identity with the historical zero-initialized-alloc
// formulation). The by-value forms allocate a zeroed result and forward.
//
// ISA dispatch: the hot row routines (packed GEMM family, fused sum g-SpMM,
// plus-times SDDMM, and the elementwise map family) are fetched once per
// kernel call from the active SimdOps table (kernels/Dispatch.h) and invoked
// on whole row ranges inside the thread-pool partitions, so the indirect
// call never sits in an inner loop. Each table preserves the determinism
// contract above within its own ISA level; the general semiring paths below
// are shared scalar code and thus identical at every level.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "kernels/Dispatch.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace granii;
using namespace granii::kernels;

namespace {

/// Minimum scalar operations per chunk before a dense loop is dispatched to
/// the thread pool; below this the fork/join overhead dominates.
constexpr int64_t DenseGrainOps = int64_t{1} << 14;

/// Grain (rows per chunk) for a row loop doing \p WorkPerRow operations.
int64_t rowGrain(int64_t WorkPerRow) {
  return std::max<int64_t>(1, DenseGrainOps / std::max<int64_t>(WorkPerRow, 1));
}

/// Destination-shape precondition shared by the dense Into kernels.
void checkDenseDst(const DenseMatrix &Dst, int64_t Rows, int64_t Cols,
                   const char *Kernel) {
  GRANII_CHECK(Dst.rows() == Rows && Dst.cols() == Cols,
               std::string(Kernel) + " destination shape mismatch (have " +
                   std::to_string(Dst.rows()) + "x" +
                   std::to_string(Dst.cols()) + ", need " +
                   std::to_string(Rows) + "x" + std::to_string(Cols) + ")");
}

/// Destination-length precondition shared by the vector Into kernels.
void checkVecDst(std::span<const float> Out, size_t Size, const char *Kernel) {
  GRANII_CHECK(Out.size() == Size,
               std::string(Kernel) + " destination length mismatch (have " +
                   std::to_string(Out.size()) + ", need " +
                   std::to_string(Size) + ")");
}

/// Maps the fused sum-reduction cases onto the dispatch table's combine tag.
SpmmCombine spmmCombineFor(const Semiring &S) {
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

/// True for the semiring the dispatched SDDMM dot-product routine covers.
bool isPlusTimes(const Semiring &S) {
  return S.Reduce == ReduceOpKind::Sum && S.Combine == CombineOpKind::Mul;
}

} // namespace

// granii-noalloc-begin: gemmInto is the densest inner loop in the library;
// it writes only into the caller-provided destination.
void kernels::gemmInto(const DenseMatrix &A, const DenseMatrix &B,
                       DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.rows(), "gemm inner dimension mismatch");
  checkDenseDst(Dst, A.rows(), B.cols(), "gemm");
  const int64_t M = A.rows(), K = A.cols(), N = B.cols();
  // Output rows are partitioned across threads; each C row is written by
  // exactly one thread and zeroed (inside the row routine) right before
  // accumulation, so reused (stale) buffers behave exactly like fresh
  // zero-initialized ones.
  const SimdOps &Ops = simdOps();
  parallelFor(0, M, rowGrain(K * N), [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.GemmRowRange(A.data(), K, B.data(), N, Dst.data(), N, K, N, RowBegin,
                     RowEnd, /*Accumulate=*/false);
  });
}
// granii-noalloc-end

DenseMatrix kernels::gemm(const DenseMatrix &A, const DenseMatrix &B) {
  GRANII_CHECK(A.cols() == B.rows(), "gemm inner dimension mismatch");
  DenseMatrix C(A.rows(), B.cols());
  gemmInto(A, B, C);
  return C;
}

void kernels::gemmAccumulate(const DenseMatrix &A, const DenseMatrix &B,
                             DenseMatrix &C) {
  GRANII_CHECK(A.cols() == B.rows(), "gemm inner dimension mismatch");
  GRANII_CHECK(C.rows() == A.rows() && C.cols() == B.cols(),
               "gemm output shape mismatch");
  const int64_t M = A.rows(), K = A.cols(), N = B.cols();
  const SimdOps &Ops = simdOps();
  parallelFor(0, M, rowGrain(K * N), [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.GemmRowRange(A.data(), K, B.data(), N, C.data(), N, K, N, RowBegin,
                     RowEnd, /*Accumulate=*/true);
  });
}

void kernels::gemmTransposedLhsInto(const DenseMatrix &A, const DenseMatrix &B,
                                    DenseMatrix &Dst) {
  GRANII_CHECK(A.rows() == B.rows(), "A^T*B dimension mismatch");
  checkDenseDst(Dst, A.cols(), B.cols(), "gemm_t_lhs");
  const int64_t M = A.rows(), N = B.cols();
  // Parallel over *output* rows (columns of A): the scatter formulation
  // (outer loop over A's rows) would race on C. The per-output-row update
  // order over I is identical to the serial kernel, so results match
  // bitwise at every thread count.
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.cols(), rowGrain(M * N),
              [&](int64_t RowBegin, int64_t RowEnd) {
                Ops.GemmTLhsRowRange(A.data(), A.cols(), B.data(), N,
                                     Dst.data(), N, M, N, RowBegin, RowEnd);
              });
}

DenseMatrix kernels::gemmTransposedLhs(const DenseMatrix &A,
                                       const DenseMatrix &B) {
  GRANII_CHECK(A.rows() == B.rows(), "A^T*B dimension mismatch");
  DenseMatrix C(A.cols(), B.cols());
  gemmTransposedLhsInto(A, B, C);
  return C;
}

void kernels::gemmTransposedRhsInto(const DenseMatrix &A, const DenseMatrix &B,
                                    DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.cols(), "A*B^T dimension mismatch");
  checkDenseDst(Dst, A.rows(), B.rows(), "gemm_t_rhs");
  const int64_t K = A.cols(), N = B.rows();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.rows(), rowGrain(K * N),
              [&](int64_t RowBegin, int64_t RowEnd) {
                Ops.GemmTRhsRowRange(A.data(), K, B.data(), K, Dst.data(), N,
                                     K, N, RowBegin, RowEnd);
              });
}

DenseMatrix kernels::gemmTransposedRhs(const DenseMatrix &A,
                                       const DenseMatrix &B) {
  GRANII_CHECK(A.cols() == B.cols(), "A*B^T dimension mismatch");
  DenseMatrix C(A.rows(), B.rows());
  gemmTransposedRhsInto(A, B, C);
  return C;
}

void kernels::gemvInto(const DenseMatrix &A, const std::vector<float> &X,
                       std::vector<float> &Y) {
  GRANII_CHECK(static_cast<int64_t>(X.size()) == A.cols(),
               "gemv dimension mismatch");
  checkVecDst(Y, static_cast<size_t>(A.rows()), "gemv");
  parallelFor(0, A.rows(), rowGrain(A.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I) {
                  const float *Row = A.rowPtr(I);
                  float Acc = 0.0f;
                  for (int64_t J = 0; J < A.cols(); ++J)
                    Acc += Row[J] * X[static_cast<size_t>(J)];
                  Y[static_cast<size_t>(I)] = Acc;
                }
              });
}

std::vector<float> kernels::gemv(const DenseMatrix &A,
                                 const std::vector<float> &X) {
  GRANII_CHECK(static_cast<int64_t>(X.size()) == A.cols(),
               "gemv dimension mismatch");
  std::vector<float> Y(static_cast<size_t>(A.rows()), 0.0f);
  gemvInto(A, X, Y);
  return Y;
}

void kernels::rowBroadcastMulInto(const std::vector<float> &D,
                                  const DenseMatrix &H, DenseMatrix &Dst) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.rows(),
               "row broadcast length mismatch");
  checkDenseDst(Dst, H.rows(), H.cols(), "row_bcast");
  const SimdOps &Ops = simdOps();
  parallelFor(0, H.rows(), rowGrain(H.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I)
                  Ops.ScaleRange(D[static_cast<size_t>(I)], H.rowPtr(I),
                                 Dst.rowPtr(I), H.cols());
              });
}

DenseMatrix kernels::rowBroadcastMul(const std::vector<float> &D,
                                     const DenseMatrix &H) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.rows(),
               "row broadcast length mismatch");
  DenseMatrix Out(H.rows(), H.cols());
  rowBroadcastMulInto(D, H, Out);
  return Out;
}

void kernels::colBroadcastMulInto(const DenseMatrix &H,
                                  const std::vector<float> &D,
                                  DenseMatrix &Dst) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.cols(),
               "column broadcast length mismatch");
  checkDenseDst(Dst, H.rows(), H.cols(), "col_bcast");
  const SimdOps &Ops = simdOps();
  parallelFor(0, H.rows(), rowGrain(H.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I)
                  Ops.MulRange(H.rowPtr(I), D.data(), Dst.rowPtr(I),
                               H.cols());
              });
}

DenseMatrix kernels::colBroadcastMul(const DenseMatrix &H,
                                     const std::vector<float> &D) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.cols(),
               "column broadcast length mismatch");
  DenseMatrix Out(H.rows(), H.cols());
  colBroadcastMulInto(H, D, Out);
  return Out;
}

void kernels::addMatricesInto(const DenseMatrix &A, const DenseMatrix &B,
                              DenseMatrix &Dst) {
  GRANII_CHECK(A.rows() == B.rows() && A.cols() == B.cols(),
               "elementwise add shape mismatch");
  checkDenseDst(Dst, A.rows(), A.cols(), "add");
  const float *PA = A.data();
  const float *PB = B.data();
  float *PO = Dst.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.AddRange(PA + Begin, PB + Begin, PO + Begin, End - Begin);
  });
}

DenseMatrix kernels::addMatrices(const DenseMatrix &A, const DenseMatrix &B) {
  GRANII_CHECK(A.rows() == B.rows() && A.cols() == B.cols(),
               "elementwise add shape mismatch");
  DenseMatrix Out(A.rows(), A.cols());
  addMatricesInto(A, B, Out);
  return Out;
}

void kernels::axpyInto(float Alpha, const DenseMatrix &A, DenseMatrix &B) {
  GRANII_CHECK(A.rows() == B.rows() && A.cols() == B.cols(),
               "axpy shape mismatch");
  const float *PA = A.data();
  float *PB = B.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.AxpyRange(Alpha, PA + Begin, PB + Begin, End - Begin);
  });
}

void kernels::scaleMatrixInto(const DenseMatrix &A, float Alpha,
                              DenseMatrix &Dst) {
  checkDenseDst(Dst, A.rows(), A.cols(), "scale");
  const float *PA = A.data();
  float *PO = Dst.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.ScaleRange(Alpha, PA + Begin, PO + Begin, End - Begin);
  });
}

DenseMatrix kernels::scaleMatrix(const DenseMatrix &A, float Alpha) {
  DenseMatrix Out(A.rows(), A.cols());
  scaleMatrixInto(A, Alpha, Out);
  return Out;
}

void kernels::reluInto(const DenseMatrix &A, DenseMatrix &Dst) {
  checkDenseDst(Dst, A.rows(), A.cols(), "relu");
  const float *PA = A.data();
  float *PO = Dst.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.ReluRange(PA + Begin, PO + Begin, End - Begin);
  });
}

DenseMatrix kernels::relu(const DenseMatrix &A) {
  DenseMatrix Out(A.rows(), A.cols());
  reluInto(A, Out);
  return Out;
}

DenseMatrix kernels::leakyRelu(const DenseMatrix &A, float NegativeSlope) {
  DenseMatrix Out(A.rows(), A.cols());
  const float *PA = A.data();
  float *PO = Out.data();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      PO[I] = PA[I] > 0.0f ? PA[I] : NegativeSlope * PA[I];
  });
  return Out;
}

void kernels::reluBackwardInto(const DenseMatrix &Pre, const DenseMatrix &Grad,
                               DenseMatrix &Dst) {
  GRANII_CHECK(Pre.rows() == Grad.rows() && Pre.cols() == Grad.cols(),
               "relu backward shape mismatch");
  checkDenseDst(Dst, Pre.rows(), Pre.cols(), "relu_backward");
  const float *PP = Pre.data();
  const float *PG = Grad.data();
  float *PO = Dst.data();
  parallelFor(0, Pre.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      PO[I] = PP[I] > 0.0f ? PG[I] : 0.0f;
  });
}

DenseMatrix kernels::reluBackward(const DenseMatrix &Pre,
                                  const DenseMatrix &Grad) {
  GRANII_CHECK(Pre.rows() == Grad.rows() && Pre.cols() == Grad.cols(),
               "relu backward shape mismatch");
  DenseMatrix Out(Pre.rows(), Pre.cols());
  reluBackwardInto(Pre, Grad, Out);
  return Out;
}

// granii-noalloc-begin: the SpMM aggregation loops dominate steady-state
// GNN inference; both reduction paths must stay allocation-free.
void kernels::spmmInto(const CsrMatrix &A, const DenseMatrix &B,
                       const Semiring &S, DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.rows(), "spmm dimension mismatch");
  checkDenseDst(Dst, A.rows(), B.cols(), "spmm");
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  const auto &Vals = A.values();
  const int64_t NCols = B.cols();

  // Fast path: plus-times / plus-copy sum reductions fused over rows,
  // dispatched to the active ISA table.
  const bool SumLike =
      S.Reduce == ReduceOpKind::Sum || S.Reduce == ReduceOpKind::Mean;
  if (SumLike) {
    const SimdOps &Ops = simdOps();
    const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
    const SpmmCombine Combine = spmmCombineFor(S);
    const bool Mean = S.Reduce == ReduceOpKind::Mean;
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      Ops.SpmmRowRange(Offsets.data(), Cols.data(), ValsPtr, nullptr,
                       B.data(), NCols, Dst.data(), NCols, NCols, Combine,
                       Mean, RowBegin, RowEnd);
    });
    return;
  }

  // General (max/min) reduction path; shared scalar code at every ISA level.
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      float *Out = Dst.rowPtr(R);
      int64_t Begin = Offsets[static_cast<size_t>(R)];
      int64_t End = Offsets[static_cast<size_t>(R) + 1];
      bool Any = End > Begin;
      float Identity = S.reduceIdentity();
      for (int64_t J = 0; J < NCols; ++J)
        Out[J] = Any ? Identity : 0.0f;
      for (int64_t K = Begin; K < End; ++K) {
        int32_t Col = Cols[static_cast<size_t>(K)];
        float EdgeVal = A.valueAt(K);
        const float *Src = B.rowPtr(Col);
        for (int64_t J = 0; J < NCols; ++J)
          Out[J] = S.reduce(Out[J], S.combine(EdgeVal, Src[J]));
      }
    }
  });
}
// granii-noalloc-end

DenseMatrix kernels::spmm(const CsrMatrix &A, const DenseMatrix &B,
                          const Semiring &S) {
  GRANII_CHECK(A.cols() == B.rows(), "spmm dimension mismatch");
  DenseMatrix Out(A.rows(), B.cols());
  spmmInto(A, B, S, Out);
  return Out;
}

void kernels::spmmCscTransposedInto(const CscMatrix &A,
                                    std::span<const float> Vals,
                                    const DenseMatrix &B, const Semiring &S,
                                    DenseMatrix &Dst) {
  GRANII_CHECK(A.rows() == B.rows(), "spmm_csc_t dimension mismatch");
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == A.nnz(),
               "spmm_csc_t edge value count mismatch");
  checkDenseDst(Dst, A.cols(), B.cols(), "spmm_csc_t");
  const auto &ColOffsets = A.colOffsets();
  const auto &Rows = A.rowIndices();
  const auto &CsrIdx = A.csrIndices();
  const int64_t NCols = B.cols();
  if (S.Reduce == ReduceOpKind::Sum || S.Reduce == ReduceOpKind::Mean) {
    // Output row c is column c of the source; its entries come in ascending
    // source-row order — the entry order of transposed()'s row c — and the
    // value index gathers each entry's value through the CSC→CSR map, so
    // the dispatched CSR row routine computes the transpose-then-SpMM
    // result bitwise while touching the values in place.
    const SimdOps &Ops = simdOps();
    const SpmmCombine Combine = spmmCombineFor(S);
    const bool Mean = S.Reduce == ReduceOpKind::Mean;
    const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
    parallelForCsrRows(ColOffsets, [&](int64_t ColBegin, int64_t ColEnd) {
      Ops.SpmmRowRange(ColOffsets.data(), Rows.data(), ValsPtr, CsrIdx.data(),
                       B.data(), NCols, Dst.data(), NCols, NCols, Combine,
                       Mean, ColBegin, ColEnd);
    });
    return;
  }
  // General (max/min) reduction: the scalar path of spmmInto over the
  // transposed entries.
  parallelForCsrRows(ColOffsets, [&](int64_t ColBegin, int64_t ColEnd) {
    for (int64_t C = ColBegin; C < ColEnd; ++C) {
      float *Out = Dst.rowPtr(C);
      const int64_t Begin = ColOffsets[static_cast<size_t>(C)];
      const int64_t End = ColOffsets[static_cast<size_t>(C) + 1];
      const float Identity = S.reduceIdentity();
      for (int64_t J = 0; J < NCols; ++J)
        Out[J] = End > Begin ? Identity : 0.0f;
      for (int64_t K = Begin; K < End; ++K) {
        const size_t Idx = static_cast<size_t>(CsrIdx[static_cast<size_t>(K)]);
        const float EdgeVal = Vals.empty() ? 1.0f : Vals[Idx];
        const float *Src = B.rowPtr(Rows[static_cast<size_t>(K)]);
        for (int64_t J = 0; J < NCols; ++J)
          Out[J] = S.reduce(Out[J], S.combine(EdgeVal, Src[J]));
      }
    }
  });
}

// granii-noalloc-begin: SDDMM scores every masked edge each layer; the dot
// loops write straight into the caller's value span.
void kernels::sddmmInto(const CsrMatrix &Mask, const DenseMatrix &U,
                        const DenseMatrix &V, const Semiring &S,
                        std::span<float> Out) {
  GRANII_CHECK(Mask.rows() == U.rows(), "sddmm left operand row mismatch");
  GRANII_CHECK(Mask.cols() == V.rows(), "sddmm right operand row mismatch");
  GRANII_CHECK(U.cols() == V.cols(), "sddmm feature width mismatch");
  checkVecDst(Out, static_cast<size_t>(Mask.nnz()), "sddmm");
  const auto &Offsets = Mask.rowOffsets();
  const auto &Cols = Mask.colIndices();
  const int64_t Width = U.cols();
  if (isPlusTimes(S)) {
    const SimdOps &Ops = simdOps();
    parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
      Ops.SddmmDotRowRange(Offsets.data(), Cols.data(), U.data(), Width,
                           V.data(), Width, Out.data(), Width, RowBegin,
                           RowEnd);
    });
    return;
  }
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const float *URow = U.rowPtr(R);
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K) {
        const float *VRow = V.rowPtr(Cols[static_cast<size_t>(K)]);
        float Acc = S.reduceIdentity();
        for (int64_t J = 0; J < Width; ++J)
          Acc = S.reduce(Acc, S.combine(URow[J], VRow[J]));
        Out[static_cast<size_t>(K)] = Acc;
      }
    }
  });
}
// granii-noalloc-end

std::vector<float> kernels::sddmm(const CsrMatrix &Mask, const DenseMatrix &U,
                                  const DenseMatrix &V, const Semiring &S) {
  std::vector<float> Out(static_cast<size_t>(Mask.nnz()), 0.0f);
  sddmmInto(Mask, U, V, S, Out);
  return Out;
}

void kernels::sddmmAddScalarsInto(const CsrMatrix &Mask,
                                  const std::vector<float> &SrcScore,
                                  const std::vector<float> &DstScore,
                                  std::span<float> Out) {
  GRANII_CHECK(static_cast<int64_t>(SrcScore.size()) == Mask.rows(),
               "source score length mismatch");
  GRANII_CHECK(static_cast<int64_t>(DstScore.size()) == Mask.cols(),
               "destination score length mismatch");
  checkVecDst(Out, static_cast<size_t>(Mask.nnz()), "sddmm_add");
  const auto &Offsets = Mask.rowOffsets();
  const auto &Cols = Mask.colIndices();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      float SVal = SrcScore[static_cast<size_t>(R)];
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        Out[static_cast<size_t>(K)] =
            SVal + DstScore[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
    }
  });
}

std::vector<float> kernels::sddmmAddScalars(const CsrMatrix &Mask,
                                            const std::vector<float> &SrcScore,
                                            const std::vector<float> &DstScore) {
  std::vector<float> Out(static_cast<size_t>(Mask.nnz()), 0.0f);
  sddmmAddScalarsInto(Mask, SrcScore, DstScore, Out);
  return Out;
}

void kernels::scaleSparseRowsInto(const CsrMatrix &A,
                                  const std::vector<float> &D,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == A.rows(),
               "row scale length mismatch");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_row");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      float Scale = D[static_cast<size_t>(R)];
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        OutVals[static_cast<size_t>(K)] = Scale * A.valueAt(K);
    }
  });
}

CsrMatrix kernels::scaleSparseRows(const CsrMatrix &A,
                                   const std::vector<float> &D) {
  std::vector<float> Vals(static_cast<size_t>(A.nnz()));
  scaleSparseRowsInto(A, D, Vals);
  return A.withValues(Vals);
}

void kernels::scaleSparseColsInto(const CsrMatrix &A,
                                  const std::vector<float> &D,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == A.cols(),
               "column scale length mismatch");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_col");
  const auto &Cols = A.colIndices();
  // Row structure is irrelevant here; partition the flat edge array.
  parallelFor(0, A.nnz(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t K = Begin; K < End; ++K)
      OutVals[static_cast<size_t>(K)] =
          A.valueAt(K) * D[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
  });
}

CsrMatrix kernels::scaleSparseCols(const CsrMatrix &A,
                                   const std::vector<float> &D) {
  std::vector<float> Vals(static_cast<size_t>(A.nnz()));
  scaleSparseColsInto(A, D, Vals);
  return A.withValues(Vals);
}

void kernels::scaleSparseBothInto(const CsrMatrix &A,
                                  const std::vector<float> &L,
                                  const std::vector<float> &R,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(L.size()) == A.rows() &&
                   static_cast<int64_t>(R.size()) == A.cols(),
               "diagonal scale length mismatch");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_both");
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t Row = RowBegin; Row < RowEnd; ++Row) {
      float Left = L[static_cast<size_t>(Row)];
      for (int64_t K = Offsets[static_cast<size_t>(Row)];
           K < Offsets[static_cast<size_t>(Row) + 1]; ++K)
        OutVals[static_cast<size_t>(K)] =
            Left * A.valueAt(K) *
            R[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
    }
  });
}

CsrMatrix kernels::scaleSparseBoth(const CsrMatrix &A,
                                   const std::vector<float> &L,
                                   const std::vector<float> &R) {
  std::vector<float> Vals(static_cast<size_t>(A.nnz()));
  scaleSparseBothInto(A, L, R, Vals);
  return A.withValues(Vals);
}

void kernels::edgeSoftmaxInto(const CsrMatrix &A,
                              std::span<const float> EdgeValues,
                              std::span<float> Out) {
  GRANII_CHECK(static_cast<int64_t>(EdgeValues.size()) == A.nnz(),
               "edge value count mismatch");
  checkVecDst(Out, EdgeValues.size(), "edge_softmax");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      int64_t Begin = Offsets[static_cast<size_t>(R)];
      int64_t End = Offsets[static_cast<size_t>(R) + 1];
      if (Begin == End)
        continue;
      float Max = EdgeValues[static_cast<size_t>(Begin)];
      for (int64_t K = Begin + 1; K < End; ++K)
        Max = std::max(Max, EdgeValues[static_cast<size_t>(K)]);
      float Sum = 0.0f;
      for (int64_t K = Begin; K < End; ++K) {
        float E = std::exp(EdgeValues[static_cast<size_t>(K)] - Max);
        Out[static_cast<size_t>(K)] = E;
        Sum += E;
      }
      float Inv = 1.0f / Sum;
      for (int64_t K = Begin; K < End; ++K)
        Out[static_cast<size_t>(K)] *= Inv;
    }
  });
}

std::vector<float> kernels::edgeSoftmax(const CsrMatrix &A,
                                        std::span<const float> EdgeValues) {
  std::vector<float> Out(EdgeValues.size(), 0.0f);
  edgeSoftmaxInto(A, EdgeValues, Out);
  return Out;
}

void kernels::leakyReluEdgesInto(std::span<const float> EdgeValues,
                                 float NegativeSlope, std::span<float> Out) {
  checkVecDst(Out, EdgeValues.size(), "edge_leaky_relu");
  parallelFor(0, static_cast<int64_t>(EdgeValues.size()), DenseGrainOps,
              [&](int64_t Begin, int64_t End) {
                for (int64_t I = Begin; I < End; ++I)
                  Out[static_cast<size_t>(I)] =
                      EdgeValues[static_cast<size_t>(I)] > 0.0f
                          ? EdgeValues[static_cast<size_t>(I)]
                          : NegativeSlope * EdgeValues[static_cast<size_t>(I)];
              });
}

std::vector<float> kernels::leakyReluEdges(std::span<const float> EdgeValues,
                                           float NegativeSlope) {
  std::vector<float> Out(EdgeValues.size());
  leakyReluEdgesInto(EdgeValues, NegativeSlope, Out);
  return Out;
}

void kernels::degreeFromOffsetsInto(const CsrMatrix &A,
                                    std::vector<float> &Out) {
  checkVecDst(Out, static_cast<size_t>(A.rows()), "degree_off");
  const auto &Offsets = A.rowOffsets();
  parallelFor(0, A.rows(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t R = Begin; R < End; ++R)
      Out[static_cast<size_t>(R)] =
          static_cast<float>(Offsets[static_cast<size_t>(R) + 1] -
                             Offsets[static_cast<size_t>(R)]);
  });
}

std::vector<float> kernels::degreeFromOffsets(const CsrMatrix &A) {
  std::vector<float> Degrees(static_cast<size_t>(A.rows()), 0.0f);
  degreeFromOffsetsInto(A, Degrees);
  return Degrees;
}

void kernels::degreeByBinningInto(const CsrMatrix &A,
                                  std::vector<float> &Out) {
  // Binning formulation: walk every edge and increment its source bin, the
  // way a scatter-add (torch.bincount-style) kernel would. On a GPU these
  // increments contend atomically when few bins receive many edges; the
  // hardware models charge that contention. On CPU it is still O(E) versus
  // the O(N) offset-difference variant. Each row's bin is owned by the
  // thread covering that row, so no increments contend here; the owning
  // thread also zeroes its bins, so reused buffers match fresh ones.
  checkVecDst(Out, static_cast<size_t>(A.rows()), "degree_bin");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      Out[static_cast<size_t>(R)] = 0.0f;
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        Out[static_cast<size_t>(R)] += 1.0f;
    }
  });
}

std::vector<float> kernels::degreeByBinning(const CsrMatrix &A) {
  std::vector<float> Degrees(static_cast<size_t>(A.rows()), 0.0f);
  degreeByBinningInto(A, Degrees);
  return Degrees;
}

void kernels::invDegreeInto(const std::vector<float> &Degrees,
                            std::vector<float> &Out) {
  checkVecDst(Out, Degrees.size(), "inv_degree");
  for (size_t I = 0; I < Degrees.size(); ++I)
    Out[I] = Degrees[I] > 0.0f ? 1.0f / Degrees[I] : 0.0f;
}

std::vector<float> kernels::invDegree(const std::vector<float> &Degrees) {
  std::vector<float> Out(Degrees.size());
  invDegreeInto(Degrees, Out);
  return Out;
}

void kernels::invSqrtInto(const std::vector<float> &Degrees,
                          std::vector<float> &Out) {
  checkVecDst(Out, Degrees.size(), "inv_sqrt");
  for (size_t I = 0; I < Degrees.size(); ++I)
    Out[I] = Degrees[I] > 0.0f ? 1.0f / std::sqrt(Degrees[I]) : 0.0f;
}

std::vector<float> kernels::invSqrt(const std::vector<float> &Degrees) {
  std::vector<float> Out(Degrees.size());
  invSqrtInto(Degrees, Out);
  return Out;
}
