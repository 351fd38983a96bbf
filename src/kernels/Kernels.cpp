//===- Kernels.cpp - Sparse and dense matrix primitives --------------------===//
//
// Parallelization contract: every kernel partitions work so each thread
// owns a disjoint set of output rows (or output elements), and each output
// element's serial computation is independent of the partition. Results are
// therefore bitwise-identical at every thread count. Sparse row loops use
// the nnz-balanced partitioner (parallelForCsrRows) so skewed-degree graphs
// do not serialize on their hub rows.
//
// Destination-passing contract: every kernel is an `...Into` form that
// never allocates and fully overwrites every destination element (rows that
// accumulate are zeroed inside the same parallel region first, preserving
// bitwise identity with the historical zero-initialized-alloc formulation).
// The backward-pass kernels are the exception by design: they add into
// their destination unless told it is the first contribution, and the
// kernels the backward pass shares with the forward one take a store mode
// (Dispatch.h's Store) that does the same.
//
// ISA dispatch: the hot row routines (packed GEMM family, SpMM, SDDMM, and
// the elementwise map family) are fetched once per kernel call from the
// active SimdOps table (kernels/Dispatch.h) and invoked on whole row ranges
// inside the thread-pool partitions, so the indirect call never sits in an
// inner loop. Each table preserves the determinism contract above within its
// own ISA level.
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

/// The epilogue a row routine applies to \p Dst's rows: null for none (or an
/// empty one), after checking each scale vector covers every row.
const RowEpilogue *rowEpilogue(const RowEpilogue *Epi, const DenseMatrix &Dst,
                               const char *Kernel) {
  if (!Epi || Epi->Count == 0)
    return nullptr;
  for (int O = 0; O < Epi->Count; ++O)
    GRANII_CHECK(Epi->Ops[O].Kind != RowEpilogue::OpKind::Scale ||
                     static_cast<int64_t>(Epi->Ops[O].Scale.size()) ==
                         Dst.rows(),
                 std::string(Kernel) + " epilogue scale length mismatch");
  return Epi;
}

/// The edge values an SpMM row routine reads: null for the unweighted sum
/// (no values), else one value per nonzero.
const float *spmmValues(std::span<const float> Vals, int64_t Nnz,
                        const char *Kernel) {
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Nnz,
               std::string(Kernel) + " edge value count mismatch");
  return Vals.empty() ? nullptr : Vals.data();
}

/// Floats per block of an element-wise result that is added into its
/// destination: the block is computed into L1 and added from there, so the
/// result never reaches memory as a buffer of its own.
constexpr int64_t FirstWriteBlock = 1024;

/// Stores the \p N results of an element-wise map as \p Mode says:
/// \p Map(J, Out, Len) writes results [J, J + Len) to Out, which is \p Dst
/// + J when they are written and otherwise an L1 block then added into Dst
/// by AxpyRange with alpha 1 (on zeros for Store::First), the arithmetic of
/// accumulateInto.
template <class Fn>
void storeMapped(const SimdOps &Ops, Store Mode, float *Dst, int64_t N,
                 Fn &&Map) {
  if (Mode == Store::Write) {
    Map(0, Dst, N);
    return;
  }
  alignas(KernelAlignment) float Block[FirstWriteBlock];
  for (int64_t J = 0; J < N; J += FirstWriteBlock) {
    const int64_t Len = std::min(FirstWriteBlock, N - J);
    Map(J, Block, Len);
    if (Mode == Store::First)
      std::fill_n(Dst + J, Len, 0.0f);
    Ops.AxpyRange(1.0f, Block, Dst + J, Len);
  }
}

/// A sparse operand's edge values as the element-wise sparse kernels read
/// them: one per nonzero, or none for an unweighted matrix, whose every
/// value is 1.
class EdgeValues {
public:
  EdgeValues(std::span<const float> Vals, int64_t Nnz, const char *Kernel)
      : Vals(spmmValues(Vals, Nnz, Kernel)) {}
  float operator[](int64_t K) const {
    return Vals ? Vals[static_cast<size_t>(K)] : 1.0f;
  }

private:
  const float *Vals;
};

} // namespace

// granii-noalloc-begin: gemmInto is the densest inner loop in the library;
// it writes only into the caller-provided destination.
void kernels::gemmInto(const DenseMatrix &A, const DenseMatrix &B,
                       DenseMatrix &Dst, const RowEpilogue *Epilogue) {
  GRANII_CHECK(A.cols() == B.rows(), "gemm inner dimension mismatch");
  checkDenseDst(Dst, A.rows(), B.cols(), "gemm");
  const RowEpilogue *Epi = rowEpilogue(Epilogue, Dst, "gemm");
  const int64_t M = A.rows(), K = A.cols(), N = B.cols();
  // Output rows are partitioned across threads; each C row is written by
  // exactly one thread and zeroed (inside the row routine) right before
  // accumulation, so reused (stale) buffers behave exactly like fresh
  // zero-initialized ones.
  const SimdOps &Ops = simdOps();
  parallelFor(0, M, rowGrain(K * N), [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.GemmRowRange(A.data(), K, B.data(), N, Dst.data(), N, K, N, RowBegin,
                     RowEnd, Epi);
  });
}
// granii-noalloc-end

void kernels::gemmTransposedLhsInto(const DenseMatrix &A, const DenseMatrix &B,
                                    DenseMatrix &Dst, Store Mode) {
  GRANII_CHECK(A.rows() == B.rows(), "A^T*B dimension mismatch");
  checkDenseDst(Dst, A.cols(), B.cols(), "gemm_t_lhs");
  const int64_t M = A.rows(), Rows = A.cols(), N = B.cols();
  // Parallel over *output* blocks: the scatter formulation (outer loop over
  // A's rows) would race on C. A chunk owns every C row of one column panel
  // of GemmTLhsPanelCols, so it streams its panel of B and all of A once (a
  // chunk of C rows alone would stream all of B). With fewer panels than
  // threads the rows split too, in whole register blocks. Each element's
  // update order over A's rows is the serial kernel's, so results match
  // bitwise at every thread count. A small product runs in one chunk.
  if (Rows == 0 || N == 0)
    return;
  const SimdOps &Ops = simdOps();
  const bool Small = Rows * M * N <= DenseGrainOps;
  const int64_t PanelCols = Small ? N : Ops.GemmTLhsPanelCols;
  const int64_t Panels = (N + PanelCols - 1) / PanelCols;
  const int64_t Blocks = (Rows + GemmRowBlock - 1) / GemmRowBlock;
  const int64_t Splits =
      Small ? 1
            : std::clamp<int64_t>(
                  (ThreadPool::get().numThreads() + Panels - 1) / Panels, 1,
                  Blocks);
  const int64_t SplitRows = (Blocks + Splits - 1) / Splits * GemmRowBlock;
  const int64_t RowChunks = (Rows + SplitRows - 1) / SplitRows;
  ThreadPool::get().parallelForChunks(Panels * RowChunks, [&](int64_t Chunk) {
    const int64_t J0 = Chunk / RowChunks * PanelCols;
    const int64_t R0 = Chunk % RowChunks * SplitRows;
    Ops.GemmTLhsRowRange(A.data(), Rows, B.data() + J0, N, Dst.data() + J0, N,
                         M, std::min(PanelCols, N - J0), R0,
                         std::min(Rows, R0 + SplitRows), Mode);
  });
}

void kernels::gemmTransposedRhsInto(const DenseMatrix &A, const DenseMatrix &B,
                                    DenseMatrix &Dst, Store Mode) {
  GRANII_CHECK(A.cols() == B.cols(), "A*B^T dimension mismatch");
  checkDenseDst(Dst, A.rows(), B.rows(), "gemm_t_rhs");
  const int64_t K = A.cols(), N = B.rows();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.rows(), rowGrain(K * N),
              [&](int64_t RowBegin, int64_t RowEnd) {
                Ops.GemmTRhsRowRange(A.data(), K, B.data(), K, Dst.data(), N,
                                     K, N, RowBegin, RowEnd, Mode);
              });
}

void kernels::gemvInto(const DenseMatrix &A, const std::vector<float> &X,
                       std::vector<float> &Y) {
  GRANII_CHECK(static_cast<int64_t>(X.size()) == A.cols(),
               "gemv dimension mismatch");
  checkVecDst(Y, static_cast<size_t>(A.rows()), "gemv");
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.rows(), rowGrain(A.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                Ops.GemvRowRange(A.data(), A.cols(), X.data(), Y.data(),
                                 A.cols(), RowBegin, RowEnd);
              });
}

void kernels::rowBroadcastMulInto(const std::vector<float> &D,
                                  const DenseMatrix &H, DenseMatrix &Dst,
                                  Store Mode) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.rows(),
               "row broadcast length mismatch");
  checkDenseDst(Dst, H.rows(), H.cols(), "row_bcast");
  const SimdOps &Ops = simdOps();
  parallelFor(0, H.rows(), rowGrain(H.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I)
                  storeMapped(
                      Ops, Mode, Dst.rowPtr(I), H.cols(),
                      [&](int64_t J, float *Out, int64_t Len) {
                        Ops.ScaleRange(D[static_cast<size_t>(I)],
                                       H.rowPtr(I) + J, Out, Len);
                      });
              });
}

void kernels::colBroadcastMulInto(const DenseMatrix &H,
                                  const std::vector<float> &D,
                                  DenseMatrix &Dst, Store Mode) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.cols(),
               "column broadcast length mismatch");
  checkDenseDst(Dst, H.rows(), H.cols(), "col_bcast");
  const SimdOps &Ops = simdOps();
  parallelFor(0, H.rows(), rowGrain(H.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I)
                  storeMapped(Ops, Mode, Dst.rowPtr(I), H.cols(),
                              [&](int64_t J, float *Out, int64_t Len) {
                                Ops.MulRange(H.rowPtr(I) + J, D.data() + J,
                                             Out, Len);
                              });
              });
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

void kernels::axpyInto(float Alpha, const DenseMatrix &A, DenseMatrix &B) {
  GRANII_CHECK(A.rows() == B.rows() && A.cols() == B.cols(),
               "axpy shape mismatch");
  accumulateInto(Alpha, {A.data(), static_cast<size_t>(A.size())},
                 {B.data(), static_cast<size_t>(B.size())}, /*First=*/false);
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

void kernels::reluInto(const DenseMatrix &A, DenseMatrix &Dst) {
  checkDenseDst(Dst, A.rows(), A.cols(), "relu");
  const float *PA = A.data();
  float *PO = Dst.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.ReluRange(PA + Begin, PO + Begin, End - Begin);
  });
}

// granii-noalloc-begin: the SpMM aggregation loop dominates steady-state
// GNN inference and must stay allocation-free.
void kernels::spmmInto(const CsrMatrix &A, std::span<const float> Vals,
                       const DenseMatrix &B, DenseMatrix &Dst,
                       const RowEpilogue *Epilogue) {
  GRANII_CHECK(A.cols() == B.rows(), "spmm dimension mismatch");
  const float *ValsPtr = spmmValues(Vals, A.nnz(), "spmm");
  checkDenseDst(Dst, A.rows(), B.cols(), "spmm");
  const RowEpilogue *Epi = rowEpilogue(Epilogue, Dst, "spmm");
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  const int64_t NCols = B.cols();
  const SimdOps &Ops = simdOps();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.SpmmRowRange(Offsets.data(), Cols.data(), ValsPtr, nullptr, B.data(),
                     NCols, Dst.data(), NCols, NCols, RowBegin, RowEnd, Epi,
                     Store::Write);
  });
}
// granii-noalloc-end

void kernels::spmmCscTransposedInto(const CscMatrix &A,
                                    std::span<const float> Vals,
                                    const DenseMatrix &B, DenseMatrix &Dst,
                                    Store Mode) {
  GRANII_CHECK(A.rows() == B.rows(), "spmm_csc_t dimension mismatch");
  const float *ValsPtr = spmmValues(Vals, A.nnz(), "spmm_csc_t");
  checkDenseDst(Dst, A.cols(), B.cols(), "spmm_csc_t");
  const auto &ColOffsets = A.colOffsets();
  const auto &Rows = A.rowIndices();
  const auto &CsrIdx = A.csrIndices();
  const int64_t NCols = B.cols();
  // Output row c is column c of the source; its entries come in ascending
  // source-row order — the entry order of transposed()'s row c — and the
  // value index gathers each entry's value through the CSC→CSR map, so the
  // dispatched CSR row routine computes the transpose-then-SpMM result
  // bitwise while touching the values in place.
  const SimdOps &Ops = simdOps();
  parallelForCsrRows(ColOffsets, [&](int64_t ColBegin, int64_t ColEnd) {
    Ops.SpmmRowRange(ColOffsets.data(), Rows.data(), ValsPtr, CsrIdx.data(),
                     B.data(), NCols, Dst.data(), NCols, NCols, ColBegin,
                     ColEnd, /*Epi=*/nullptr, Mode);
  });
}

// granii-noalloc-begin: SDDMM scores every masked edge each layer; the dot
// loops write straight into the caller's value span.
void kernels::sddmmInto(const CsrMatrix &Mask, const DenseMatrix &U,
                        const DenseMatrix &V, std::span<float> Out,
                        Store Mode) {
  GRANII_CHECK(Mask.rows() == U.rows(), "sddmm left operand row mismatch");
  GRANII_CHECK(Mask.cols() == V.rows(), "sddmm right operand row mismatch");
  GRANII_CHECK(U.cols() == V.cols(), "sddmm feature width mismatch");
  checkVecDst(Out, static_cast<size_t>(Mask.nnz()), "sddmm");
  const auto &Offsets = Mask.rowOffsets();
  const auto &Cols = Mask.colIndices();
  const int64_t Width = U.cols();
  const SimdOps &Ops = simdOps();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.SddmmDotRowRange(Offsets.data(), Cols.data(), U.data(), Width,
                         V.data(), Width, Out.data(), Width, RowBegin, RowEnd,
                         Mode);
  });
}
// granii-noalloc-end

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

void kernels::scaleSparseRowsInto(const CsrMatrix &A,
                                  std::span<const float> Vals,
                                  const std::vector<float> &D,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == A.rows(),
               "row scale length mismatch");
  const EdgeValues In(Vals, A.nnz(), "scale_row");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_row");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      float Scale = D[static_cast<size_t>(R)];
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        OutVals[static_cast<size_t>(K)] = Scale * In[K];
    }
  });
}

void kernels::scaleSparseColsInto(const CsrMatrix &A,
                                  std::span<const float> Vals,
                                  const std::vector<float> &D,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == A.cols(),
               "column scale length mismatch");
  const EdgeValues In(Vals, A.nnz(), "scale_col");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_col");
  const auto &Cols = A.colIndices();
  // Row structure is irrelevant here; partition the flat edge array.
  parallelFor(0, A.nnz(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t K = Begin; K < End; ++K)
      OutVals[static_cast<size_t>(K)] =
          In[K] * D[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
  });
}

void kernels::scaleSparseBothInto(const CsrMatrix &A,
                                  std::span<const float> Vals,
                                  const std::vector<float> &L,
                                  const std::vector<float> &R,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(L.size()) == A.rows() &&
                   static_cast<int64_t>(R.size()) == A.cols(),
               "diagonal scale length mismatch");
  const EdgeValues In(Vals, A.nnz(), "scale_both");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_both");
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t Row = RowBegin; Row < RowEnd; ++Row) {
      float Left = L[static_cast<size_t>(Row)];
      for (int64_t K = Offsets[static_cast<size_t>(Row)];
           K < Offsets[static_cast<size_t>(Row) + 1]; ++K)
        OutVals[static_cast<size_t>(K)] =
            Left * In[K] *
            R[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
    }
  });
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

void kernels::leakyReluEdgesInto(std::span<const float> EdgeValues,
                                 float NegativeSlope, std::span<float> Out) {
  checkVecDst(Out, EdgeValues.size(), "edge_leaky_relu");
  const SimdOps &Ops = simdOps();
  parallelFor(0, static_cast<int64_t>(EdgeValues.size()), DenseGrainOps,
              [&](int64_t Begin, int64_t End) {
                Ops.LeakyReluRange(NegativeSlope, EdgeValues.data() + Begin,
                                   Out.data() + Begin, End - Begin);
              });
}

//===----------------------------------------------------------------------===//
// Backward-pass primitives
//===----------------------------------------------------------------------===//

namespace {

/// Minimum multiply-adds per chunk of the parallel attention-gradient loops.
constexpr int64_t AttnGradGrainOps = int64_t{1} << 14;

/// Acc[0, N) = what Ops.AxpyRange leaves in zeros: the arithmetic of an
/// accumulation into a zero-filled destination, without a separate fill.
void axpyFirst(const SimdOps &Ops, float Alpha, const float *X, float *Acc,
               int64_t N) {
  for (int64_t B = 0; B < N; B += FirstWriteBlock) {
    const int64_t Len = std::min(FirstWriteBlock, N - B);
    std::fill_n(Acc + B, Len, 0.0f);
    Ops.AxpyRange(Alpha, X + B, Acc + B, Len);
  }
}

} // namespace

void kernels::fill(float Value, std::span<float> Out) {
  parallelFor(0, static_cast<int64_t>(Out.size()), DenseGrainOps,
              [&](int64_t Begin, int64_t End) {
                std::fill(Out.begin() + Begin, Out.begin() + End, Value);
              });
}

void kernels::accumulateInto(float Alpha, std::span<const float> X,
                             std::span<float> Acc, bool First) {
  checkVecDst(Acc, X.size(), "accumulate");
  const SimdOps &Ops = simdOps();
  parallelFor(0, static_cast<int64_t>(X.size()), DenseGrainOps,
              [&](int64_t Begin, int64_t End) {
                if (First)
                  axpyFirst(Ops, Alpha, X.data() + Begin, Acc.data() + Begin,
                            End - Begin);
                else
                  Ops.AxpyRange(Alpha, X.data() + Begin, Acc.data() + Begin,
                                End - Begin);
              });
}

void kernels::reluBackwardAccumulateInto(const DenseMatrix &Out,
                                         const DenseMatrix &Grad,
                                         DenseMatrix &Acc, bool First) {
  GRANII_CHECK(Out.rows() == Grad.rows() && Out.cols() == Grad.cols(),
               "relu backward shape mismatch");
  checkDenseDst(Acc, Out.rows(), Out.cols(), "relu_backward");
  const float *PO = Out.data();
  const float *PG = Grad.data();
  float *PA = Acc.data();
  const SimdOps &Ops = simdOps();
  // Each block's selection lives in L1 between the two table routines.
  parallelFor(0, Out.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    storeMapped(Ops, First ? Store::First : Store::Add, PA + Begin,
                End - Begin, [&](int64_t J, float *Sel, int64_t Len) {
                  Ops.ReluBackwardRange(PO + Begin + J, PG + Begin + J, Sel,
                                        Len);
                });
  });
}

void kernels::edgeRowSumInto(const CsrMatrix &Mask,
                             std::span<const float> EdgeVals,
                             std::span<float> Acc, bool First) {
  checkVecDst(EdgeVals, static_cast<size_t>(Mask.nnz()), "edge_row_sum");
  checkVecDst(Acc, static_cast<size_t>(Mask.rows()), "edge_row_sum");
  const auto &Offsets = Mask.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      float Sum = First ? 0.0f : Acc[static_cast<size_t>(R)];
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        Sum += EdgeVals[static_cast<size_t>(K)];
      Acc[static_cast<size_t>(R)] = Sum;
    }
  });
}

void kernels::edgeColSumInto(const CscMatrix &MaskT,
                             std::span<const float> EdgeVals,
                             std::span<float> Acc, bool First) {
  checkVecDst(EdgeVals, static_cast<size_t>(MaskT.nnz()), "edge_col_sum");
  checkVecDst(Acc, static_cast<size_t>(MaskT.cols()), "edge_col_sum");
  const auto &ColOffsets = MaskT.colOffsets();
  const auto &CsrIdx = MaskT.csrIndices();
  parallelForCsrRows(ColOffsets, [&](int64_t ColBegin, int64_t ColEnd) {
    for (int64_t C = ColBegin; C < ColEnd; ++C) {
      float Sum = First ? 0.0f : Acc[static_cast<size_t>(C)];
      for (int64_t K = ColOffsets[static_cast<size_t>(C)];
           K < ColOffsets[static_cast<size_t>(C) + 1]; ++K)
        Sum += EdgeVals[static_cast<size_t>(CsrIdx[static_cast<size_t>(K)])];
      Acc[static_cast<size_t>(C)] = Sum;
    }
  });
}

void kernels::leakyReluEdgesBackwardInto(std::span<const float> Pre,
                                         std::span<const float> Grad,
                                         float NegativeSlope,
                                         std::span<float> DIn, bool First) {
  if (Pre.empty()) {
    if (First)
      kernels::fill(0.0f, DIn);
    return;
  }
  checkVecDst(Grad, Pre.size(), "edge_leaky_relu_backward");
  checkVecDst(DIn, Pre.size(), "edge_leaky_relu_backward");
  const SimdOps &Ops = simdOps();
  parallelFor(0, static_cast<int64_t>(Pre.size()), DenseGrainOps,
              [&](int64_t Begin, int64_t End) {
                Ops.LeakyReluBackwardRange(NegativeSlope, Pre.data() + Begin,
                                           Grad.data() + Begin,
                                           DIn.data() + Begin, End - Begin,
                                           First);
              });
}

void kernels::attnThetaGradInto(std::span<const float> Grad,
                                std::span<const float> AVec,
                                DenseMatrix &DTheta, bool First) {
  checkVecDst(Grad, static_cast<size_t>(DTheta.rows()), "attn_theta_grad");
  checkVecDst(AVec, static_cast<size_t>(DTheta.cols()), "attn_theta_grad");
  const int64_t Cols = DTheta.cols();
  const SimdOps &Ops = simdOps();
  parallelFor(0, DTheta.rows(), AttnGradGrainOps / std::max<int64_t>(Cols, 1),
              [&](int64_t RowBegin, int64_t RowEnd) {
                Ops.AttnThetaGradRows(Grad.data(), AVec.data(), DTheta.data(),
                                      Cols, Cols, RowBegin, RowEnd, First);
              });
}

void kernels::attnVecGradInto(const DenseMatrix &Theta,
                              std::span<const float> Grad,
                              std::span<float> DA, bool First) {
  checkVecDst(Grad, static_cast<size_t>(Theta.rows()), "attn_vec_grad");
  checkVecDst(DA, static_cast<size_t>(Theta.cols()), "attn_vec_grad");
  const int64_t Rows = Theta.rows(), Cols = Theta.cols();
  // The threads split dA in whole cache lines, one chunk of them per
  // thread: each row pass then reads a thread's adjacent lines of the row
  // together, and no two threads write one line.
  const int64_t Blocks = (Cols + AttnGradColBlock - 1) / AttnGradColBlock;
  const int64_t BlockOps = std::max<int64_t>(Rows, 1) * AttnGradColBlock;
  const int64_t Grain =
      std::max(AttnGradGrainOps / BlockOps,
               Blocks / std::max(ThreadPool::get().numThreads(), 1));
  const SimdOps &Ops = simdOps();
  parallelFor(0, Blocks, Grain, [&](int64_t BlockBegin, int64_t BlockEnd) {
    Ops.AttnVecGradCols(Theta.data(), Cols, Rows, Grad.data(), DA.data(),
                        BlockBegin * AttnGradColBlock,
                        std::min(BlockEnd * AttnGradColBlock, Cols), First);
  });
}

void kernels::edgeSoftmaxBackwardInto(const CsrMatrix &A,
                                      std::span<const float> Alpha,
                                      std::span<const float> Grad,
                                      std::span<float> DIn, bool First) {
  const auto Nnz = static_cast<size_t>(A.nnz());
  checkVecDst(Alpha, Nnz, "edge_softmax_backward");
  checkVecDst(Grad, Nnz, "edge_softmax_backward");
  checkVecDst(DIn, Nnz, "edge_softmax_backward");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      const auto Begin = static_cast<size_t>(Offsets[static_cast<size_t>(R)]);
      const auto End = static_cast<size_t>(Offsets[static_cast<size_t>(R) + 1]);
      float Dot = 0.0f;
      for (size_t K = Begin; K < End; ++K)
        Dot += Alpha[K] * Grad[K];
      for (size_t K = Begin; K < End; ++K)
        DIn[K] = (First ? 0.0f : DIn[K]) + Alpha[K] * (Grad[K] - Dot);
    }
  });
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

void kernels::invDegreeInto(const std::vector<float> &Degrees,
                            std::vector<float> &Out) {
  checkVecDst(Out, Degrees.size(), "inv_degree");
  for (size_t I = 0; I < Degrees.size(); ++I)
    Out[I] = Degrees[I] > 0.0f ? 1.0f / Degrees[I] : 0.0f;
}

void kernels::invSqrtInto(const std::vector<float> &Degrees,
                          std::vector<float> &Out) {
  checkVecDst(Out, Degrees.size(), "inv_sqrt");
  for (size_t I = 0; I < Degrees.size(); ++I)
    Out[I] = Degrees[I] > 0.0f ? 1.0f / std::sqrt(Degrees[I]) : 0.0f;
}
