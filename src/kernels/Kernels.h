//===- Kernels.h - Sparse and dense matrix primitives -----------*- C++ -*-===//
///
/// \file
/// The primitive kernel layer: GEMM, g-SpMM, g-SDDMM, row/column broadcasts,
/// diagonal scaling of sparse matrices, elementwise ops, edge softmax, and
/// the two degree-computation variants (offset-difference vs edge-binning)
/// whose cost difference drives the paper's WiseGraph-on-dense-graphs
/// results. All kernels are deterministic CPU code, parallelized over the
/// shared thread pool (support/ThreadPool.h): threads own disjoint output
/// rows/elements and each output's serial computation is partition-
/// independent, so results are bitwise-identical at every thread count.
/// The hot inner loops run through the runtime ISA dispatch layer
/// (kernels/Dispatch.h): the determinism guarantee holds *within* each ISA
/// level; results may differ across levels (docs/SIMD.md).
/// The hardware models in src/hw derive per-device latencies for them.
///
/// Edge-value operands and destinations are taken as std::span so callers
/// can pass either plain std::vectors or the cache-line-aligned storage of
/// CsrMatrix (support/Aligned.h) without copies.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_KERNELS_H
#define GRANII_KERNELS_KERNELS_H

#include "tensor/CscMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"
#include "tensor/Semiring.h"

#include <span>
#include <vector>

namespace granii {
namespace kernels {

//===----------------------------------------------------------------------===//
// Dense primitives
//===----------------------------------------------------------------------===//
//
// Every dense-producing kernel comes in two forms: a destination-passing
// `...Into(..., Dst)` form that writes into a caller-provided, already-shaped
// destination (the runtime's buffer arena executes exclusively through
// these; they allocate nothing and fully overwrite every destination
// element), and a by-value convenience form that allocates the result and
// forwards to the Into form. Destination shapes are GRANII_CHECK'd, so a
// mis-planned buffer aborts with a message instead of corrupting memory.

/// C = A * B (row-major GEMM) into \p Dst, which must already be
/// A.rows() x B.cols().
void gemmInto(const DenseMatrix &A, const DenseMatrix &B, DenseMatrix &Dst);

/// C = A * B (row-major GEMM). Shapes must agree.
DenseMatrix gemm(const DenseMatrix &A, const DenseMatrix &B);

/// C += A * B into an existing output; \p C must be A.rows() x B.cols().
void gemmAccumulate(const DenseMatrix &A, const DenseMatrix &B,
                    DenseMatrix &C);

/// C = A^T * B into \p Dst (A.cols() x B.cols()).
void gemmTransposedLhsInto(const DenseMatrix &A, const DenseMatrix &B,
                           DenseMatrix &Dst);

/// C = A^T * B.
DenseMatrix gemmTransposedLhs(const DenseMatrix &A, const DenseMatrix &B);

/// C = A * B^T into \p Dst (A.rows() x B.rows()).
void gemmTransposedRhsInto(const DenseMatrix &A, const DenseMatrix &B,
                           DenseMatrix &Dst);

/// C = A * B^T.
DenseMatrix gemmTransposedRhs(const DenseMatrix &A, const DenseMatrix &B);

/// y = A * x into \p Y, which must have A.rows() entries.
void gemvInto(const DenseMatrix &A, const std::vector<float> &X,
              std::vector<float> &Y);

/// y = A * x for a dense matrix and vector (x.size() == A.cols()).
std::vector<float> gemv(const DenseMatrix &A, const std::vector<float> &X);

/// out_ij = D[i] * H_ij into \p Dst (same shape as H).
void rowBroadcastMulInto(const std::vector<float> &D, const DenseMatrix &H,
                         DenseMatrix &Dst);

/// out_ij = D[i] * H_ij (the paper's row-broadcast primitive, Eq. (1)).
DenseMatrix rowBroadcastMul(const std::vector<float> &D, const DenseMatrix &H);

/// out_ij = H_ij * D[j] into \p Dst (same shape as H).
void colBroadcastMulInto(const DenseMatrix &H, const std::vector<float> &D,
                         DenseMatrix &Dst);

/// out_ij = H_ij * D[j] (column variant used after update ops).
DenseMatrix colBroadcastMul(const DenseMatrix &H, const std::vector<float> &D);

/// Elementwise sum into \p Dst (same shape as the operands).
void addMatricesInto(const DenseMatrix &A, const DenseMatrix &B,
                     DenseMatrix &Dst);

/// Elementwise sum; shapes must match.
DenseMatrix addMatrices(const DenseMatrix &A, const DenseMatrix &B);

/// B += Alpha * A in place.
void axpyInto(float Alpha, const DenseMatrix &A, DenseMatrix &B);

/// Elementwise scale by a scalar into \p Dst (same shape as A).
void scaleMatrixInto(const DenseMatrix &A, float Alpha, DenseMatrix &Dst);

/// Elementwise scale by a scalar.
DenseMatrix scaleMatrix(const DenseMatrix &A, float Alpha);

/// Elementwise ReLU into \p Dst (same shape as A).
void reluInto(const DenseMatrix &A, DenseMatrix &Dst);

/// Elementwise ReLU.
DenseMatrix relu(const DenseMatrix &A);

/// Elementwise leaky ReLU with slope \p NegativeSlope for negative inputs.
DenseMatrix leakyRelu(const DenseMatrix &A, float NegativeSlope = 0.2f);

/// Derivative mask of ReLU at \p Pre applied to \p Grad into \p Dst.
void reluBackwardInto(const DenseMatrix &Pre, const DenseMatrix &Grad,
                      DenseMatrix &Dst);

/// Derivative mask of ReLU at \p Pre applied to \p Grad (backward helper).
DenseMatrix reluBackward(const DenseMatrix &Pre, const DenseMatrix &Grad);

//===----------------------------------------------------------------------===//
// Sparse primitives (generalized per paper §II-B)
//===----------------------------------------------------------------------===//

/// Generalized SpMM into \p Dst, which must already be A.rows() x B.cols().
void spmmInto(const CsrMatrix &A, const DenseMatrix &B, const Semiring &S,
              DenseMatrix &Dst);

/// Generalized SpMM: Out[i,:] = reduce_{j in N(i)} combine(a_ij, B[j,:]).
/// With Semiring::plusTimes() this is the standard weighted SpMM; with
/// Semiring::plusCopy() it is the cheaper unweighted aggregation.
DenseMatrix spmm(const CsrMatrix &A, const DenseMatrix &B,
                 const Semiring &S = Semiring::plusTimes());

/// Dst = A^T (x) B under \p S, the backward-pass aggregation: walks the CSC
/// columns of A directly. \p Vals holds A's edge values in CSR edge order
/// (empty = unweighted) and is gathered through the CSC entry map, so the
/// result is bitwise identical to spmmInto over A.transposed().
void spmmCscTransposedInto(const CscMatrix &A, std::span<const float> Vals,
                           const DenseMatrix &B, const Semiring &S,
                           DenseMatrix &Dst);

/// Generalized SDDMM producing per-edge values at the mask's nonzeros:
/// out_ij = combine over k of U[i,k] and V[j,k], reduced by \p S.Reduce
/// (dot product for plus-times). \p V has the same number of columns as
/// \p U; the mask's existing values are ignored.
std::vector<float> sddmm(const CsrMatrix &Mask, const DenseMatrix &U,
                         const DenseMatrix &V,
                         const Semiring &S = Semiring::plusTimes());

/// Generalized SDDMM into \p Out, which must have Mask.nnz() entries.
void sddmmInto(const CsrMatrix &Mask, const DenseMatrix &U,
               const DenseMatrix &V, const Semiring &S, std::span<float> Out);

/// Per-edge sum of two node scalars: out_ij = SrcScore[i] + DstScore[j]
/// (the SDDMM(+, +) used by GAT's attention logits).
std::vector<float> sddmmAddScalars(const CsrMatrix &Mask,
                                   const std::vector<float> &SrcScore,
                                   const std::vector<float> &DstScore);

/// Per-edge scalar sum into \p Out (Mask.nnz() entries).
void sddmmAddScalarsInto(const CsrMatrix &Mask,
                         const std::vector<float> &SrcScore,
                         const std::vector<float> &DstScore,
                         std::span<float> Out);

/// Sparse diagonal scalings (special SDDMMs over diagonal operands). The
/// Into forms compute only the scaled value array — the sparsity pattern is
/// unchanged, so arena-backed callers keep one pattern and rewrite values
/// in place; \p OutVals must have A.nnz() entries and may not alias
/// A.values().
/// returns A with values v_ij = D[i] * a_ij.
CsrMatrix scaleSparseRows(const CsrMatrix &A, const std::vector<float> &D);
void scaleSparseRowsInto(const CsrMatrix &A, const std::vector<float> &D,
                         std::span<float> OutVals);
/// returns A with values v_ij = a_ij * D[j].
CsrMatrix scaleSparseCols(const CsrMatrix &A, const std::vector<float> &D);
void scaleSparseColsInto(const CsrMatrix &A, const std::vector<float> &D,
                         std::span<float> OutVals);
/// returns A with values v_ij = L[i] * a_ij * R[j] (the fused ternary
/// normalization SDDMM of GCN's precompute composition, Eq. (3)).
CsrMatrix scaleSparseBoth(const CsrMatrix &A, const std::vector<float> &L,
                          const std::vector<float> &R);
void scaleSparseBothInto(const CsrMatrix &A, const std::vector<float> &L,
                         const std::vector<float> &R,
                         std::span<float> OutVals);

/// Row-wise softmax over a sparse matrix's edge values (GAT attention).
/// \p EdgeValues must have A.nnz() entries; returns normalized values.
std::vector<float> edgeSoftmax(const CsrMatrix &A,
                               std::span<const float> EdgeValues);

/// Row-wise softmax into \p Out (A.nnz() entries). \p Out may alias
/// \p EdgeValues: each row's maximum is read before any write to the row.
void edgeSoftmaxInto(const CsrMatrix &A, std::span<const float> EdgeValues,
                     std::span<float> Out);

/// Elementwise leaky ReLU over edge values.
std::vector<float> leakyReluEdges(std::span<const float> EdgeValues,
                                  float NegativeSlope = 0.2f);

/// Elementwise leaky ReLU into \p Out (EdgeValues.size() entries).
void leakyReluEdgesInto(std::span<const float> EdgeValues,
                        float NegativeSlope, std::span<float> Out);

//===----------------------------------------------------------------------===//
// Degree / normalization helpers
//===----------------------------------------------------------------------===//

/// Out-degree of every row read directly from CSR offsets: O(N) work.
std::vector<float> degreeFromOffsets(const CsrMatrix &A);
void degreeFromOffsetsInto(const CsrMatrix &A, std::vector<float> &Out);

/// Out-degree computed by binning every edge onto its endpoint (the
/// PyTorch-binning style the paper observed in WiseGraph): O(E) scattered
/// increments. Functionally identical to degreeFromOffsets for row degrees,
/// but algorithmically the expensive path on dense graphs.
std::vector<float> degreeByBinning(const CsrMatrix &A);
void degreeByBinningInto(const CsrMatrix &A, std::vector<float> &Out);

/// Elementwise x -> x > 0 ? 1/sqrt(x) : 0 used for symmetric normalization.
/// Zero-degree (isolated) nodes get coefficient 0, matching the dense
/// D^-1/2 A D^-1/2 reference where their rows/columns are all zero.
std::vector<float> invSqrt(const std::vector<float> &Degrees);
void invSqrtInto(const std::vector<float> &Degrees, std::vector<float> &Out);

/// Elementwise x -> x > 0 ? 1/x : 0 used for mean aggregation (GraphSAGE).
/// Zero-degree nodes aggregate nothing, so their coefficient is 0.
std::vector<float> invDegree(const std::vector<float> &Degrees);
void invDegreeInto(const std::vector<float> &Degrees,
                   std::vector<float> &Out);

} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_KERNELS_H
