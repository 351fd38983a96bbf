//===- Kernels.h - Sparse and dense matrix primitives -----------*- C++ -*-===//
///
/// \file
/// The primitive kernel layer: GEMM, SpMM (weighted or unweighted), SDDMM,
/// row/column broadcasts, diagonal scaling of sparse matrices, elementwise
/// ops, edge softmax, and the two degree-computation variants
/// (offset-difference vs edge-binning) whose cost difference drives the
/// paper's WiseGraph-on-dense-graphs results. All kernels are deterministic CPU code, parallelized over the
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

#include "kernels/Dispatch.h"
#include "tensor/CscMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"

#include <span>
#include <vector>

namespace granii {
namespace kernels {

//===----------------------------------------------------------------------===//
// Dense primitives
//===----------------------------------------------------------------------===//
//
// Every kernel has one entry point, the destination-passing
// `...Into(..., Dst)` form: it writes into a caller-provided, already-shaped
// destination, allocates nothing and fully overwrites every destination
// element. The runtime's buffer arena and the cost-model profiler both call
// exactly these. Destination shapes are GRANII_CHECK'd, so a mis-planned
// buffer aborts with a message instead of corrupting memory.

/// C = A * B (row-major GEMM) into \p Dst, which must already be
/// A.rows() x B.cols(). A non-null \p Epilogue (Dispatch.h) is applied to
/// each C row in registers before its store; each of its scale vectors has
/// one entry per row. Dst then holds, bit for bit, what gemmInto followed by
/// the epilogue's rowBroadcastMulInto / reluInto calls leaves.
void gemmInto(const DenseMatrix &A, const DenseMatrix &B, DenseMatrix &Dst,
              const RowEpilogue *Epilogue = nullptr);

/// C = A^T * B into \p Dst (A.cols() x B.cols()), stored as \p Mode says
/// (Dispatch.h's Store: written, or added into a gradient).
void gemmTransposedLhsInto(const DenseMatrix &A, const DenseMatrix &B,
                           DenseMatrix &Dst, Store Mode = Store::Write);

/// C = A * B^T into \p Dst (A.rows() x B.rows()), stored as \p Mode says.
void gemmTransposedRhsInto(const DenseMatrix &A, const DenseMatrix &B,
                           DenseMatrix &Dst, Store Mode = Store::Write);

/// y = A * x into \p Y, which must have A.rows() entries
/// (X.size() == A.cols()).
void gemvInto(const DenseMatrix &A, const std::vector<float> &X,
              std::vector<float> &Y);

/// out_ij = D[i] * H_ij into \p Dst (same shape as H), stored as \p Mode
/// says: the paper's row-broadcast primitive, Eq. (1). Each product is
/// rounded before it is added into Dst.
void rowBroadcastMulInto(const std::vector<float> &D, const DenseMatrix &H,
                         DenseMatrix &Dst, Store Mode = Store::Write);

/// out_ij = H_ij * D[j] into \p Dst (same shape as H), stored as \p Mode
/// says: the column variant used after update ops.
void colBroadcastMulInto(const DenseMatrix &H, const std::vector<float> &D,
                         DenseMatrix &Dst, Store Mode = Store::Write);

/// Elementwise sum into \p Dst (same shape as the operands).
void addMatricesInto(const DenseMatrix &A, const DenseMatrix &B,
                     DenseMatrix &Dst);

/// B += Alpha * A in place.
void axpyInto(float Alpha, const DenseMatrix &A, DenseMatrix &B);

/// Elementwise scale by a scalar into \p Dst (same shape as A).
void scaleMatrixInto(const DenseMatrix &A, float Alpha, DenseMatrix &Dst);

/// Elementwise ReLU into \p Dst (same shape as A).
void reluInto(const DenseMatrix &A, DenseMatrix &Dst);

//===----------------------------------------------------------------------===//
// Sparse primitives
//===----------------------------------------------------------------------===//
//
// SpMM's one mode is whether it reads edge values: \p Vals holds A's values
// in CSR edge order, or is empty for the unweighted sum, which adds the
// neighbour rows without a multiply. Passing A.values() of a pattern-only
// matrix is therefore the unweighted sum too.

/// SpMM into \p Dst, which must already be A.rows() x B.cols():
/// Out[i,:] = sum over the nonzeros a_ij of row i of Vals_ij * B[j,:], then
/// \p Epilogue's steps when it is non-null, as for gemmInto.
void spmmInto(const CsrMatrix &A, std::span<const float> Vals,
              const DenseMatrix &B, DenseMatrix &Dst,
              const RowEpilogue *Epilogue = nullptr);

/// Dst = A^T * B, the backward-pass aggregation, stored as \p Mode says:
/// walks the CSC columns of A directly. \p Vals holds A's edge values in CSR
/// edge order (empty = unweighted) and is gathered through the CSC entry
/// map, so the result is bitwise identical to spmmInto over A.transposed().
void spmmCscTransposedInto(const CscMatrix &A, std::span<const float> Vals,
                           const DenseMatrix &B, DenseMatrix &Dst,
                           Store Mode = Store::Write);

/// SDDMM into \p Out, which must have Mask.nnz() entries: per-edge dot
/// products at the mask's nonzeros, out_ij = U[i,:] . V[j,:], stored as
/// \p Mode says. \p V has the same number of columns as \p U; the mask's
/// existing values are ignored.
void sddmmInto(const CsrMatrix &Mask, const DenseMatrix &U,
               const DenseMatrix &V, std::span<float> Out,
               Store Mode = Store::Write);

/// Per-edge sum of two node scalars into \p Out (Mask.nnz() entries):
/// out_ij = SrcScore[i] + DstScore[j], the SDDMM(+, +) of GAT's attention
/// logits.
void sddmmAddScalarsInto(const CsrMatrix &Mask,
                         const std::vector<float> &SrcScore,
                         const std::vector<float> &DstScore,
                         std::span<float> Out);

/// Sparse diagonal scalings (special SDDMMs over diagonal operands). They
/// compute only the scaled value array over A's pattern: \p Vals holds the
/// operand's values a_ij in CSR edge order (empty = unweighted, every a_ij
/// 1), and \p OutVals, which must have A.nnz() entries and may not alias
/// \p Vals, receives the result's, so callers keep one pattern and rewrite
/// values in place.
/// OutVals = the values v_ij = D[i] * a_ij.
void scaleSparseRowsInto(const CsrMatrix &A, std::span<const float> Vals,
                         const std::vector<float> &D,
                         std::span<float> OutVals);
/// OutVals = the values v_ij = a_ij * D[j].
void scaleSparseColsInto(const CsrMatrix &A, std::span<const float> Vals,
                         const std::vector<float> &D,
                         std::span<float> OutVals);
/// OutVals = the values v_ij = L[i] * a_ij * R[j] (the fused ternary
/// normalization SDDMM of GCN's precompute composition, Eq. (3)).
void scaleSparseBothInto(const CsrMatrix &A, std::span<const float> Vals,
                         const std::vector<float> &L,
                         const std::vector<float> &R,
                         std::span<float> OutVals);

/// Row-wise softmax of a sparse matrix's edge values (GAT attention) into
/// \p Out; \p EdgeValues and \p Out have A.nnz() entries. \p Out may alias
/// \p EdgeValues: each row's maximum is read before any write to the row.
void edgeSoftmaxInto(const CsrMatrix &A, std::span<const float> EdgeValues,
                     std::span<float> Out);

/// Elementwise leaky ReLU over edge values into \p Out
/// (EdgeValues.size() entries).
void leakyReluEdgesInto(std::span<const float> EdgeValues,
                        float NegativeSlope, std::span<float> Out);

//===----------------------------------------------------------------------===//
// Backward-pass primitives
//===----------------------------------------------------------------------===//
//
// The backward pass sums each value's gradient over every step that reads
// it. These kernels add one contribution into an accumulator; with \p First
// set they ignore its prior contents and write what adding into a
// zero-filled accumulator leaves (0 + x, so a -0 contribution still lands as
// +0), which spares the fill. Each element keeps the serial loop's chain, so
// results are bitwise identical at every thread count.

/// Out[i] = Value for every element, in parallel.
void fill(float Value, std::span<float> Out);

/// Acc += Alpha * X over flat arrays of equal length, with axpyInto's
/// arithmetic at the active level.
void accumulateInto(float Alpha, std::span<const float> X,
                    std::span<float> Acc, bool First);

/// Acc += (Out > 0 ? Grad : 0) elementwise, the ReLU gradient applied to
/// \p Grad, accumulated without materializing it. \p Out is the ReLU's
/// output: every level computes max(x, 0) or x > 0 ? x : 0, which is > 0
/// exactly where x > 0 (NaN and -0 give +0), so its input need not be kept.
/// \p Acc may be \p Grad: each element is read before it is written.
void reluBackwardAccumulateInto(const DenseMatrix &Out,
                                const DenseMatrix &Grad, DenseMatrix &Acc,
                                bool First);

/// Acc[r] += the sum of row r's edge values in ascending edge order
/// (Mask.rows() entries): the gradient of an edge's source-node score.
void edgeRowSumInto(const CsrMatrix &Mask, std::span<const float> EdgeVals,
                    std::span<float> Acc, bool First);

/// Acc[c] += the sum of column c's edge values (Mask.cols() entries),
/// walked through \p MaskT, the CSC view of the mask, whose columns list
/// their entries in ascending CSR edge order: the same chain per column as
/// a scatter over the edges in order. The gradient of an edge's
/// destination-node score.
void edgeColSumInto(const CscMatrix &MaskT, std::span<const float> EdgeVals,
                    std::span<float> Acc, bool First);

/// DIn += Grad * (Pre > 0 ? 1 : NegativeSlope) per edge, the leaky ReLU's
/// gradient at its input \p Pre. An empty \p Pre (an unweighted input, all
/// ones edges) contributes nothing. \p DIn may be \p Grad: each element is
/// read before it is written.
void leakyReluEdgesBackwardInto(std::span<const float> Pre,
                                std::span<const float> Grad,
                                float NegativeSlope, std::span<float> DIn,
                                bool First);

/// DTheta += Grad * AVec^T, the attention GEMV's weight gradient: row r
/// adds Grad[r] * AVec, a row whose gradient is zero adds nothing (is
/// zero-filled when \p First), and each element rounds its product before
/// the add. Grad has DTheta.rows() entries, AVec DTheta.cols().
void attnThetaGradInto(std::span<const float> Grad,
                       std::span<const float> AVec, DenseMatrix &DTheta,
                       bool First);

/// DA += Theta^T * Grad, the attention vector's gradient: element c adds
/// Grad[r] * Theta[r][c] over Theta's rows in ascending order, each product
/// rounded before its add.
void attnVecGradInto(const DenseMatrix &Theta, std::span<const float> Grad,
                     std::span<float> DA, bool First);

/// DIn += Alpha * (Grad - <Alpha, Grad>_row) per edge, the row softmax's
/// gradient given its output values \p Alpha (A.nnz() entries, A's rows).
/// \p DIn may be \p Grad: a row's dot product reads the whole row first.
void edgeSoftmaxBackwardInto(const CsrMatrix &A,
                             std::span<const float> Alpha,
                             std::span<const float> Grad,
                             std::span<float> DIn, bool First);

//===----------------------------------------------------------------------===//
// Degree / normalization helpers
//===----------------------------------------------------------------------===//
//
// Each writes one entry per row of A (per entry of Degrees) into \p Out.

/// Out-degree of every row read directly from CSR offsets: O(N) work.
void degreeFromOffsetsInto(const CsrMatrix &A, std::vector<float> &Out);

/// Out-degree computed by binning every edge onto its endpoint (the
/// PyTorch-binning style the paper observed in WiseGraph): O(E) scattered
/// increments. Functionally identical to degreeFromOffsetsInto for row
/// degrees, but algorithmically the expensive path on dense graphs.
void degreeByBinningInto(const CsrMatrix &A, std::vector<float> &Out);

/// Elementwise x -> x > 0 ? 1/sqrt(x) : 0 used for symmetric normalization.
/// Zero-degree (isolated) nodes get coefficient 0, matching the dense
/// D^-1/2 A D^-1/2 reference where their rows/columns are all zero.
void invSqrtInto(const std::vector<float> &Degrees, std::vector<float> &Out);

/// Elementwise x -> x > 0 ? 1/x : 0 used for mean aggregation (GraphSAGE).
/// Zero-degree nodes aggregate nothing, so their coefficient is 0.
void invDegreeInto(const std::vector<float> &Degrees,
                   std::vector<float> &Out);

} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_KERNELS_H
