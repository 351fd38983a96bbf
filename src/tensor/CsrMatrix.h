//===- CsrMatrix.h - Compressed sparse row matrix ---------------*- C++ -*-===//
///
/// \file
/// CSR sparse matrix used for graph adjacency and attention-score matrices.
/// A CSR matrix may be *unweighted* (all structural nonzeros are 1 and the
/// value array is empty), matching the paper's observation that unweighted
/// aggregation admits a cheaper g-SpMM.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_CSRMATRIX_H
#define GRANII_TENSOR_CSRMATRIX_H

#include "support/Aligned.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace granii {

class DenseMatrix;

/// A CSR matrix. If values().empty() the matrix is unweighted: every stored
/// position has the implicit value 1.0f.
///
/// Every matrix carries a content version (version()): each constructor
/// and each mutator — mutableValues(), setValues(), clearValues(),
/// assignPattern() — takes a fresh value from one process-wide counter,
/// while copies keep the version of their source. Caches derived from a
/// matrix key on (address, version), so an in-place edit at the same
/// address and size invalidates them. mutableValues() counts as an edit
/// when it is called, so hold its reference only for the edit itself.
class CsrMatrix {
public:
  CsrMatrix() : RowOffsets(1, 0), Version(freshVersion()) {}

  /// Builds a CSR matrix from components. \p Vals may be empty (unweighted)
  /// or have the same length as \p Cols.
  CsrMatrix(int64_t Rows, int64_t Columns, std::vector<int64_t> Offsets,
            std::vector<int32_t> Cols, std::vector<float> Vals);

  /// Builds a CSR matrix that takes over already-aligned component arrays
  /// without copying them (the graph builders fill these directly).
  static CsrMatrix adopt(int64_t Rows, int64_t Columns,
                         AlignedVector<int64_t> Offsets,
                         AlignedVector<int32_t> Cols,
                         AlignedVector<float> Vals);

  int64_t rows() const { return NumRows; }
  int64_t cols() const { return NumCols; }
  int64_t nnz() const { return static_cast<int64_t>(ColIndices.size()); }
  bool isWeighted() const { return !Values.empty(); }

  const AlignedVector<int64_t> &rowOffsets() const { return RowOffsets; }
  const AlignedVector<int32_t> &colIndices() const { return ColIndices; }
  const AlignedVector<float> &values() const { return Values; }
  AlignedVector<float> &mutableValues() {
    Version = freshVersion();
    return Values;
  }

  /// Content version; see the class comment.
  uint64_t version() const { return Version; }

  /// Number of stored entries in row \p R.
  int64_t rowNnz(int64_t R) const {
    assert(R >= 0 && R < NumRows && "row out of range");
    return RowOffsets[R + 1] - RowOffsets[R];
  }

  /// Value of the \p K-th stored entry (1.0 for unweighted matrices).
  float valueAt(int64_t K) const {
    return Values.empty() ? 1.0f : Values[static_cast<size_t>(K)];
  }

  /// Attaches \p Vals as explicit weights; size must equal nnz().
  void setValues(std::vector<float> Vals);

  /// \returns a copy of this matrix's pattern carrying \p Vals as its
  /// explicit weights (the by-value diagonal-scaling kernels build their
  /// results this way).
  CsrMatrix withValues(std::span<const float> Vals) const;

  /// Rebuilds this matrix in place as a weighted matrix with the given
  /// pattern, reusing existing storage capacity (assignment into the
  /// pattern arrays and a resize of the value array allocate nothing once
  /// capacity suffices — the workspace's persistent sparse intermediates
  /// rely on this). Value contents are unspecified afterwards; callers
  /// overwrite them through mutableValues().
  void assignPattern(int64_t Rows, int64_t Columns,
                     std::span<const int64_t> Offsets,
                     std::span<const int32_t> Cols);

  /// Drops explicit weights, making the matrix unweighted.
  void clearValues() {
    Values.clear();
    Version = freshVersion();
  }

  /// \returns a dense copy (small matrices only; used by tests).
  DenseMatrix toDense() const;

  /// \returns the transpose as a new CSR matrix (counting sort on columns).
  CsrMatrix transposed() const;

  /// Checks structural invariants (offset monotonicity, column bounds,
  /// sorted columns within each row). Aborts on violation.
  void verify() const;

private:
  /// The next value of the process-wide version counter.
  static uint64_t freshVersion();

  int64_t NumRows = 0;
  int64_t NumCols = 0;
  /// Cache-line-aligned arrays (support/Aligned.h) so the SIMD kernels can
  /// assume 64-byte-aligned bases. The construction paths copy into these;
  /// capacity reuse (assignPattern/setValues within capacity) never
  /// reallocates and therefore never loses the alignment.
  AlignedVector<int64_t> RowOffsets;
  AlignedVector<int32_t> ColIndices;
  AlignedVector<float> Values;
  uint64_t Version;
};

} // namespace granii

#endif // GRANII_TENSOR_CSRMATRIX_H
