//===- CooMatrix.h - Coordinate-format sparse builder -----------*- C++ -*-===//
///
/// \file
/// COO triplet accumulator used while constructing graphs (generators,
/// Matrix-Market reader, samplers); finalized into CSR via toCsr().
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_COOMATRIX_H
#define GRANII_TENSOR_COOMATRIX_H

#include <cstdint>
#include <vector>

namespace granii {

class CsrMatrix;

/// Triplet (row, col, value) accumulator. Duplicate coordinates are merged
/// by addition when converting to CSR. Both dimensions are limited to
/// INT32_MAX, the range of a CSR column index.
class CooMatrix {
public:
  CooMatrix(int64_t Rows, int64_t Cols);

  int64_t rows() const { return NumRows; }
  int64_t cols() const { return NumCols; }
  int64_t entryCount() const { return static_cast<int64_t>(RowIdx.size()); }

  /// Appends one entry; duplicates are allowed and merged later.
  void add(int64_t Row, int64_t Col, float Value = 1.0f);

  /// Appends both (Row, Col) and (Col, Row); used for undirected graphs.
  void addSymmetric(int64_t Row, int64_t Col, float Value = 1.0f);

  /// Converts to CSR with no global sort: one stable counting sort by row,
  /// linear in entries + rows, then each row's columns are ordered in
  /// place. That costs one pass over a row whose columns arrive ascending
  /// (every row of a Matrix Market file stored in row- or column-major
  /// order, mirrored or not) and a sort of only that row's entries
  /// otherwise. Duplicate coordinates merge by addition in insertion order:
  /// entries a, b, c at one coordinate store (a + b) + c. If \p Unweighted
  /// is true the CSR result carries no value array (all structural
  /// nonzeros mean 1).
  CsrMatrix toCsr(bool Unweighted = true) const;

private:
  int64_t NumRows;
  int64_t NumCols;
  std::vector<int32_t> RowIdx;
  std::vector<int32_t> ColIdx;
  std::vector<float> Vals;
};

} // namespace granii

#endif // GRANII_TENSOR_COOMATRIX_H
