//===- CooMatrix.h - Coordinate-format sparse builder -----------*- C++ -*-===//
///
/// \file
/// COO triplet accumulator used while constructing graphs (generators,
/// samplers); finalized into CSR via toCsr(). The Matrix Market reader
/// collects its entries itself and calls the same CSR builder, buildCsr().
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_COOMATRIX_H
#define GRANII_TENSOR_COOMATRIX_H

#include "support/Aligned.h"

#include <cstdint>
#include <span>

namespace granii {

class CsrMatrix;

/// One stored coordinate, 0-based. Row and column interleave so that a
/// list of them is one allocation: freeing it returns its pages (two
/// equal-size arrays would leave the second in the mapping cache,
/// support/Aligned.h).
struct CooEntry {
  int32_t Row;
  int32_t Col;
};

/// Builds the CSR matrix of \p Entries with no global sort: one stable
/// counting sort by row, linear in entries + rows, then each row's columns
/// are ordered in place. That costs one pass over a row whose columns
/// arrive ascending (every row of a Matrix Market file stored in row- or
/// column-major order, mirrored or not) and a sort of only that row's
/// entries otherwise. If \p Mirror is true, every off-diagonal entry
/// (r, c) also stores (c, r), right where the scatter meets it. Duplicate
/// coordinates merge by addition in list order: entries a, b, c at one
/// coordinate store (a + b) + c. \p Values is either empty (the result
/// carries no value array: every structural nonzero means 1) or holds one
/// value per entry. Rows are counted, scattered and ordered in parallel on
/// the shared pool; the result does not depend on the thread count. The
/// per-part row counters of the parallel count are only allocated when
/// the entries outnumber the rows part by part, so they never exceed the
/// entry list (a dimension alone sizes nothing but the row offsets).
CsrMatrix buildCsr(int64_t Rows, int64_t Cols,
                   std::span<const CooEntry> Entries,
                   std::span<const float> Values, bool Mirror);

/// Triplet (row, col, value) accumulator. Duplicate coordinates are merged
/// by addition when converting to CSR. Both dimensions are limited to
/// INT32_MAX, the range of a CSR column index.
class CooMatrix {
public:
  CooMatrix(int64_t Rows, int64_t Cols);

  int64_t rows() const { return NumRows; }
  int64_t cols() const { return NumCols; }
  int64_t entryCount() const { return static_cast<int64_t>(Entries.size()); }

  /// Appends one entry; duplicates are allowed and merged later.
  void add(int64_t Row, int64_t Col, float Value = 1.0f);

  /// Appends both (Row, Col) and (Col, Row); used for undirected graphs.
  void addSymmetric(int64_t Row, int64_t Col, float Value = 1.0f);

  /// buildCsr() over the entries in insertion order. If \p Unweighted is
  /// true the CSR result carries no value array (all structural nonzeros
  /// mean 1).
  CsrMatrix toCsr(bool Unweighted = true) const;

private:
  int64_t NumRows;
  int64_t NumCols;
  AlignedVector<CooEntry> Entries;
  AlignedVector<float> Vals;
};

} // namespace granii

#endif // GRANII_TENSOR_COOMATRIX_H
