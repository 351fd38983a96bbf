//===- DenseMatrix.h - Row-major dense matrix -------------------*- C++ -*-===//
///
/// \file
/// Row-major single-precision dense matrix, the storage type for node
/// embeddings and learned weights throughout the library.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_DENSEMATRIX_H
#define GRANII_TENSOR_DENSEMATRIX_H

#include "support/Aligned.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace granii {

class Rng;

/// A row-major dense matrix of float. Rows() x cols() with contiguous
/// storage; an empty matrix has zero rows and columns.
class DenseMatrix {
public:
  DenseMatrix() = default;

  /// Creates a Rows x Cols matrix, zero-initialized.
  DenseMatrix(int64_t Rows, int64_t Cols)
      : NumRows(Rows), NumCols(Cols),
        Data(static_cast<size_t>(Rows * Cols), 0.0f) {
    assert(Rows >= 0 && Cols >= 0 && "negative matrix dimension");
  }

  int64_t rows() const { return NumRows; }
  int64_t cols() const { return NumCols; }
  int64_t size() const { return NumRows * NumCols; }
  bool empty() const { return Data.empty(); }

  float &at(int64_t R, int64_t C) {
    assert(R >= 0 && R < NumRows && C >= 0 && C < NumCols &&
           "dense index out of range");
    return Data[static_cast<size_t>(R * NumCols + C)];
  }
  float at(int64_t R, int64_t C) const {
    assert(R >= 0 && R < NumRows && C >= 0 && C < NumCols &&
           "dense index out of range");
    return Data[static_cast<size_t>(R * NumCols + C)];
  }

  /// Raw pointer to the first element of row \p R.
  float *rowPtr(int64_t R) {
    assert(R >= 0 && R < NumRows && "row out of range");
    return Data.data() + R * NumCols;
  }
  const float *rowPtr(int64_t R) const {
    assert(R >= 0 && R < NumRows && "row out of range");
    return Data.data() + R * NumCols;
  }

  float *data() {
    assert(isKernelAligned(Data.data()) && "dense storage lost alignment");
    return Data.data();
  }
  const float *data() const {
    assert(isKernelAligned(Data.data()) && "dense storage lost alignment");
    return Data.data();
  }

  /// Reshapes to Rows x Cols reusing the existing storage. No reallocation
  /// happens when capacityFloats() already covers the new size, which is
  /// how the runtime's buffer arena reuses one backing store for several
  /// differently-shaped values. Element contents are unspecified afterwards
  /// — grown storage is not zeroed; destination-passing kernels overwrite
  /// every element.
  void resize(int64_t Rows, int64_t Cols) {
    assert(Rows >= 0 && Cols >= 0 && "negative matrix dimension");
    NumRows = Rows;
    NumCols = Cols;
    Data.resize(static_cast<size_t>(Rows * Cols));
  }

  /// Preallocates backing storage for \p Count floats without changing the
  /// logical shape.
  void reserveFloats(size_t Count) { Data.reserve(Count); }

  /// Allocated capacity in floats (>= size()).
  size_t capacityFloats() const { return Data.capacity(); }

  /// Sets every element to \p Value.
  void fill(float Value);

  /// Fills with uniform random values in [Lo, Hi).
  void fillRandom(Rng &Generator, float Lo = -1.0f, float Hi = 1.0f);

  /// \returns the transpose as a new matrix.
  DenseMatrix transposed() const;

  /// \returns true if every element differs from \p Other by at most
  /// \p AbsTol + RelTol * |other element|.
  bool approxEquals(const DenseMatrix &Other, float AbsTol = 1e-4f,
                    float RelTol = 1e-4f) const;

  /// Maximum absolute elementwise difference against \p Other, which must
  /// have the same shape.
  float maxAbsDiff(const DenseMatrix &Other) const;

  /// Sum of all elements (double accumulation).
  double sum() const;

  /// Frobenius norm.
  double frobeniusNorm() const;

private:
  int64_t NumRows = 0;
  int64_t NumCols = 0;
  /// Cache-line-aligned backing store (support/Aligned.h): the SIMD kernels
  /// rely on data() starting on a 64-byte boundary. Still a std::vector, so
  /// resize() within capacity reuses (and never re-mis-aligns) the buffer;
  /// its allocator leaves grown elements unwritten, so growing a result
  /// costs no serial zero pass over memory the kernels then overwrite.
  std::vector<float, DefaultInitAllocator<float>> Data;
  static_assert(KernelAlignment % alignof(float) == 0,
                "kernel alignment must cover the element type");
};

} // namespace granii

#endif // GRANII_TENSOR_DENSEMATRIX_H
