//===- CooMatrix.cpp - Coordinate-format sparse builder -------------------===//

#include "tensor/CooMatrix.h"

#include "support/Error.h"
#include "tensor/CsrMatrix.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace granii;

CooMatrix::CooMatrix(int64_t Rows, int64_t Cols)
    : NumRows(Rows), NumCols(Cols) {
  constexpr int64_t Limit = std::numeric_limits<int32_t>::max();
  GRANII_CHECK(Rows >= 0 && Rows <= Limit && Cols >= 0 && Cols <= Limit,
               "COO dimensions must lie in [0, INT32_MAX]");
}

void CooMatrix::add(int64_t Row, int64_t Col, float Value) {
  assert(Row >= 0 && Row < NumRows && Col >= 0 && Col < NumCols &&
         "COO entry out of range");
  RowIdx.push_back(static_cast<int32_t>(Row));
  ColIdx.push_back(static_cast<int32_t>(Col));
  Vals.push_back(Value);
}

void CooMatrix::addSymmetric(int64_t Row, int64_t Col, float Value) {
  add(Row, Col, Value);
  if (Row != Col)
    add(Col, Row, Value);
}

namespace {

/// One weighted entry while its row is being ordered.
struct RowEntry {
  int32_t Col;
  float Val;
  size_t Pos; ///< index before ordering: ties keep insertion order
};

} // namespace

CsrMatrix CooMatrix::toCsr(bool Unweighted) const {
  const size_t Count = RowIdx.size();
  const bool Weighted = !Unweighted;

  // Stable counting sort by row: each row's entries keep insertion order.
  AlignedVector<int64_t> Offsets(static_cast<size_t>(NumRows) + 1, 0);
  for (int32_t R : RowIdx)
    ++Offsets[static_cast<size_t>(R) + 1];
  for (size_t R = 0; R < static_cast<size_t>(NumRows); ++R)
    Offsets[R + 1] += Offsets[R];
  AlignedVector<int32_t> Cols(Count);
  AlignedVector<float> Values(Weighted ? Count : 0);
  for (size_t I = 0; I < Count; ++I) {
    size_t Pos = static_cast<size_t>(Offsets[static_cast<size_t>(RowIdx[I])]++);
    Cols[Pos] = ColIdx[I];
    if (Weighted)
      Values[Pos] = Vals[I];
  }

  // Offsets[R] now holds row R's end. Per row: order the columns (already
  // ascending unless the entries arrived out of order), merge duplicates in
  // place, and restore Offsets[R] to the row's start.
  std::vector<RowEntry> Scratch;
  size_t Out = 0;
  size_t Begin = 0;
  for (size_t R = 0; R < static_cast<size_t>(NumRows); ++R) {
    size_t End = static_cast<size_t>(Offsets[R]);
    auto RowCols = Cols.begin();
    if (!std::is_sorted(RowCols + Begin, RowCols + End)) {
      if (!Weighted) {
        std::sort(RowCols + Begin, RowCols + End);
      } else {
        // (column, position) keys are unique, so this sort is stable.
        Scratch.clear();
        for (size_t K = Begin; K < End; ++K)
          Scratch.push_back({Cols[K], Values[K], K});
        std::sort(Scratch.begin(), Scratch.end(),
                  [](const RowEntry &A, const RowEntry &B) {
                    return A.Col != B.Col ? A.Col < B.Col : A.Pos < B.Pos;
                  });
        for (size_t K = Begin; K < End; ++K) {
          Cols[K] = Scratch[K - Begin].Col;
          Values[K] = Scratch[K - Begin].Val;
        }
      }
    }
    size_t RowOut = Out;
    for (size_t K = Begin; K < End; ++K) {
      if (Out > RowOut && Cols[Out - 1] == Cols[K]) {
        if (Weighted)
          Values[Out - 1] += Values[K];
        continue;
      }
      Cols[Out] = Cols[K];
      if (Weighted)
        Values[Out] = Values[K];
      ++Out;
    }
    Offsets[R] = static_cast<int64_t>(RowOut);
    Begin = End;
  }
  Offsets[static_cast<size_t>(NumRows)] = static_cast<int64_t>(Out);
  if (Out != Count) {
    Cols.resize(Out);
    Cols.shrink_to_fit();
    if (Weighted) {
      Values.resize(Out);
      Values.shrink_to_fit();
    }
  }
  return CsrMatrix::adopt(NumRows, NumCols, std::move(Offsets),
                          std::move(Cols), std::move(Values));
}
