//===- CooMatrix.cpp - Coordinate-format sparse builder -------------------===//

#include "tensor/CooMatrix.h"

#include "support/Error.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "tensor/CsrMatrix.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <vector>

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
  Entries.push_back({static_cast<int32_t>(Row), static_cast<int32_t>(Col)});
  Vals.push_back(Value);
}

void CooMatrix::addSymmetric(int64_t Row, int64_t Col, float Value) {
  add(Row, Col, Value);
  if (Row != Col)
    add(Col, Row, Value);
}

CsrMatrix CooMatrix::toCsr(bool Unweighted) const {
  return buildCsr(NumRows, NumCols, Entries,
                  Unweighted ? std::span<const float>() : Vals,
                  /*Mirror=*/false);
}

namespace {

/// Fewest entries a part of the parallel count and scatter takes.
constexpr int64_t MinEntriesPerPart = int64_t{1} << 14;

/// Marks the end of a row that lost duplicates (no column is negative).
constexpr int32_t DroppedTail = -1;

/// One weighted entry while its row is being ordered.
struct RowEntry {
  int32_t Col;
  float Val;
  size_t Pos; ///< index before ordering: ties keep list order
};

/// Orders the columns of row [Begin, End) ascending, stably, and merges
/// duplicate columns by addition in order. A row that shrinks gets a
/// DroppedTail mark after its last kept entry. \returns whether it shrank.
bool orderRow(int32_t *Cols, float *Values, size_t Begin, size_t End,
              std::vector<RowEntry> &Scratch) {
  int32_t *RowCols = Cols + Begin, *RowEnd = Cols + End;
  // Strictly increasing already: the common case costs one read.
  if (std::adjacent_find(RowCols, RowEnd, std::greater_equal<int32_t>()) ==
      RowEnd)
    return false;
  if (!std::is_sorted(RowCols, RowEnd)) {
    if (!Values) {
      std::sort(RowCols, RowEnd);
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
  size_t Out = Begin;
  for (size_t K = Begin; K < End; ++K) {
    if (Out > Begin && Cols[Out - 1] == Cols[K]) {
      if (Values)
        Values[Out - 1] += Values[K];
      continue;
    }
    Cols[Out] = Cols[K];
    if (Values)
      Values[Out] = Values[K];
    ++Out;
  }
  if (Out == End)
    return false;
  Cols[Out] = DroppedTail;
  return true;
}

} // namespace

CsrMatrix granii::buildCsr(int64_t Rows, int64_t Cols,
                           std::span<const CooEntry> Entries,
                           std::span<const float> Values, bool Mirror) {
  assert((Values.empty() || Values.size() == Entries.size()) &&
         "one value per entry, or none");
  TraceSpan Span("csr-build", "graph");
  const size_t N = static_cast<size_t>(Rows);
  const int64_t Count = static_cast<int64_t>(Entries.size());
  const bool Weighted = !Values.empty();
  ThreadPool &Pool = ThreadPool::get();

  // Calls F(row, col, index) for every stored entry of [Begin, End) in list
  // order: an entry, then its mirror.
  auto ForEachStored = [&](int64_t Begin, int64_t End, auto &&F) {
    for (int64_t I = Begin; I < End; ++I) {
      CooEntry E = Entries[static_cast<size_t>(I)];
      F(E.Row, E.Col, I);
      if (Mirror && E.Row != E.Col)
        F(E.Col, E.Row, I);
    }
  };

  // Stable counting sort by row over contiguous parts of the list, each
  // with its own row counters: parts past one need as many entries as rows
  // apiece, so the counters never outgrow the list.
  const int64_t Parts = std::clamp<int64_t>(
      std::min(Count / MinEntriesPerPart, Count / std::max<int64_t>(Rows, 1)),
      1, Pool.numThreads());
  auto PartBegin = [&](int64_t P) { return Count * P / Parts; };
  AlignedVector<int64_t> Offsets(N + 1, 0);
  std::vector<int64_t, DefaultInitAllocator<int64_t>> Cursors;
  if (Parts == 1) {
    ForEachStored(0, Count, [&](int32_t R, int32_t, int64_t) {
      ++Offsets[static_cast<size_t>(R) + 1];
    });
  } else {
    Cursors.resize(static_cast<size_t>(Parts) * N);
    Pool.parallelForChunks(Parts, [&](int64_t P) {
      int64_t *Counts = Cursors.data() + static_cast<size_t>(P) * N;
      std::fill(Counts, Counts + N, 0);
      ForEachStored(PartBegin(P), PartBegin(P + 1),
                    [&](int32_t R, int32_t, int64_t) { ++Counts[R]; });
    });
    // Per row: each part's start within the row, and the row's length.
    parallelFor(0, Rows, 1 << 12, [&](int64_t Begin, int64_t End) {
      for (size_t R = static_cast<size_t>(Begin); R < static_cast<size_t>(End);
           ++R) {
        int64_t Sum = 0;
        for (size_t P = 0; P < static_cast<size_t>(Parts); ++P) {
          int64_t C = Cursors[P * N + R];
          Cursors[P * N + R] = Sum;
          Sum += C;
        }
        Offsets[R + 1] = Sum;
      }
    });
  }
  for (size_t R = 0; R < N; ++R)
    Offsets[R + 1] += Offsets[R];

  // Scatter: each part writes its entries at its cursors, in list order.
  const size_t Nnz = static_cast<size_t>(Offsets[N]);
  AlignedVector<int32_t> OutCols(Nnz);
  AlignedVector<float> OutValues(Weighted ? Nnz : 0);
  if (Parts == 1) {
    ForEachStored(0, Count, [&](int32_t R, int32_t C, int64_t I) {
      size_t Pos = static_cast<size_t>(Offsets[static_cast<size_t>(R)]++);
      OutCols[Pos] = C;
      if (Weighted)
        OutValues[Pos] = Values[static_cast<size_t>(I)];
    });
    // Offsets[R] advanced to row R's end, row R + 1's start.
    std::copy_backward(Offsets.begin(), Offsets.end() - 1, Offsets.end());
    Offsets[0] = 0;
  } else {
    Pool.parallelForChunks(Parts, [&](int64_t P) {
      int64_t *Cursor = Cursors.data() + static_cast<size_t>(P) * N;
      ForEachStored(PartBegin(P), PartBegin(P + 1),
                    [&](int32_t R, int32_t C, int64_t I) {
                      size_t Pos =
                          static_cast<size_t>(Offsets[R] + Cursor[R]++);
                      OutCols[Pos] = C;
                      if (Weighted)
                        OutValues[Pos] = Values[static_cast<size_t>(I)];
                    });
    });
    Cursors = decltype(Cursors)();
  }

  // Order and deduplicate each row in place, rows in parallel.
  std::atomic<bool> Shrunk{false};
  parallelForCsrRows(Offsets, [&](int64_t Begin, int64_t End) {
    std::vector<RowEntry> Scratch;
    bool Any = false;
    for (size_t R = static_cast<size_t>(Begin); R < static_cast<size_t>(End);
         ++R)
      Any |= orderRow(OutCols.data(), Weighted ? OutValues.data() : nullptr,
                      static_cast<size_t>(Offsets[R]),
                      static_cast<size_t>(Offsets[R + 1]), Scratch);
    if (Any)
      Shrunk.store(true, std::memory_order_relaxed);
  });
  if (Shrunk.load(std::memory_order_relaxed)) {
    // Close the gaps the merged duplicates left, row by row.
    size_t Out = 0, Begin = 0;
    for (size_t R = 0; R < N; ++R) {
      size_t End = static_cast<size_t>(Offsets[R + 1]);
      Offsets[R] = static_cast<int64_t>(Out);
      for (size_t K = Begin; K < End && OutCols[K] != DroppedTail; ++K, ++Out) {
        OutCols[Out] = OutCols[K];
        if (Weighted)
          OutValues[Out] = OutValues[K];
      }
      Begin = End;
    }
    Offsets[N] = static_cast<int64_t>(Out);
    OutCols.resize(Out);
    OutCols.shrink_to_fit();
    if (Weighted) {
      OutValues.resize(Out);
      OutValues.shrink_to_fit();
    }
  }
  Span.setArg("entries", static_cast<double>(Count));
  Span.setArg("nnz", static_cast<double>(OutCols.size()));
  Span.setArg("parts", static_cast<double>(Parts));
  return CsrMatrix::adopt(Rows, Cols, std::move(Offsets), std::move(OutCols),
                          std::move(OutValues));
}
