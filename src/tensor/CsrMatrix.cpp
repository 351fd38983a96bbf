//===- CsrMatrix.cpp - Compressed sparse row matrix -----------------------===//

#include "tensor/CsrMatrix.h"

#include "support/Error.h"
#include "support/ThreadPool.h"
#include "tensor/DenseMatrix.h"

#include <algorithm>
#include <atomic>

using namespace granii;

uint64_t CsrMatrix::freshVersion() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

CsrMatrix::CsrMatrix(int64_t Rows, int64_t Columns,
                     std::vector<int64_t> Offsets, std::vector<int32_t> Cols,
                     std::vector<float> Vals)
    : NumRows(Rows), NumCols(Columns),
      RowOffsets(Offsets.begin(), Offsets.end()),
      ColIndices(Cols.begin(), Cols.end()), Values(Vals.begin(), Vals.end()),
      Version(freshVersion()) {
  // The parameter vectors use the default allocator (keeping brace-list
  // construction ergonomic); their contents are copied into the aligned
  // members above.
  assert(RowOffsets.size() == static_cast<size_t>(Rows) + 1 &&
         "row offset array must have rows()+1 entries");
  assert((Values.empty() || Values.size() == ColIndices.size()) &&
         "value array must be empty or match nnz");
}

CsrMatrix CsrMatrix::adopt(int64_t Rows, int64_t Columns,
                           AlignedVector<int64_t> Offsets,
                           AlignedVector<int32_t> Cols,
                           AlignedVector<float> Vals) {
  assert(Offsets.size() == static_cast<size_t>(Rows) + 1 &&
         "row offset array must have rows()+1 entries");
  assert((Vals.empty() || Vals.size() == Cols.size()) &&
         "value array must be empty or match nnz");
  CsrMatrix Result;
  Result.NumRows = Rows;
  Result.NumCols = Columns;
  Result.RowOffsets = std::move(Offsets);
  Result.ColIndices = std::move(Cols);
  Result.Values = std::move(Vals);
  return Result;
}

void CsrMatrix::setValues(std::vector<float> Vals) {
  assert(Vals.size() == ColIndices.size() &&
         "value count must match structural nnz");
  Values.assign(Vals.begin(), Vals.end());
  Version = freshVersion();
}

void CsrMatrix::assignPattern(int64_t Rows, int64_t Columns,
                              std::span<const int64_t> Offsets,
                              std::span<const int32_t> Cols) {
  assert(Offsets.size() == static_cast<size_t>(Rows) + 1 &&
         "row offset array must have rows()+1 entries");
  NumRows = Rows;
  NumCols = Columns;
  RowOffsets.assign(Offsets.begin(), Offsets.end());
  ColIndices.assign(Cols.begin(), Cols.end());
  Values.resize(ColIndices.size());
  Version = freshVersion();
}

DenseMatrix CsrMatrix::toDense() const {
  DenseMatrix Result(NumRows, NumCols);
  for (int64_t R = 0; R < NumRows; ++R)
    for (int64_t K = RowOffsets[R]; K < RowOffsets[R + 1]; ++K)
      Result.at(R, ColIndices[static_cast<size_t>(K)]) += valueAt(K);
  return Result;
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<int64_t> OutOffsets(static_cast<size_t>(NumCols) + 1, 0);
  const int64_t Nnz = nnz();
  // Column-count histogram. Parallel path: each chunk of the edge array
  // builds a private histogram, then the histograms merge serially in chunk
  // order — deterministic counts (integer sums commute anyway) with no
  // shared increments. Only worth the per-chunk NumCols+1 allocations when
  // the edge array dominates the column count.
  ThreadPool &Pool = ThreadPool::get();
  int64_t NumChunks = std::min<int64_t>(Pool.numThreads(),
                                        Nnz / std::max<int64_t>(NumCols, 1));
  if (NumChunks > 1 && Nnz >= (int64_t{1} << 14)) {
    int64_t ChunkSize = (Nnz + NumChunks - 1) / NumChunks;
    std::vector<std::vector<int64_t>> Histograms(
        static_cast<size_t>(NumChunks));
    Pool.parallelForChunks(NumChunks, [&](int64_t Chunk) {
      std::vector<int64_t> &Hist = Histograms[static_cast<size_t>(Chunk)];
      Hist.assign(static_cast<size_t>(NumCols) + 1, 0);
      int64_t Begin = Chunk * ChunkSize;
      int64_t End = std::min(Nnz, Begin + ChunkSize);
      for (int64_t K = Begin; K < End; ++K)
        ++Hist[static_cast<size_t>(ColIndices[static_cast<size_t>(K)]) + 1];
    });
    for (const std::vector<int64_t> &Hist : Histograms)
      for (int64_t C = 0; C < NumCols; ++C)
        OutOffsets[static_cast<size_t>(C) + 1] +=
            Hist[static_cast<size_t>(C) + 1];
  } else {
    for (int32_t Col : ColIndices)
      ++OutOffsets[static_cast<size_t>(Col) + 1];
  }
  for (int64_t C = 0; C < NumCols; ++C)
    OutOffsets[static_cast<size_t>(C) + 1] += OutOffsets[static_cast<size_t>(C)];

  std::vector<int32_t> OutCols(ColIndices.size());
  std::vector<float> OutVals(Values.empty() ? 0 : ColIndices.size());
  std::vector<int64_t> Cursor(OutOffsets.begin(), OutOffsets.end() - 1);
  for (int64_t R = 0; R < NumRows; ++R) {
    for (int64_t K = RowOffsets[R]; K < RowOffsets[R + 1]; ++K) {
      int32_t Col = ColIndices[static_cast<size_t>(K)];
      int64_t Slot = Cursor[static_cast<size_t>(Col)]++;
      OutCols[static_cast<size_t>(Slot)] = static_cast<int32_t>(R);
      if (!Values.empty())
        OutVals[static_cast<size_t>(Slot)] = Values[static_cast<size_t>(K)];
    }
  }
  return CsrMatrix(NumCols, NumRows, std::move(OutOffsets), std::move(OutCols),
                   std::move(OutVals));
}

/// Rows per chunk of the parallel structure check.
static constexpr int64_t VerifyGrainRows = int64_t{1} << 12;

const char *CsrMatrix::rowFault(int64_t R) const {
  const int64_t Begin = RowOffsets[static_cast<size_t>(R)];
  const int64_t End = RowOffsets[static_cast<size_t>(R) + 1];
  if (Begin > End)
    return "CSR offsets not monotone";
  // Offsets beyond [0, nnz] belong to a matrix whose offsets fall somewhere
  // (an earlier or later row reports it); read only stored entries.
  const int64_t First = std::max<int64_t>(Begin, 0);
  const int64_t Last = std::min(End, nnz());
  for (int64_t K = First; K < Last; ++K) {
    int32_t Col = ColIndices[static_cast<size_t>(K)];
    if (Col < 0 || Col >= NumCols)
      return "CSR column index out of range";
    if (K > First && ColIndices[static_cast<size_t>(K - 1)] >= Col)
      return "CSR columns not strictly increasing within a row";
  }
  return nullptr;
}

void CsrMatrix::verify() const {
  if (RowOffsets.size() != static_cast<size_t>(NumRows) + 1)
    GRANII_FATAL("CSR offsets size mismatch");
  if (RowOffsets.front() != 0 ||
      RowOffsets.back() != static_cast<int64_t>(ColIndices.size()))
    GRANII_FATAL("CSR offsets must start at 0 and end at nnz");
  // Rows are checked in parallel; the lowest faulty row is the one
  // reported, as a serial scan in row order would. A chunk stops at its
  // first fault, or once a lower row is known to be faulty.
  std::atomic<int64_t> FirstFault{NumRows};
  parallelFor(0, NumRows, VerifyGrainRows, [&](int64_t Begin, int64_t End) {
    for (int64_t R = Begin;
         R < End && R < FirstFault.load(std::memory_order_relaxed); ++R) {
      if (!rowFault(R))
        continue;
      int64_t Seen = FirstFault.load(std::memory_order_relaxed);
      while (R < Seen &&
             !FirstFault.compare_exchange_weak(Seen, R,
                                               std::memory_order_relaxed))
        ;
      return;
    }
  });
  if (const int64_t R = FirstFault.load(); R < NumRows)
    GRANII_FATAL(rowFault(R));
  if (!Values.empty() && Values.size() != ColIndices.size())
    GRANII_FATAL("CSR value array size mismatch");
}
