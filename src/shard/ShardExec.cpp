//===- ShardExec.cpp - Sharded aggregation kernels -------------------------===//

#include "shard/ShardExec.h"

#include "kernels/Dispatch.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <cstring>

using namespace granii;
using namespace granii::shard;
using kernels::SimdOps;
using kernels::SpmmCombine;

namespace {

bool isSumLike(const Semiring &S) {
  return S.Reduce == ReduceOpKind::Sum || S.Reduce == ReduceOpKind::Mean;
}

/// Same mapping Kernels.cpp applies before handing a semiring to the
/// dispatch table.
SpmmCombine combineFor(const Semiring &S) {
  switch (S.Combine) {
  case CombineOpKind::Mul:
    return SpmmCombine::Mul;
  case CombineOpKind::CopyRhs:
    return SpmmCombine::CopyRhs;
  case CombineOpKind::Add:
    return SpmmCombine::Add;
  }
  return SpmmCombine::Mul;
}

size_t ensureStaging(std::vector<DenseMatrix> &Buffers,
                     std::vector<int64_t> &Caps, const ShardSet &Set,
                     int64_t Cols, bool Backward) {
  const size_t NumShards = static_cast<size_t>(Set.numShards());
  size_t Grown = 0;
  if (Buffers.size() != NumShards) {
    Buffers.assign(NumShards, DenseMatrix());
    Caps.assign(NumShards, 0);
    ++Grown;
  }
  for (size_t Shard = 0; Shard < NumShards; ++Shard) {
    const ShardBlockView &Blk = Set.blocks()[Shard];
    const int64_t Rows = static_cast<int64_t>(
        Backward ? Blk.GradReferenced.size() : Blk.Referenced.size());
    const int64_t Need = Rows * Cols;
    if (Need > Caps[Shard]) {
      Caps[Shard] = Need;
      ++Grown;
    }
    Buffers[Shard].resize(Rows, Cols);
  }
  return Grown;
}

} // namespace

size_t ShardStaging::ensureForward(const ShardSet &Set, int64_t Cols) {
  return ensureStaging(LocalB, CapB, Set, Cols, /*Backward=*/false);
}

size_t ShardStaging::ensureBackward(const ShardSet &Set, int64_t Cols) {
  return ensureStaging(LocalDY, CapDY, Set, Cols, /*Backward=*/true);
}

void granii::shard::shardedSpmmInto(const ShardSet &Set, ShardStaging &Stage,
                                    std::span<const float> Vals,
                                    const DenseMatrix &B, const Semiring &S,
                                    DenseMatrix &Dst) {
  const int64_t K = B.cols();
  GRANII_CHECK(B.rows() == Set.numNodes() && Dst.rows() == Set.numNodes() &&
                   Dst.cols() == K,
               "sharded spmm shape mismatch");
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Set.nnz(),
               "sharded spmm value array mismatch");
  Stage.ensureForward(Set, K); // no-op once warmed to this width
  const bool SumLike = isSumLike(S);
  const SpmmCombine Combine = combineFor(S);
  const bool Mean = S.Reduce == ReduceOpKind::Mean;
  const SimdOps &Ops = kernels::simdOps();
  const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
  const size_t RowBytes = static_cast<size_t>(K) * sizeof(float);

  // One chunk per shard: gather then compute inside the chunk, so with
  // several shards in flight one shard's halo gather (memory-bound)
  // overlaps another's row reductions. Nested kernel calls run inline per
  // the ThreadPool contract — no pool re-entry from inside a chunk.
  ThreadPool::get().parallelForChunks(
      Set.numShards(), [&](int64_t Shard) {
        const ShardBlockView &Blk = Set.blocks()[static_cast<size_t>(Shard)];
        DenseMatrix &LB = Stage.LocalB[static_cast<size_t>(Shard)];
        for (size_t Slot = 0; Slot < Blk.Referenced.size(); ++Slot)
          std::memcpy(LB.rowPtr(static_cast<int64_t>(Slot)),
                      B.rowPtr(Blk.Referenced[Slot]), RowBytes);
        const int64_t Owned = static_cast<int64_t>(Blk.OwnedRows.size());
        if (SumLike) {
          for (int64_t R = 0; R < Owned; ++R) {
            // The block's value window of row R is the row's contiguous
            // global segment; offsetting the base pointer lets the
            // dispatch kernel index it with the local offsets. Same trick
            // lands the destination row at its global position.
            const float *RowVals =
                ValsPtr ? ValsPtr + (Blk.ValBase[static_cast<size_t>(R)] -
                                     Blk.RowOffsets[static_cast<size_t>(R)])
                        : nullptr;
            float *DstBase =
                Dst.data() +
                (static_cast<int64_t>(Blk.OwnedRows[static_cast<size_t>(R)]) -
                 R) *
                    K;
            Ops.SpmmRowRange(Blk.RowOffsets.data(), Blk.LocalCols.data(),
                             RowVals, nullptr, LB.data(), K, DstBase, K, K,
                             Combine, Mean, R, R + 1);
          }
          return;
        }
        // General (max/min) reductions: the scalar order of
        // kernels::spmmInto, entry by entry in original CSR order.
        for (int64_t R = 0; R < Owned; ++R) {
          float *Out = Dst.rowPtr(Blk.OwnedRows[static_cast<size_t>(R)]);
          const int64_t Begin = Blk.RowOffsets[static_cast<size_t>(R)];
          const int64_t End = Blk.RowOffsets[static_cast<size_t>(R) + 1];
          const bool Any = End > Begin;
          const float Identity = S.reduceIdentity();
          for (int64_t J = 0; J < K; ++J)
            Out[J] = Any ? Identity : 0.0f;
          for (int64_t E = Begin; E < End; ++E) {
            const float EdgeVal =
                ValsPtr ? ValsPtr[Blk.ValBase[static_cast<size_t>(R)] +
                                  (E - Begin)]
                        : 1.0f;
            const float *Src =
                LB.rowPtr(Blk.LocalCols[static_cast<size_t>(E)]);
            for (int64_t J = 0; J < K; ++J)
              Out[J] = S.reduce(Out[J], S.combine(EdgeVal, Src[J]));
          }
        }
      });
}

void granii::shard::shardedSpmmCscTransposedInto(
    const ShardSet &Set, ShardStaging &Stage, std::span<const float> Vals,
    const DenseMatrix &DY, const Semiring &S, DenseMatrix &Dst) {
  const int64_t K = DY.cols();
  GRANII_CHECK(DY.rows() == Set.numNodes() && Dst.rows() == Set.numNodes() &&
                   Dst.cols() == K,
               "sharded spmm_csc_t shape mismatch");
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Set.nnz(),
               "sharded spmm_csc_t value array mismatch");
  GRANII_CHECK(isSumLike(S),
               "sharded spmm_csc_t supports sum/mean reductions only");
  Stage.ensureBackward(Set, K); // no-op once warmed to this width
  const SimdOps &Ops = kernels::simdOps();
  const SpmmCombine Combine = combineFor(S);
  const bool Mean = S.Reduce == ReduceOpKind::Mean;
  const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
  const size_t RowBytes = static_cast<size_t>(K) * sizeof(float);

  ThreadPool::get().parallelForChunks(
      Set.numShards(), [&](int64_t Shard) {
        const ShardBlockView &Blk = Set.blocks()[static_cast<size_t>(Shard)];
        DenseMatrix &LDY = Stage.LocalDY[static_cast<size_t>(Shard)];
        for (size_t Slot = 0; Slot < Blk.GradReferenced.size(); ++Slot)
          std::memcpy(LDY.rowPtr(static_cast<int64_t>(Slot)),
                      DY.rowPtr(Blk.GradReferenced[Slot]), RowBytes);
        const int64_t Owned = static_cast<int64_t>(Blk.OwnedCols.size());
        for (int64_t C = 0; C < Owned; ++C) {
          // Entries of this column arrive in ascending global-row order —
          // the entry order of the whole-graph CSC kernel — and gather
          // their values through the same CSC→CSR index, so the dispatch
          // kernel reproduces it bitwise. The destination row lands at its
          // global position as in the forward kernel.
          float *DstBase =
              Dst.data() +
              (static_cast<int64_t>(Blk.OwnedCols[static_cast<size_t>(C)]) -
               C) *
                  K;
          Ops.SpmmRowRange(Blk.ColOffsets.data(), Blk.RowSlots.data(),
                           ValsPtr, Blk.CsrIdx.data(), LDY.data(), K, DstBase,
                           K, K, Combine, Mean, C, C + 1);
        }
      });
}
