//===- AllocationTests.cpp - Heap allocations of a warm execute -------------===//
//
// Replaces the global operator new with one that counts every call, then
// checks that a warm in-place Optimizer::execute allocates nothing on the
// heap at all: a GAT and a GCN call in training and in inference, each
// repeated on the same selection, parameters and result, at one and four
// threads.
// The workspace's own counter (Optimizer::execute's return value) sees only
// arena growth; this count also sees the thread pool's loop bodies and
// partitions, the input binding and every container the call touches.
//
// Builds with lock-order checks (every non-Release build type) record each
// mutex acquisition in a heap-allocated graph (support/LockRegistry.h), so
// there the warm-call tests skip themselves.
//
//===----------------------------------------------------------------------===//

#include "granii/Granii.h"
#include "graph/Generators.h"
#include "support/LockRegistry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace granii;

namespace {

std::atomic<uint64_t> HeapAllocations{0};

void *countedAlloc(std::size_t Size, std::size_t Align) {
  HeapAllocations.fetch_add(1, std::memory_order_relaxed);
  Size = Size ? Size : 1;
  void *P = Align <= alignof(std::max_align_t)
                ? std::malloc(Size)
                : std::aligned_alloc(Align, (Size + Align - 1) / Align * Align);
  if (!P)
    throw std::bad_alloc();
  return P;
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size, 0); }
void *operator new[](std::size_t Size) { return countedAlloc(Size, 0); }
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlloc(Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlloc(Size, static_cast<std::size_t>(Align));
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size, 0);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

/// Heap allocations of one warm in-place execute of \p Kind on a graph the
/// parallel kernels split across threads: the third call on one selection,
/// parameters and result (the first plans the arena and starts the pool's
/// workers).
uint64_t warmExecuteAllocations(ModelKind Kind, int64_t KIn, int64_t KOut,
                                bool Training, size_t &WorkspaceGrowth) {
  Graph G = makeRmat(3000, 40000, 0.57, 0.19, 0.19, 11, "rmat-3000");
  GnnModel Model = makeModel(Kind);
  AnalyticCostModel Cost(HardwareModel::byName("cpu"));
  Optimizer Opt(Model, OptimizerOptions(), &Cost);
  LayerParams Params = makeLayerParams(Model, G, KIn, KOut, 5);
  Selection Sel = Opt.select(G, KIn, KOut);
  ExecResult Result;
  Opt.execute(Sel, Params, Training, Result);
  Opt.execute(Sel, Params, Training, Result);
  const uint64_t Before = HeapAllocations.load();
  WorkspaceGrowth = Opt.execute(Sel, Params, Training, Result);
  return HeapAllocations.load() - Before;
}

struct ThreadCountGuard {
  int Entry = ThreadPool::get().numThreads();
  ~ThreadCountGuard() { ThreadPool::get().setNumThreads(Entry); }
};

} // namespace

TEST(HeapAllocations, CounterSeesOperatorNew) {
  const uint64_t Before = HeapAllocations.load();
  auto *P = new std::vector<float>(1000);
  delete P;
  EXPECT_EQ(HeapAllocations.load() - Before, 2u);
}

TEST(HeapAllocations, WarmGatTrainingExecuteAllocatesNothing) {
  if (lockOrderChecksEnabled())
    GTEST_SKIP() << "lock-order checks allocate per acquisition";
  ThreadCountGuard Guard;
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ThreadPool::get().setNumThreads(Threads);
    size_t Growth = 0;
    EXPECT_EQ(warmExecuteAllocations(ModelKind::GAT, 64, 128, true, Growth),
              0u);
    EXPECT_EQ(Growth, 0u);
  }
}

// GCN training fuses both of its chains and writes every gradient in place,
// the ReLU's over the seed's slot: still nothing allocated once warm.
TEST(HeapAllocations, WarmGcnTrainingExecuteAllocatesNothing) {
  if (lockOrderChecksEnabled())
    GTEST_SKIP() << "lock-order checks allocate per acquisition";
  ThreadCountGuard Guard;
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ThreadPool::get().setNumThreads(Threads);
    size_t Growth = 0;
    EXPECT_EQ(warmExecuteAllocations(ModelKind::GCN, 64, 128, true, Growth),
              0u);
    EXPECT_EQ(Growth, 0u);
  }
}

TEST(HeapAllocations, WarmGcnInferenceExecuteAllocatesNothing) {
  if (lockOrderChecksEnabled())
    GTEST_SKIP() << "lock-order checks allocate per acquisition";
  ThreadCountGuard Guard;
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ThreadPool::get().setNumThreads(Threads);
    size_t Growth = 0;
    EXPECT_EQ(warmExecuteAllocations(ModelKind::GCN, 128, 128, false, Growth),
              0u);
    EXPECT_EQ(Growth, 0u);
  }
}

// GAT inference places its edge arrays in the arena's shared slots, beside
// the dense values and node vectors: still nothing allocated once warm.
TEST(HeapAllocations, WarmGatInferenceExecuteAllocatesNothing) {
  if (lockOrderChecksEnabled())
    GTEST_SKIP() << "lock-order checks allocate per acquisition";
  ThreadCountGuard Guard;
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ThreadPool::get().setNumThreads(Threads);
    size_t Growth = 0;
    EXPECT_EQ(warmExecuteAllocations(ModelKind::GAT, 64, 128, false, Growth),
              0u);
    EXPECT_EQ(Growth, 0u);
  }
}
