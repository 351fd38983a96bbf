//===- ThreadPoolTests.cpp - Tests for the shared kernel thread pool --------===//
//
// Covers the pool's contracts: exclusive full-range coverage, exception
// propagation to the submitting thread, inline nested execution, runtime
// reconfiguration, and the nnz-balanced CSR row partitioner.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace granii;

namespace {

/// Pins the pool for one test and restores the default on destruction so
/// tests cannot leak configuration into each other.
class ScopedThreads {
public:
  explicit ScopedThreads(int Threads) {
    ThreadPool::get().setNumThreads(Threads);
  }
  ~ScopedThreads() { ThreadPool::get().setNumThreads(0); }
};

} // namespace

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ScopedThreads Scope(4);
  constexpr int64_t N = 10000;
  std::vector<int> Visits(N, 0);
  parallelFor(0, N, /*GrainSize=*/16, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      ++Visits[static_cast<size_t>(I)];
  });
  for (int64_t I = 0; I < N; ++I)
    ASSERT_EQ(Visits[static_cast<size_t>(I)], 1) << "index " << I;
}

TEST(ThreadPool, EmptyRangeNeverCallsBody) {
  ScopedThreads Scope(4);
  bool Called = false;
  parallelFor(5, 5, 1, [&](int64_t, int64_t) { Called = true; });
  parallelFor(7, 3, 1, [&](int64_t, int64_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(ThreadPool, ExceptionPropagatesToSubmitter) {
  ScopedThreads Scope(4);
  auto Run = [] {
    parallelFor(0, 1 << 16, 1, [](int64_t Begin, int64_t) {
      if (Begin == 0)
        throw std::runtime_error("boom");
    });
  };
  EXPECT_THROW(Run(), std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::vector<int> Visits(100, 0);
  parallelFor(0, 100, 1, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      ++Visits[static_cast<size_t>(I)];
  });
  EXPECT_EQ(std::accumulate(Visits.begin(), Visits.end(), 0), 100);
}

TEST(ThreadPool, NestedParallelForRunsInlineAndCompletes) {
  ScopedThreads Scope(4);
  constexpr int64_t Outer = 64, Inner = 64;
  std::vector<int> Visits(Outer * Inner, 0);
  parallelFor(0, Outer, 1, [&](int64_t OBegin, int64_t OEnd) {
    for (int64_t O = OBegin; O < OEnd; ++O)
      parallelFor(0, Inner, 1, [&](int64_t IBegin, int64_t IEnd) {
        for (int64_t I = IBegin; I < IEnd; ++I)
          ++Visits[static_cast<size_t>(O * Inner + I)];
      });
  });
  for (size_t I = 0; I < Visits.size(); ++I)
    ASSERT_EQ(Visits[I], 1) << "cell " << I;
}

TEST(ThreadPool, SetNumThreadsReconfigures) {
  ThreadPool &Pool = ThreadPool::get();
  Pool.setNumThreads(3);
  EXPECT_EQ(Pool.numThreads(), 3);
  Pool.setNumThreads(1);
  EXPECT_EQ(Pool.numThreads(), 1);
  // Work still runs correctly in the single-thread configuration.
  int64_t Sum = 0;
  parallelFor(0, 10, 1, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      Sum += I;
  });
  EXPECT_EQ(Sum, 45);
  Pool.setNumThreads(0);
  EXPECT_GE(Pool.numThreads(), 1);
}

TEST(ThreadPool, CsrRowPartitionCoversSkewedOffsets) {
  ScopedThreads Scope(4);
  // One hub row holding most of the nonzeros, then a long sparse tail —
  // the shape the nnz-balanced split exists for.
  constexpr int64_t Rows = 4000;
  std::vector<int64_t> Offsets(Rows + 1, 0);
  Offsets[1] = 6000; // hub row 0
  for (int64_t R = 1; R < Rows; ++R)
    Offsets[static_cast<size_t>(R) + 1] =
        Offsets[static_cast<size_t>(R)] + (R % 2); // alternating 1/0 tail
  std::vector<int> Visits(Rows, 0);
  parallelForCsrRows(Offsets, [&](int64_t Begin, int64_t End) {
    ASSERT_LT(Begin, End);
    for (int64_t R = Begin; R < End; ++R)
      ++Visits[static_cast<size_t>(R)];
  });
  for (int64_t R = 0; R < Rows; ++R)
    ASSERT_EQ(Visits[static_cast<size_t>(R)], 1) << "row " << R;
}

// The optimizer's schedule check verifies csrRowPartitionBounds at the
// pool's chunk count: the row ranges the kernels' loop runs must be exactly
// those bounds, at one thread and at several.
TEST(ThreadPool, CsrRowLoopRunsThePartitionTheScheduleCheckVerifies) {
  constexpr int64_t Rows = 5000;
  std::vector<int64_t> Offsets(Rows + 1, 0);
  for (size_t R = 0; R < static_cast<size_t>(Rows); ++R)
    Offsets[R + 1] = Offsets[R] + 1 + static_cast<int64_t>(R * 7 % 13);
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(Threads) + " thread(s)");
    ScopedThreads Scope(Threads);
    // Each range's end, stored at its begin: ranges are disjoint, so no two
    // chunks write one slot.
    std::vector<int64_t> EndOf(Rows, -1);
    parallelForCsrRows(Offsets, [&](int64_t Begin, int64_t End) {
      EndOf[static_cast<size_t>(Begin)] = End;
    });
    std::vector<int64_t> Ran = {0};
    while (Ran.back() < Rows && EndOf[static_cast<size_t>(Ran.back())] >= 0)
      Ran.push_back(EndOf[static_cast<size_t>(Ran.back())]);
    size_t Recorded = 0;
    for (int64_t End : EndOf)
      Recorded += End >= 0 ? 1 : 0;
    EXPECT_EQ(Recorded, Ran.size() - 1);
    EXPECT_GT(Ran.size(), 2u) << "the matrix must split";
    EXPECT_EQ(Ran,
              csrRowPartitionBounds(Offsets, ThreadPool::get().maxChunks()));
  }
}

//===----------------------------------------------------------------------===//
// GRANII_NUM_THREADS / --threads parsing and clamping
//===----------------------------------------------------------------------===//

TEST(ParseThreadCount, AcceptsPlainAndPaddedIntegers) {
  std::string Warning;
  EXPECT_EQ(parseThreadCount("4", 0, &Warning), 4);
  EXPECT_TRUE(Warning.empty());
  EXPECT_EQ(parseThreadCount("  8\t", 0, &Warning), 8);
  EXPECT_TRUE(Warning.empty()) << Warning;
  EXPECT_EQ(parseThreadCount("1", 0, &Warning), 1);
  EXPECT_TRUE(Warning.empty()) << Warning;
}

TEST(ParseThreadCount, RejectsNonNumericWithFallback) {
  for (const char *Bad : {"", "   ", "abc", "4abc", "3x2", "1.5", "+4"}) {
    std::string Warning;
    EXPECT_EQ(parseThreadCount(Bad, 7, &Warning), 7) << "'" << Bad << "'";
    EXPECT_NE(Warning.find("not an integer"), std::string::npos)
        << "'" << Bad << "' produced: " << Warning;
  }
  // A clean parse must leave an existing warning untouched.
  std::string Warning = "prior";
  EXPECT_EQ(parseThreadCount("2", 0, &Warning), 2);
  EXPECT_EQ(Warning, "prior");
  // And the warning pointer is optional.
  EXPECT_EQ(parseThreadCount("junk", 3, nullptr), 3);
}

TEST(ParseThreadCount, ClampsOutOfRangeValues) {
  int Cap = maxConfigurableThreads();
  ASSERT_GE(Cap, 32);
  std::string Warning;
  EXPECT_EQ(parseThreadCount("0", 5, &Warning), 1);
  EXPECT_NE(Warning.find("clamping to 1"), std::string::npos) << Warning;
  Warning.clear();
  EXPECT_EQ(parseThreadCount("-5", 5, &Warning), 1);
  EXPECT_NE(Warning.find("clamping to 1"), std::string::npos) << Warning;
  Warning.clear();
  EXPECT_EQ(parseThreadCount("99999999", 5, &Warning), Cap);
  EXPECT_NE(Warning.find("exceeds the configurable maximum"),
            std::string::npos)
      << Warning;
  // Values past the integer range clamp by sign instead of wrapping.
  Warning.clear();
  EXPECT_EQ(parseThreadCount("99999999999999999999999", 5, &Warning), Cap);
  EXPECT_NE(Warning.find("clamping to " + std::to_string(Cap)),
            std::string::npos)
      << Warning;
  Warning.clear();
  EXPECT_EQ(parseThreadCount("-99999999999999999999999", 5, &Warning), 1);
  EXPECT_NE(Warning.find("clamping to 1"), std::string::npos) << Warning;
}

TEST(ThreadPool, CsrRowPartitionHandlesDegenerateShapes) {
  ScopedThreads Scope(4);
  // No rows at all.
  bool Called = false;
  parallelForCsrRows(std::vector<int64_t>{0},
                     [&](int64_t, int64_t) { Called = true; });
  EXPECT_FALSE(Called);
  // All-empty rows: covered once via the constant per-row cost term.
  std::vector<int64_t> Empty(1001, 0);
  std::atomic<int64_t> Covered{0};
  parallelForCsrRows(Empty, [&](int64_t Begin, int64_t End) {
    Covered += End - Begin;
  });
  EXPECT_EQ(Covered.load(), 1000);
}

TEST(ThreadPool, QuiesceDrainsAndPoolStaysUsable) {
  ScopedThreads Scope(4);
  std::atomic<int64_t> Sum{0};
  parallelFor(0, 1000, 1, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      Sum += I;
  });
  ThreadPool::get().quiesce();
  // Configuration survives the drain...
  EXPECT_EQ(ThreadPool::get().numThreads(), 4);
  // ...and the next loop lazily restarts the workers.
  std::atomic<int64_t> Sum2{0};
  parallelFor(0, 1000, 1, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      Sum2 += I;
  });
  EXPECT_EQ(Sum.load(), Sum2.load());
  EXPECT_EQ(Sum2.load(), 999 * 1000 / 2);
}

TEST(ThreadPool, QuiesceIsIdempotentAndSafeWhenIdle) {
  ScopedThreads Scope(3);
  // Never ran a job: nothing to drain, must not hang or crash.
  ThreadPool::get().quiesce();
  ThreadPool::get().quiesce();
  std::atomic<int64_t> Count{0};
  parallelFor(0, 64, 1,
              [&](int64_t Begin, int64_t End) { Count += End - Begin; });
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPool, QuiesceWaitsOutConcurrentSubmitters) {
  // The shutdown-race regression test (run under TSan in CI): quiesce()
  // takes the submit lock, so it cannot tear workers down while another
  // thread's parallelFor is mid-job or mid-(re)start.
  ScopedThreads Scope(4);
  std::atomic<bool> Stop{false};
  std::atomic<int64_t> Jobs{0};
  std::thread Submitter([&] {
    while (!Stop.load()) {
      std::atomic<int64_t> Local{0};
      parallelFor(0, 4096, 16, [&](int64_t Begin, int64_t End) {
        Local += End - Begin;
      });
      EXPECT_EQ(Local.load(), 4096);
      ++Jobs;
    }
  });
  // Keep draining until the submitter has demonstrably interleaved with at
  // least a handful of quiesce() calls.
  while (Jobs.load() < 5)
    ThreadPool::get().quiesce();
  Stop.store(true);
  Submitter.join();
  EXPECT_GE(Jobs.load(), 5);
}
