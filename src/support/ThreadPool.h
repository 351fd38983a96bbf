//===- ThreadPool.h - Shared worker pool for parallel kernels ---*- C++ -*-===//
///
/// \file
/// The process-wide worker pool behind the kernel library's parallel loops.
/// The pool is lazily initialized on first use; its size comes from the
/// GRANII_NUM_THREADS environment variable (falling back to the hardware
/// concurrency) unless overridden programmatically via setNumThreads(),
/// which is what `granii-cli --threads` and the bench harnesses call.
///
/// Determinism contract: parallelFor() partitions [Begin, End) into
/// contiguous, disjoint chunks with exclusive ownership — no index is
/// visited twice and chunks never overlap. Kernels that write only through
/// their assigned indices and keep each index's computation self-contained
/// therefore produce bitwise-identical results at every thread count
/// (including 1). Nested parallel calls from inside a worker run inline
/// (serial) instead of deadlocking the pool. Exceptions thrown by loop
/// bodies are captured and the first one is rethrown on the calling thread
/// once the loop has drained.
///
/// A loop allocates nothing: bodies are passed as non-owning FunctionRefs
/// (support/FunctionRef.h), invoked only while the call is running, and the
/// chunk boundaries are computed where they are used.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_THREADPOOL_H
#define GRANII_SUPPORT_THREADPOOL_H

#include "support/FunctionRef.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace granii {

/// Lazily-started shared thread pool. One job runs at a time; concurrent
/// submitters serialize. The calling thread always participates in the
/// work, so a pool configured for N threads runs N-1 workers.
class ThreadPool {
public:
  /// The process-wide pool instance.
  static ThreadPool &get();

  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Threads the pool will use (>= 1). Resolves GRANII_NUM_THREADS /
  /// hardware concurrency on first call. Lock-free once resolved, so loop
  /// bodies may call it while a job is in flight.
  int numThreads();

  /// The most chunks a parallel loop splits its range into: a small
  /// multiple of numThreads(), enough slack for dynamic load balancing
  /// without flooding the queue. parallelForCsrRows splits a large matrix
  /// into exactly this many, the partition the optimizer's schedule check
  /// verifies.
  int64_t maxChunks();

  /// Reconfigures the pool to \p NumThreads (<= 0 re-reads the default).
  /// Existing workers are joined; new ones start lazily on the next loop.
  void setNumThreads(int NumThreads);

  /// Drains the pool: waits for any in-flight parallel job (and any
  /// concurrent submitters queued behind it) to finish, then joins every
  /// worker thread. The configured thread count is kept, and the pool stays
  /// usable — the next parallel loop lazily restarts the workers — so this
  /// is a drain point, not a teardown: the serving daemon calls it after its
  /// last request so process exit never races a worker, and tests call it to
  /// assert that no job is left behind.
  void quiesce();

  /// Runs \p Body over contiguous disjoint subranges covering
  /// [Begin, End). \p GrainSize is the minimum indices per chunk; ranges
  /// at or below one grain (or nested calls) run inline on the caller.
  void parallelFor(int64_t Begin, int64_t End, int64_t GrainSize,
                   FunctionRef<void(int64_t, int64_t)> Body);

  /// Lower-level form: runs \p ChunkBody exactly once for every chunk
  /// index in [0, NumChunks). Used by partitioners that compute their own
  /// chunk boundaries (e.g. the nnz-balanced CSR row split).
  void parallelForChunks(int64_t NumChunks,
                         FunctionRef<void(int64_t)> ChunkBody);

private:
  ThreadPool() = default;

  /// Resolves the thread count and (re)starts the worker threads if the
  /// configuration changed.
  void ensureWorkers() GRANII_REQUIRES(SubmitMutex);
  void stopWorkers() GRANII_REQUIRES(SubmitMutex);
  void workerLoop();
  /// Claims and runs chunks until none remain. \p NumChunks is passed by
  /// value (snapshotted under JobMutex by the caller) so the hot claim loop
  /// never touches guarded members lock-free.
  void runChunks(const FunctionRef<void(int64_t)> *ChunkBody,
                 int64_t NumChunks);
  void finishChunk(int64_t NumChunks);
  void recordError();

  /// Serializes submitters and configuration changes. Always acquired
  /// before JobMutex (submission publishes the job under both).
  Mutex SubmitMutex GRANII_ACQUIRED_BEFORE(JobMutex){
      "ThreadPool::SubmitMutex"};
  /// Guards job hand-off state below.
  Mutex JobMutex{"ThreadPool::JobMutex"};
  CondVar WorkCv; ///< workers wait for a new generation
  CondVar DoneCv; ///< submitter waits for workers to drain
  std::vector<std::thread> Workers GRANII_GUARDED_BY(SubmitMutex);
  std::atomic<int> ConfiguredThreads{0}; ///< 0 = not yet resolved
  bool Stopping GRANII_GUARDED_BY(JobMutex) = false;

  // In-flight job; valid between submission and DoneCv signal. Completion
  // is tracked per chunk, not per worker: the submitter always claims
  // chunks itself, so the job finishes even if workers start too late to
  // observe the generation bump (they simply find no chunks left).
  uint64_t JobGeneration GRANII_GUARDED_BY(JobMutex) = 0;
  const FunctionRef<void(int64_t)> *JobBody GRANII_GUARDED_BY(JobMutex) =
      nullptr;
  int64_t JobNumChunks GRANII_GUARDED_BY(JobMutex) = 0;
  std::atomic<int64_t> NextChunk{0};
  std::atomic<int64_t> ChunksDone{0};
  /// Workers currently between waking for a job and returning to wait.
  /// Publishing a new job waits for this to reach 0 so a straggler can
  /// never claim fresh chunks against a stale body.
  int ActiveParticipants GRANII_GUARDED_BY(JobMutex) = 0;
  std::exception_ptr JobError GRANII_GUARDED_BY(JobMutex);
};

/// Convenience wrapper over ThreadPool::get().parallelFor().
void parallelFor(int64_t Begin, int64_t End, int64_t GrainSize,
                 FunctionRef<void(int64_t, int64_t)> Body);

/// Boundary \p Chunk (in [0, NumChunks]) of the nnz-balanced partition
/// parallelForCsrRows assigns to workers: the first row whose cumulative
/// cost (nonzeros before it plus a constant per-row term) reaches Chunk /
/// NumChunks of the total; 0 for chunk 0 and rows (= RowOffsets.size() - 1)
/// for the last. \p NumChunks is first clamped to [1, rows]. Each boundary
/// is computed on its own, so a loop needs no storage for them.
int64_t csrRowPartitionBound(std::span<const int64_t> RowOffsets,
                             int64_t NumChunks, int64_t Chunk);

/// All NumChunks + 1 boundaries of csrRowPartitionBound, non-decreasing.
/// Exposed so the verifier can statically check that the partition covers
/// each row exactly once (the kernels' race-freedom rests on that
/// exclusivity).
std::vector<int64_t> csrRowPartitionBounds(std::span<const int64_t> RowOffsets,
                                           int64_t NumChunks);

/// Load-balanced parallel loop over the rows of a CSR matrix described by
/// \p RowOffsets (size rows+1, last entry = nnz). Rows are split at equal
/// shares of *cumulative nonzeros* (plus a constant per-row term) via
/// csrRowPartitionBounds(), not at equal row counts, so skewed-degree
/// graphs do not leave one thread with all the hub rows. \p Body receives
/// exclusive [RowBegin, RowEnd) ranges.
void parallelForCsrRows(std::span<const int64_t> RowOffsets,
                        FunctionRef<void(int64_t, int64_t)> Body);

/// Upper bound accepted for a configured thread count. Deliberately far
/// above the hardware concurrency — oversubscription is a supported (and
/// CI-exercised) configuration — but low enough that a garbage value such
/// as "999999999" cannot exhaust process resources.
int maxConfigurableThreads();

/// Parses a thread-count string (GRANII_NUM_THREADS or --threads) with
/// clamping instead of undefined fallout: non-numeric or trailing-garbage
/// input yields \p Fallback, values below 1 clamp to 1, and values above
/// maxConfigurableThreads() (including out-of-range integers) clamp to that
/// cap. Whenever the returned count differs from a clean parse of \p Text,
/// \p Warning (if non-null) receives a one-line explanation; otherwise it
/// is left untouched.
int parseThreadCount(const std::string &Text, int Fallback,
                     std::string *Warning = nullptr);

} // namespace granii

#endif // GRANII_SUPPORT_THREADPOOL_H
