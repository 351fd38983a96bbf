//===- ThreadPool.cpp - Shared worker pool for parallel kernels -------------===//

#include "support/ThreadPool.h"

#include "support/Diag.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>

using namespace granii;

namespace {

/// Set while a thread (worker or submitter) is executing chunk bodies;
/// nested parallel loops observe it and run inline instead of re-entering
/// the pool.
thread_local bool InParallelRegion = false;

int hardwareThreadCount() {
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : static_cast<int>(Hw);
}

int defaultThreadCount() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup
  if (const char *Env = std::getenv("GRANII_NUM_THREADS")) {
    std::string Warning;
    int Parsed = parseThreadCount(Env, hardwareThreadCount(), &Warning);
    if (!Warning.empty())
      std::cerr << Diag{DiagSeverity::Warning, "threads", "GRANII_NUM_THREADS",
                        Warning, "set a positive integer thread count"}
                       .toString()
                << "\n";
    return Parsed;
  }
  return hardwareThreadCount();
}

} // namespace

int granii::maxConfigurableThreads() {
  // CI intentionally oversubscribes (GRANII_NUM_THREADS above nproc) to
  // shake out partition bugs, so the cap must stay well above the hardware
  // concurrency; 8x (with a floor of 32 for small hosts) keeps deliberate
  // oversubscription working while rejecting runaway values.
  return std::max(32, 8 * hardwareThreadCount());
}

int granii::parseThreadCount(const std::string &Text, int Fallback,
                             std::string *Warning) {
  auto Warn = [&](const std::string &Message) {
    if (Warning)
      *Warning = Message;
  };
  const char *Begin = Text.data();
  const char *End = Begin + Text.size();
  // Tolerate surrounding whitespace ("  4 " is clearly a thread count) but
  // nothing else: "4abc" and "four" both fall back.
  while (Begin != End && (*Begin == ' ' || *Begin == '\t'))
    ++Begin;
  while (End != Begin && (End[-1] == ' ' || End[-1] == '\t'))
    --End;
  long long Value = 0;
  auto [Ptr, Ec] = std::from_chars(Begin, End, Value);
  if (Begin == End || Ptr != End ||
      (Ec != std::errc() && Ec != std::errc::result_out_of_range)) {
    Warn("thread count '" + Text + "' is not an integer; using " +
         std::to_string(Fallback));
    return Fallback;
  }
  int Cap = maxConfigurableThreads();
  if (Ec == std::errc::result_out_of_range) {
    // from_chars consumed the whole string, so this is a numeric value that
    // merely overflows long long: clamp by sign.
    if (*Begin == '-') {
      Warn("thread count '" + Text + "' is below the minimum; clamping to 1");
      return 1;
    }
    Warn("thread count '" + Text +
         "' exceeds the configurable maximum; clamping to " +
         std::to_string(Cap));
    return Cap;
  }
  if (Value < 1) {
    Warn("thread count '" + Text + "' is below the minimum; clamping to 1");
    return 1;
  }
  if (Value > Cap) {
    Warn("thread count '" + Text +
         "' exceeds the configurable maximum; clamping to " +
         std::to_string(Cap));
    return Cap;
  }
  return static_cast<int>(Value);
}

ThreadPool &ThreadPool::get() {
  static ThreadPool Instance;
  return Instance;
}

ThreadPool::~ThreadPool() {
  // Same discipline as quiesce(): taking SubmitMutex first means
  // destruction cannot overlap an in-flight job or an ensureWorkers() that
  // is concurrently growing the worker vector (a shutdown race TSan flags
  // when a detached thread is still submitting at process exit).
  MutexLock Submit(SubmitMutex);
  stopWorkers();
}

void ThreadPool::quiesce() {
  // A submitter holds SubmitMutex for its job's entire duration, so once we
  // own it there is no job in flight and no worker can be handed a new one;
  // stragglers from the previous job drain inside stopWorkers()'s joins.
  MutexLock Submit(SubmitMutex);
  stopWorkers();
}

int ThreadPool::numThreads() {
  // Lock-free fast path: loop bodies (which run while the submitter holds
  // SubmitMutex) must be able to query the count without deadlocking.
  int Current = ConfiguredThreads.load(std::memory_order_acquire);
  if (Current > 0)
    return Current;
  MutexLock Submit(SubmitMutex);
  if (ConfiguredThreads.load(std::memory_order_relaxed) == 0)
    ConfiguredThreads.store(defaultThreadCount(), std::memory_order_release);
  return ConfiguredThreads.load(std::memory_order_relaxed);
}

int64_t ThreadPool::maxChunks() {
  return static_cast<int64_t>(numThreads()) * 4;
}

void ThreadPool::setNumThreads(int NumThreads) {
  MutexLock Submit(SubmitMutex);
  int Want = NumThreads > 0 ? NumThreads : defaultThreadCount();
  if (Want == ConfiguredThreads)
    return;
  stopWorkers();
  ConfiguredThreads = Want;
}

void ThreadPool::ensureWorkers() {
  if (ConfiguredThreads == 0)
    ConfiguredThreads = defaultThreadCount();
  // The submitting thread works too: N threads means N-1 pool workers.
  int Want = ConfiguredThreads - 1;
  if (static_cast<int>(Workers.size()) == Want)
    return;
  stopWorkers();
  Workers.reserve(static_cast<size_t>(Want));
  for (int I = 0; I < Want; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

void ThreadPool::stopWorkers() {
  if (Workers.empty())
    return;
  {
    MutexLock Lock(JobMutex);
    Stopping = true;
  }
  WorkCv.notifyAll();
  for (std::thread &Worker : Workers)
    Worker.join();
  Workers.clear();
  MutexLock Lock(JobMutex);
  Stopping = false;
}

void ThreadPool::recordError() {
  MutexLock Lock(JobMutex);
  if (!JobError)
    JobError = std::current_exception();
}

void ThreadPool::runChunks(const FunctionRef<void(int64_t)> *ChunkBody,
                           int64_t NumChunks) {
  while (true) {
    int64_t Chunk = NextChunk.fetch_add(1, std::memory_order_relaxed);
    if (Chunk >= NumChunks)
      return;
    try {
      (*ChunkBody)(Chunk);
    } catch (...) {
      recordError();
    }
    finishChunk(NumChunks);
  }
}

void ThreadPool::finishChunk(int64_t NumChunks) {
  if (ChunksDone.fetch_add(1, std::memory_order_acq_rel) + 1 != NumChunks)
    return;
  // Take (and drop) the mutex before notifying so the submitter cannot
  // miss the wakeup between its predicate check and going to sleep.
  { MutexLock Lock(JobMutex); }
  DoneCv.notifyAll();
}

void ThreadPool::workerLoop() {
  InParallelRegion = true;
  MutexLock Lock(JobMutex);
  // Start one generation behind so a job published before this thread got
  // scheduled is still picked up. If that generation is already drained
  // (or none ever ran), runChunks finds no chunk to claim and returns
  // without touching the (possibly dangling) body pointer.
  uint64_t SeenGeneration = JobGeneration - 1;
  while (true) {
    while (!Stopping && JobGeneration == SeenGeneration)
      WorkCv.wait(Lock);
    if (Stopping)
      return;
    SeenGeneration = JobGeneration;
    const FunctionRef<void(int64_t)> *Body = JobBody;
    int64_t NumChunks = JobNumChunks;
    ++ActiveParticipants;
    Lock.unlock();
    runChunks(Body, NumChunks);
    Lock.lock();
    if (--ActiveParticipants == 0)
      DoneCv.notifyAll();
  }
}

void ThreadPool::parallelForChunks(int64_t NumChunks,
                                   FunctionRef<void(int64_t)> ChunkBody) {
  if (NumChunks <= 0)
    return;
  if (InParallelRegion || NumChunks == 1) {
    for (int64_t Chunk = 0; Chunk < NumChunks; ++Chunk)
      ChunkBody(Chunk);
    return;
  }

  MutexLock Submit(SubmitMutex);
  ensureWorkers();
  if (Workers.empty()) {
    // Single-thread configuration: run inline, same chunk order.
    Submit.unlock();
    for (int64_t Chunk = 0; Chunk < NumChunks; ++Chunk)
      ChunkBody(Chunk);
    return;
  }

  {
    MutexLock Lock(JobMutex);
    // Stragglers from the previous job may still hold its body pointer;
    // resetting the chunk counters out from under them would let a claim
    // succeed against a dead body. Wait until they are back in WorkCv.
    while (ActiveParticipants != 0)
      DoneCv.wait(Lock);
    JobBody = &ChunkBody;
    JobNumChunks = NumChunks;
    NextChunk.store(0, std::memory_order_relaxed);
    ChunksDone.store(0, std::memory_order_relaxed);
    JobError = nullptr;
    ++JobGeneration;
  }
  WorkCv.notifyAll();

  InParallelRegion = true;
  runChunks(&ChunkBody, NumChunks);
  InParallelRegion = false;

  std::exception_ptr Error;
  {
    MutexLock Lock(JobMutex);
    while (ChunksDone.load(std::memory_order_acquire) != NumChunks)
      DoneCv.wait(Lock);
    Error = JobError;
    JobError = nullptr;
  }
  Submit.unlock();
  if (Error)
    std::rethrow_exception(Error);
}

void ThreadPool::parallelFor(int64_t Begin, int64_t End, int64_t GrainSize,
                             FunctionRef<void(int64_t, int64_t)> Body) {
  int64_t Range = End - Begin;
  if (Range <= 0)
    return;
  // Nested calls run inline before touching any pool state: the submitter
  // of the enclosing loop holds SubmitMutex for the job's duration.
  if (InParallelRegion) {
    Body(Begin, End);
    return;
  }
  GrainSize = std::max<int64_t>(GrainSize, 1);
  int64_t NumChunks =
      std::min(maxChunks(), (Range + GrainSize - 1) / GrainSize);
  if (NumChunks <= 1) {
    Body(Begin, End);
    return;
  }
  int64_t ChunkSize = (Range + NumChunks - 1) / NumChunks;
  parallelForChunks(NumChunks, [&](int64_t Chunk) {
    int64_t ChunkBegin = Begin + Chunk * ChunkSize;
    int64_t ChunkEnd = std::min(End, ChunkBegin + ChunkSize);
    if (ChunkBegin < ChunkEnd)
      Body(ChunkBegin, ChunkEnd);
  });
}

void granii::parallelFor(int64_t Begin, int64_t End, int64_t GrainSize,
                         FunctionRef<void(int64_t, int64_t)> Body) {
  ThreadPool::get().parallelFor(Begin, End, GrainSize, Body);
}

// Per-row cost model for the CSR partition: stored entries plus a constant
// row overhead, so long empty-row tails still split instead of collapsing
// into one chunk.
static constexpr int64_t CsrRowConstCost = 4;

int64_t granii::csrRowPartitionBound(std::span<const int64_t> RowOffsets,
                                     int64_t NumChunks, int64_t Chunk) {
  int64_t NumRows = static_cast<int64_t>(RowOffsets.size()) - 1;
  NumRows = std::max<int64_t>(NumRows, 0);
  NumChunks = std::max<int64_t>(std::min(NumChunks, NumRows), 1);
  if (Chunk <= 0)
    return 0;
  if (Chunk >= NumChunks)
    return NumRows;
  // Boundaries at equal cumulative-cost targets: binary search for the
  // first row whose prefix cost reaches the target. Hub-heavy rows
  // therefore get chunks with few rows. Prefix costs ascend, so each
  // boundary is at or after the one before it.
  const int64_t TotalCost = RowOffsets.back() + NumRows * CsrRowConstCost;
  const int64_t Target = TotalCost * Chunk / NumChunks;
  int64_t Lo = 0, Hi = NumRows;
  while (Lo < Hi) {
    int64_t Mid = Lo + (Hi - Lo) / 2;
    if (RowOffsets[static_cast<size_t>(Mid)] + Mid * CsrRowConstCost < Target)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

std::vector<int64_t>
granii::csrRowPartitionBounds(std::span<const int64_t> RowOffsets,
                              int64_t NumChunks) {
  const int64_t NumRows =
      std::max<int64_t>(static_cast<int64_t>(RowOffsets.size()) - 1, 0);
  NumChunks = std::max<int64_t>(std::min(NumChunks, NumRows), 1);
  std::vector<int64_t> Bounds(static_cast<size_t>(NumChunks) + 1);
  for (int64_t Chunk = 0; Chunk <= NumChunks; ++Chunk)
    Bounds[static_cast<size_t>(Chunk)] =
        csrRowPartitionBound(RowOffsets, NumChunks, Chunk);
  return Bounds;
}

void granii::parallelForCsrRows(std::span<const int64_t> RowOffsets,
                                FunctionRef<void(int64_t, int64_t)> Body) {
  int64_t NumRows = static_cast<int64_t>(RowOffsets.size()) - 1;
  if (NumRows <= 0)
    return;
  if (InParallelRegion) {
    Body(0, NumRows);
    return;
  }
  ThreadPool &Pool = ThreadPool::get();
  int64_t Nnz = RowOffsets.back();
  // Small matrices are not worth a pool round trip.
  constexpr int64_t MinParallelCost = 1 << 12;
  int64_t TotalCost = Nnz + NumRows * CsrRowConstCost;
  int64_t NumChunks = std::min(Pool.maxChunks(), NumRows);
  if (NumChunks <= 1 || TotalCost < MinParallelCost) {
    Body(0, NumRows);
    return;
  }

  Pool.parallelForChunks(NumChunks, [&](int64_t Chunk) {
    const int64_t RowBegin = csrRowPartitionBound(RowOffsets, NumChunks, Chunk);
    const int64_t RowEnd =
        csrRowPartitionBound(RowOffsets, NumChunks, Chunk + 1);
    if (RowBegin < RowEnd)
      Body(RowBegin, RowEnd);
  });
}
