//===- ThreadSafety.h - Clang thread-safety annotations ---------*- C++ -*-===//
///
/// \file
/// Wrappers for Clang's thread-safety (capability) analysis attributes plus
/// annotated drop-in shims over the standard mutex primitives.
///
/// The macros expand to nothing on compilers without the attributes (gcc),
/// so annotated code builds everywhere; the analysis itself runs in the CI
/// `thread-safety` job, which compiles with clang and
/// `-Wthread-safety -Werror=thread-safety`.
///
/// Conventions:
///  - Every shared mutable member is declared with GRANII_GUARDED_BY(M)
///    naming the Mutex that protects it.
///  - Private helpers that expect a lock already held are annotated with
///    GRANII_REQUIRES(M) instead of re-locking.
///  - Locks are taken via the scoped MutexLock, never via raw
///    lock()/unlock() pairs, so the analysis can track every region.
///  - GRANII_NO_THREAD_SAFETY_ANALYSIS is reserved for external-callback
///    boundaries and must carry a comment explaining why.
///
/// The shims also feed the debug-only lock-order cycle detector (see
/// LockRegistry.h): every Mutex carries a human-readable name, and
/// acquisitions in GRANII_LOCK_ORDER_CHECKS builds are recorded so an
/// inconsistent acquisition order aborts deterministically instead of
/// deadlocking once in a blue moon.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_THREADSAFETY_H
#define GRANII_SUPPORT_THREADSAFETY_H

#include "support/LockRegistry.h"

#include <condition_variable>
#include <mutex>

#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__clang__) && defined(__has_attribute)
#define GRANII_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GRANII_THREAD_ANNOTATION(x) // no-op outside clang
#endif

/// Marks a class as a lockable capability (mutexes).
#define GRANII_CAPABILITY(x) GRANII_THREAD_ANNOTATION(capability(x))
/// Marks an RAII class whose lifetime equals a locked region.
#define GRANII_SCOPED_CAPABILITY GRANII_THREAD_ANNOTATION(scoped_lockable)
/// Declares that a member is protected by the given capability.
#define GRANII_GUARDED_BY(x) GRANII_THREAD_ANNOTATION(guarded_by(x))
/// Declares that the pointee of a pointer member is protected.
#define GRANII_PT_GUARDED_BY(x) GRANII_THREAD_ANNOTATION(pt_guarded_by(x))
/// Declares the global acquisition order between two capabilities.
#define GRANII_ACQUIRED_BEFORE(...)                                          \
  GRANII_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define GRANII_ACQUIRED_AFTER(...)                                           \
  GRANII_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// The function must be called with the capability held.
#define GRANII_REQUIRES(...)                                                 \
  GRANII_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// The function acquires / releases the capability.
#define GRANII_ACQUIRE(...)                                                  \
  GRANII_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GRANII_RELEASE(...)                                                  \
  GRANII_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GRANII_TRY_ACQUIRE(...)                                              \
  GRANII_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// The function must NOT be called with the capability held.
#define GRANII_EXCLUDES(...)                                                 \
  GRANII_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// The function returns a reference to the named capability.
#define GRANII_RETURN_CAPABILITY(x)                                          \
  GRANII_THREAD_ANNOTATION(lock_returned(x))
/// Opt a function out of the analysis. Reserved for external-callback
/// boundaries; every use must carry a justifying comment.
#define GRANII_NO_THREAD_SAFETY_ANALYSIS                                     \
  GRANII_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace granii {

/// Annotated mutex: a std::mutex plus a stable human-readable name used in
/// lock-order diagnostics. Prefer locking through MutexLock; the raw
/// lock()/unlock() exist for the rare call sites the scoped form cannot
/// express.
class GRANII_CAPABILITY("mutex") Mutex {
public:
  /// \p Name must be a string literal (it is stored, not copied).
  explicit Mutex(const char *Name) : Name(Name) {}
  ~Mutex() {
    detail::lockRegistryDestroy(this);
#ifdef __SANITIZE_THREAD__
    // std::mutex's destructor is trivial, so ThreadSanitizer would carry
    // this lock's order edges over to the next mutex at its address.
    __tsan_mutex_destroy(&M, 0);
#endif
  }
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() GRANII_ACQUIRE() {
    // Record before blocking so a cycle aborts with a diagnostic instead
    // of deadlocking.
    detail::lockRegistryAcquire(this, Name);
    M.lock();
  }
  void unlock() GRANII_RELEASE() {
    M.unlock();
    detail::lockRegistryRelease(this);
  }

  /// The wrapped mutex, for interop with std primitives (condition-variable
  /// waits via MutexLock). Intentionally not annotated: going through
  /// native() directly bypasses both the analysis and the lock registry.
  std::mutex &native() { return M; }
  const char *name() const { return Name; }

private:
  std::mutex M;
  const char *Name;
};

/// Scoped lock over a Mutex, with mid-scope unlock()/lock() support so
/// submit-style code can release early, and native() access for
/// condition-variable waits (see CondVar).
class GRANII_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &M) GRANII_ACQUIRE(M)
      : Parent(&M), Inner(M.native(), std::defer_lock) {
    detail::lockRegistryAcquire(Parent, Parent->name());
    Inner.lock();
  }
  ~MutexLock() GRANII_RELEASE() {
    if (Inner.owns_lock()) {
      Inner.unlock();
      detail::lockRegistryRelease(Parent);
    }
  }
  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;

  /// Releases before the end of scope (e.g. hand-off patterns).
  void unlock() GRANII_RELEASE() {
    Inner.unlock();
    detail::lockRegistryRelease(Parent);
  }
  /// Re-acquires after an unlock().
  void lock() GRANII_ACQUIRE() {
    detail::lockRegistryAcquire(Parent, Parent->name());
    Inner.lock();
  }

  /// The underlying unique_lock, for CondVar::wait. The wait's internal
  /// release/re-acquire pair is invisible to the registry, which is sound:
  /// a blocked waiter acquires nothing, so no ordering edge is missed.
  std::unique_lock<std::mutex> &native() { return Inner; }

private:
  Mutex *Parent;
  std::unique_lock<std::mutex> Inner;
};

/// Condition variable usable with MutexLock. Callers keep the standard
/// explicit-predicate-loop shape:
///
///   MutexLock Lock(M);
///   while (!ready())        // reads of GUARDED_BY(M) state stay in scope
///     Cv.wait(Lock);
///
/// (A lambda predicate would move the guarded reads into an unannotated
/// closure, which the analysis cannot attribute to the held lock.)
class CondVar {
public:
  void wait(MutexLock &Lock) { Cv.wait(Lock.native()); }
  void notifyOne() { Cv.notify_one(); }
  void notifyAll() { Cv.notify_all(); }

private:
  std::condition_variable Cv;
};

} // namespace granii

#endif // GRANII_SUPPORT_THREADSAFETY_H
