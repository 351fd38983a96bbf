//===- Aligned.cpp - Cache-line-aligned storage helpers -------------------===//

#include "support/Aligned.h"

#include "support/ThreadSafety.h"

#include <sys/mman.h>
#include <unistd.h>

using namespace granii;

namespace {

/// Freed mappings kept for reuse at the same size (Aligned.h), at most one
/// of each size. A training step's by-value result frees a handful of large
/// buffers of distinct sizes at once; eight slots hold them all, and eight
/// remembered sizes cover them.
constexpr size_t MappingCacheSlots = 8;

struct Mapping {
  void *Ptr = nullptr;
  size_t Bytes = 0;
};

struct MappingCache {
  Mutex Lock{"MappingCache::Lock"};
  Mapping Slots[MappingCacheSlots] GRANII_GUARDED_BY(Lock);
  size_t Count GRANII_GUARDED_BY(Lock) = 0;
  /// The sizes of the last freed mappings, oldest overwritten first.
  size_t FreedSizes[MappingCacheSlots] GRANII_GUARDED_BY(Lock) = {};
  size_t NextFreed GRANII_GUARDED_BY(Lock) = 0;
};

/// Leaky: static tensors free their storage during static destruction,
/// after a destructible cache (and its mutex) could already be gone.
MappingCache &mappingCache() {
  static MappingCache *Cache = new MappingCache;
  return *Cache;
}

/// Maps \p Bytes of fresh pages (Aligned.h): from HugePageBytes up, the
/// buffer starts on a huge-page boundary and its whole huge pages are
/// advised huge, so their first touch faults one 2 MiB page instead of
/// 512 small ones. The tail past the last whole huge page stays small
/// pages: nothing is rounded up, so a fully written buffer is as resident
/// as before.
void *mapPages(size_t Bytes) {
  if (Bytes < HugePageBytes) {
    // Anonymous mappings start on a page boundary.
    void *Ptr = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return Ptr == MAP_FAILED ? nullptr : Ptr;
  }
  // Over-map by one huge page, then unmap what lies before the first
  // boundary and past the buffer's last page.
  const size_t PageBytes = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t Mapped = (Bytes + PageBytes - 1) / PageBytes * PageBytes;
  const size_t Span = Mapped + HugePageBytes;
  void *Raw = ::mmap(nullptr, Span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Raw == MAP_FAILED)
    return nullptr;
  char *Base = static_cast<char *>(Raw);
  const size_t Head =
      (HugePageBytes - reinterpret_cast<uintptr_t>(Base) % HugePageBytes) %
      HugePageBytes;
  if (Head != 0)
    ::munmap(Base, Head);
  if (size_t Tail = Span - Head - Mapped; Tail != 0)
    ::munmap(Base + Head + Mapped, Tail);
  // Advice only: a host whose transparent huge pages are off ignores it.
  ::madvise(Base + Head, Bytes / HugePageBytes * HugePageBytes,
            MADV_HUGEPAGE);
  return Base + Head;
}

} // namespace

void *granii::allocateAligned(size_t Bytes, size_t Alignment) {
  if (Bytes < MappedAllocationBytes)
    return ::operator new(Bytes, std::align_val_t(Alignment));
  MappingCache &Cache = mappingCache();
  Mapping Stale[MappingCacheSlots];
  size_t NumStale = 0;
  {
    MutexLock Guard(Cache.Lock);
    for (size_t I = 0; I < Cache.Count; ++I) {
      if (Cache.Slots[I].Bytes != Bytes)
        continue;
      void *Ptr = Cache.Slots[I].Ptr;
      Cache.Slots[I] = Cache.Slots[--Cache.Count];
      return Ptr;
    }
    // A miss empties the cache before mapping anything new, so cached pages
    // are never resident beside the new mapping.
    for (size_t I = 0; I < Cache.Count; ++I)
      Stale[NumStale++] = Cache.Slots[I];
    Cache.Count = 0;
  }
  for (size_t I = 0; I < NumStale; ++I)
    ::munmap(Stale[I].Ptr, Stale[I].Bytes);
  void *Ptr = mapPages(Bytes);
  if (!Ptr)
    throw std::bad_alloc();
  return Ptr;
}

void granii::deallocateAligned(void *Ptr, size_t Bytes,
                               size_t Alignment) noexcept {
  if (Bytes < MappedAllocationBytes) {
    ::operator delete(Ptr, std::align_val_t(Alignment));
    return;
  }
  MappingCache &Cache = mappingCache();
  {
    MutexLock Guard(Cache.Lock);
    // Only a size freed before is kept: a buffer freed and reallocated call
    // after call, not a one-time free (a check's inputs, a graph's build
    // buffers) whose pages would stay resident until the next miss. And
    // only one mapping per size: a caller that frees and reallocates the
    // same buffers every call takes each one back, so nothing is left
    // cached while its next call runs.
    bool FreedBefore = false;
    for (size_t Size : Cache.FreedSizes)
      FreedBefore |= Size == Bytes;
    bool SizeCached = false;
    for (size_t I = 0; I < Cache.Count; ++I)
      SizeCached |= Cache.Slots[I].Bytes == Bytes;
    if (!FreedBefore)
      Cache.FreedSizes[Cache.NextFreed++ % MappingCacheSlots] = Bytes;
    else if (!SizeCached && Cache.Count < MappingCacheSlots) {
      Cache.Slots[Cache.Count++] = Mapping{Ptr, Bytes};
      return;
    }
  }
  ::munmap(Ptr, Bytes);
}
