//===- Aligned.h - Cache-line-aligned storage helpers -----------*- C++ -*-===//
///
/// \file
/// A minimal aligned-allocation layer for the tensor types. The SIMD
/// microkernels (src/kernels/Dispatch.h) want their operands to start on a
/// 64-byte boundary: a cache-line-aligned base keeps vector loads from
/// straddling lines whenever the row stride cooperates, and it is the
/// alignment contract docs/SIMD.md advertises. std::vector's default
/// allocator only guarantees alignof(std::max_align_t) (16 on x86-64), so
/// DenseMatrix/CsrMatrix store their buffers in an AlignedVector instead.
///
/// AlignedVector is still a std::vector — the same capacity-reuse guarantees
/// the runtime arena relies on (resize within capacity never reallocates,
/// and therefore never loses alignment) hold unchanged.
///
/// Buffers of MappedAllocationBytes or more are mapped straight from the OS,
/// so a large tensor is resident only while it lives. Through malloc they
/// would land in its heap once glibc raises its mmap threshold, and a block
/// allocated per call (a training step's output) would wander between freed
/// holes whose placement depends on the process's earlier allocations,
/// leaving the resident peak to chance. A freed mapping of a size freed
/// before waits in a small process-wide cache, at most one of each size:
/// the next mapped allocation of exactly its size takes it back with its
/// pages still resident, so a buffer allocated and freed per call faults
/// its pages in on its first two calls only. Any other mapped allocation
/// empties the cache first, so cached pages never sit beside a new mapping,
/// and a one-time free is unmapped at once (docs/RUNTIME_MEMORY.md).
/// A mapped buffer of HugePageBytes or more starts on a huge-page boundary
/// and advises MADV_HUGEPAGE over the whole huge pages inside it, never
/// rounding its size up: first-touch faults drop 512-fold there, and a
/// fully written buffer keeps the resident size it had in small pages.
/// A recycled mapping holds its last owner's bytes: containers that
/// value-initialize (AlignedVector) still zero it, and storage that skips
/// that (DefaultInitAllocator) is overwritten before it is read.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_ALIGNED_H
#define GRANII_SUPPORT_ALIGNED_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace granii {

/// Allocation alignment (bytes) for tensor storage: one cache line, which
/// also covers the widest vector register (64 bytes = one AVX-512 zmm).
inline constexpr size_t KernelAlignment = 64;

/// \returns true if \p Ptr sits on a KernelAlignment boundary. Null (the
/// data() of an empty vector) counts as aligned.
inline bool isKernelAligned(const void *Ptr) {
  return reinterpret_cast<uintptr_t>(Ptr) % KernelAlignment == 0;
}

/// Buffers at least this large are mapped pages rather than malloc blocks.
inline constexpr size_t MappedAllocationBytes = size_t{1} << 20;

/// Mapped buffers at least this large (one x86-64 transparent huge page)
/// start on a boundary of it, and their whole huge pages are advised huge.
inline constexpr size_t HugePageBytes = size_t{2} << 20;

/// Allocates \p Bytes aligned to \p Alignment (at most a page): mapped
/// pages from MappedAllocationBytes up, operator new below. Throws
/// std::bad_alloc on failure.
void *allocateAligned(size_t Bytes, size_t Alignment);

/// Releases a block from allocateAligned with the same \p Bytes and
/// \p Alignment.
void deallocateAligned(void *Ptr, size_t Bytes, size_t Alignment) noexcept;

/// A std::allocator drop-in whose allocations are \p Alignment-aligned.
/// Stateless: any two instances compare equal, so containers can exchange
/// storage freely (moves and swaps behave exactly like the default
/// allocator's).
template <typename T, size_t Alignment = KernelAlignment>
class AlignedAllocator {
public:
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "alignment weaker than the element type's requirement");
  static_assert(Alignment <= 4096, "mapped pages align to 4 KiB at most");

  using value_type = T;
  using size_type = size_t;
  using difference_type = ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) {}

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T *allocate(size_t Count) {
    if (Count > static_cast<size_t>(-1) / sizeof(T))
      throw std::bad_alloc();
    return static_cast<T *>(allocateAligned(Count * sizeof(T), Alignment));
  }

  void deallocate(T *Ptr, size_t Count) noexcept {
    deallocateAligned(Ptr, Count * sizeof(T), Alignment);
  }

  friend bool operator==(const AlignedAllocator &, const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &, const AlignedAllocator &) {
    return false;
  }
};

/// The storage type behind DenseMatrix/CsrMatrix: a std::vector whose
/// buffer starts on a cache-line boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// An AlignedAllocator whose value-less construct() default-initializes:
/// a container's resize() leaves the grown elements of a trivial type
/// unwritten instead of zeroing them. Constructions with a value (a
/// container's fill constructor, resize(N, Value)) still write it.
template <typename T>
class DefaultInitAllocator : public AlignedAllocator<T> {
public:
  template <typename U> struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U> &) {}

  /// Only the value-less form: std::allocator_traits constructs with a
  /// value through placement new, as for any allocator.
  template <typename U> void construct(U *Ptr) {
    ::new (static_cast<void *>(Ptr)) U;
  }
};

} // namespace granii

#endif // GRANII_SUPPORT_ALIGNED_H
