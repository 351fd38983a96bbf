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
/// Buffers of MappedAllocationBytes or more are mapped straight from the OS
/// and unmapped when freed, so a large tensor is resident exactly while it
/// lives. Through malloc they would land in its heap once glibc raises its
/// mmap threshold, and a block allocated per call (a training step's
/// output) would wander between freed holes whose placement depends on the
/// process's earlier allocations, leaving the resident peak to chance.
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

} // namespace granii

#endif // GRANII_SUPPORT_ALIGNED_H
