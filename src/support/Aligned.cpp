//===- Aligned.cpp - Cache-line-aligned storage helpers -------------------===//

#include "support/Aligned.h"

#include <sys/mman.h>

using namespace granii;

void *granii::allocateAligned(size_t Bytes, size_t Alignment) {
  if (Bytes < MappedAllocationBytes)
    return ::operator new(Bytes, std::align_val_t(Alignment));
  // Anonymous mappings start on a page boundary.
  void *Ptr = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Ptr == MAP_FAILED)
    throw std::bad_alloc();
  return Ptr;
}

void granii::deallocateAligned(void *Ptr, size_t Bytes,
                               size_t Alignment) noexcept {
  if (Bytes < MappedAllocationBytes) {
    ::operator delete(Ptr, std::align_val_t(Alignment));
    return;
  }
  ::munmap(Ptr, Bytes);
}
