//===- Memory.cpp - Host memory bounds for untrusted sizes ----------------===//

#include "support/Memory.h"

#include <unistd.h>

using namespace granii;

uint64_t granii::physicalMemoryBytes() {
  const long Pages = sysconf(_SC_PHYS_PAGES);
  const long PageBytes = sysconf(_SC_PAGESIZE);
  if (Pages <= 0 || PageBytes <= 0)
    return 0;
  return static_cast<uint64_t>(Pages) * static_cast<uint64_t>(PageBytes);
}

bool granii::fitsInMemory(int64_t Bytes, uint64_t MemoryBytes,
                          const std::string &What, std::string *Error) {
  if (Bytes < 0) {
    *Error = What + " overflow a 64-bit byte count";
    return false;
  }
  if (MemoryBytes == 0 || static_cast<uint64_t>(Bytes) <= MemoryBytes)
    return true;
  *Error = What + " need " + std::to_string(Bytes) +
           " bytes, more than the host's " + std::to_string(MemoryBytes) +
           " bytes of physical memory";
  return false;
}

int64_t granii::graphBuildBytes(int64_t Nodes, int64_t Nnz) {
  // CSR: (Nodes + 1) int64 row offsets, an int32 column and a float value
  // per entry. COO: an int32 row, int32 column and float value per entry.
  int64_t Offsets = 0, Entries = 0, Bytes = 0;
  if (__builtin_add_overflow(Nodes, 1, &Offsets) ||
      __builtin_mul_overflow(Offsets, int64_t{8}, &Offsets) ||
      __builtin_mul_overflow(Nnz, int64_t{8 + 12}, &Entries) ||
      __builtin_add_overflow(Offsets, Entries, &Bytes))
    return -1;
  return Bytes;
}
