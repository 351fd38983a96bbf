//===- Memory.h - Host memory bounds for untrusted sizes --------*- C++ -*-===//
///
/// \file
/// One bound for every size a request names before anything is allocated
/// for it (a graph spec's node and edge counts, a Matrix Market size line,
/// embedding sizes): the bytes it needs must fit in the host's physical
/// memory. A size past that can only end in std::bad_alloc or the OOM
/// killer, so it is answered as a request error instead. The memory size is
/// a parameter, so tests can inject a small one.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_MEMORY_H
#define GRANII_SUPPORT_MEMORY_H

#include <cstdint>
#include <string>

namespace granii {

/// The host's physical memory in bytes (sysconf pages x page size), 0 when
/// the host does not report it.
uint64_t physicalMemoryBytes();

/// Whether \p Bytes (negative: its count overflowed int64) fit in
/// \p MemoryBytes of memory; an unknown size (0) admits any count that did
/// not overflow. Otherwise false, with \p Error set to "<What> need(s)
/// <Bytes> bytes, more than the host's <MemoryBytes> bytes of physical
/// memory" (or the overflow).
bool fitsInMemory(int64_t Bytes, uint64_t MemoryBytes, const std::string &What,
                  std::string *Error);

/// Bytes of a graph build with \p Nodes nodes and \p Nnz stored entries:
/// its COO triples and the weighted CSR made from them, which coexist while
/// the CSR is built. Negative when the count overflows int64.
int64_t graphBuildBytes(int64_t Nodes, int64_t Nnz);

} // namespace granii

#endif // GRANII_SUPPORT_MEMORY_H
