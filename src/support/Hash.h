//===- Hash.h - Stable content hashing -------------------------*- C++ -*-===//
///
/// \file
/// A 64-bit FNV-1a hash used wherever the system needs a short, stable
/// content fingerprint: the serving layer names a model by the hash of its
/// DSL text in session keys and in the compile response's cache key, and
/// graphFingerprint hashes a graph's CSR arrays. Not cryptographic: the
/// plan cache itself keys on the full model text, never on a hash.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_HASH_H
#define GRANII_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace granii {

inline constexpr uint64_t Fnv1a64Offset = 0xcbf29ce484222325ull;
inline constexpr uint64_t Fnv1a64Prime = 0x100000001b3ull;

/// Folds \p Size bytes at \p Data into \p Hash (FNV-1a step function).
/// Chain calls to fingerprint a composite object field by field.
inline uint64_t fnv1a64(const void *Data, size_t Size,
                        uint64_t Hash = Fnv1a64Offset) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= Fnv1a64Prime;
  }
  return Hash;
}

/// Text overload (does not include a terminator, so "ab" + "c" chains to
/// the same value as "abc" — callers that need field separation must mix
/// in their own delimiters).
inline uint64_t fnv1a64(std::string_view Text,
                        uint64_t Hash = Fnv1a64Offset) {
  return fnv1a64(Text.data(), Text.size(), Hash);
}

/// Integer convenience: hashes the value's little-endian representation.
inline uint64_t fnv1a64(uint64_t Value, uint64_t Hash) {
  unsigned char Bytes[8];
  for (int I = 0; I < 8; ++I)
    Bytes[I] = static_cast<unsigned char>(Value >> (8 * I));
  return fnv1a64(Bytes, sizeof(Bytes), Hash);
}

} // namespace granii

#endif // GRANII_SUPPORT_HASH_H
