//===- PlanCache.h - LRU cache of compiled plan sets ------------*- C++ -*-===//
///
/// \file
/// An LRU cache of compiled (promoted) plan sets, the artifact of GRANII's
/// offline stage. The serving daemon pays enumeration + pruning at most
/// once per configuration; every later request for the same key reuses the
/// cached set, which is what turns the paper's offline/online split into an
/// actual amortization across requests.
///
/// Keys fingerprint everything that could change the compiled artifact or
/// the environment it will execute in: the model's DSL text, the input
/// graph's CSR content, the embedding sizes, the kernel thread count, and
/// the active SIMD ISA level. Conservative by design — two configurations
/// never share an entry unless their whole execution environment matches.
///
/// Entries are written through to disk (under $GRANII_CACHE_DIR, the same
/// directory the cost-model caches use) via PlanSerialize, so a restarted
/// daemon warms from spill files instead of recompiling. Spill files embed
/// the full canonical key: files are named by a 64-bit hash, and a load
/// whose embedded key mismatches (hash collision) or whose plan records
/// fail the checked parser (corruption) is treated as a miss — the entry is
/// recompiled and the bad file overwritten, never trusted.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SERVE_PLANCACHE_H
#define GRANII_SERVE_PLANCACHE_H

#include "assoc/Composition.h"
#include "support/ThreadSafety.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace granii {
namespace serve {

/// Everything that identifies one compiled-plan-set configuration.
struct PlanCacheKey {
  uint64_t ModelHash = 0; ///< fnv1a64 of the model DSL text
  uint64_t GraphHash = 0; ///< graphFingerprint of the input graph
  int64_t KIn = 0;
  int64_t KOut = 0;
  int Threads = 0;  ///< kernel pool size
  std::string Isa;  ///< active SIMD dispatch level name

  /// Canonical printable form, e.g.
  /// "m0123abcd.../g.../k32x64/t4/avx2". Total order on keys;
  /// embedded verbatim in spill files.
  std::string canonical() const;

  /// 64-bit hash of canonical(), used to name the spill file.
  uint64_t fileHash() const;

  bool operator==(const PlanCacheKey &O) const {
    return canonical() == O.canonical();
  }
};

/// Monotonic counters; retrievable while the daemon runs (stats verb).
struct PlanCacheStats {
  uint64_t Hits = 0;      ///< in-memory LRU hits
  uint64_t Misses = 0;    ///< neither memory nor disk had the entry
  uint64_t DiskHits = 0;  ///< loaded from a spill file
  uint64_t Evictions = 0; ///< LRU entries dropped from memory
  uint64_t Spills = 0;    ///< spill files written
  uint64_t Corrupt = 0;   ///< spill files rejected (bad key or bad parse)
};

/// Thread-safe LRU cache of promoted plan sets with write-through disk
/// spill. Values are shared immutable vectors: a cached set can be handed
/// to concurrently-running sessions while the LRU evicts it.
class PlanCache {
public:
  using Plans = std::shared_ptr<const std::vector<CompositionPlan>>;

  /// \p Capacity bounds in-memory entries (>= 1). \p SpillDir "" disables
  /// the disk tier (used by tests that exercise pure LRU semantics).
  explicit PlanCache(size_t Capacity, std::string SpillDir = "");

  /// Looks up \p Key: memory first, then the spill file. A disk hit is
  /// promoted into memory. \returns nullptr on miss. \p DiskHit (if
  /// non-null) reports which tier satisfied the lookup.
  Plans get(const PlanCacheKey &Key, bool *DiskHit = nullptr);

  /// Inserts \p Value as the most-recent entry and writes the spill file
  /// (write-through, so a daemon restart warms from disk even if this
  /// entry is never evicted). Evicts the least-recent entry beyond
  /// capacity. Re-putting an existing key refreshes its recency.
  void put(const PlanCacheKey &Key, Plans Value);

  /// Canonical keys from most- to least-recently used (test hook for the
  /// eviction-order contract).
  std::vector<std::string> keysMruToLru() const;

  /// The spill path \p Key would use ("" when the disk tier is disabled).
  std::string spillPathFor(const PlanCacheKey &Key) const;

  PlanCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }

private:
  struct Entry {
    std::string Canonical;
    Plans Value;
  };

  /// Loads and validates \p Key's spill file; nullptr on absence, key
  /// mismatch (collision), or corruption. M is required only for the stats
  /// counters it bumps.
  Plans loadSpill(const PlanCacheKey &Key) GRANII_REQUIRES(M);
  void writeSpill(const PlanCacheKey &Key, const Plans &Value)
      GRANII_REQUIRES(M);

  mutable Mutex M{"PlanCache::M"};
  size_t Capacity;
  std::string SpillDir;
  std::list<Entry> Lru GRANII_GUARDED_BY(M); ///< front = most recently used
  std::map<std::string, std::list<Entry>::iterator> Index GRANII_GUARDED_BY(M);
  PlanCacheStats Counters GRANII_GUARDED_BY(M);
};

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_PLANCACHE_H
