//===- PlanCache.h - LRU cache of compiled plan sets ------------*- C++ -*-===//
///
/// \file
/// An LRU cache of compiled (promoted) plan sets, the artifact of GRANII's
/// offline stage. The serving daemon pays enumeration + pruning at most
/// once per model; every later request for the same model, on any graph
/// and at any embedding sizes, reuses the cached set, which is what turns
/// the paper's offline/online split into an actual amortization across
/// requests.
///
/// The key is the model's DSL text itself. The offline stage reads nothing
/// else: it enumerates and prunes without looking at the input graph, the
/// embedding sizes or the execution environment, and the engine's
/// enumeration and verification options apply to every model it compiles.
/// The key is exact, so two texts never share an entry and no hash can
/// collide.
///
/// The cache lives in memory only: a restarted daemon recompiles each model
/// once, which costs well under a millisecond for most models (DESIGN.md
/// §5, "One compile per model").
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

/// Monotonic counters; retrievable while the daemon runs (stats verb).
struct PlanCacheStats {
  uint64_t Hits = 0;      ///< lookups the cache answered
  uint64_t Misses = 0;    ///< lookups that found no entry
  uint64_t Evictions = 0; ///< LRU entries dropped
};

/// Thread-safe LRU cache of promoted plan sets keyed by model text. Values
/// are shared immutable vectors: a cached set can be handed to
/// concurrently-running sessions while the LRU evicts it.
class PlanCache {
public:
  using Plans = std::shared_ptr<const std::vector<CompositionPlan>>;

  /// \p Capacity bounds the entries (>= 1).
  explicit PlanCache(size_t Capacity);

  /// Looks up \p ModelText. \returns nullptr on miss.
  Plans get(const std::string &ModelText);

  /// Inserts \p Value as the most-recent entry, evicting the least-recent
  /// entry beyond capacity. Re-putting an existing key refreshes its
  /// recency.
  void put(const std::string &ModelText, Plans Value);

  /// Keys from most- to least-recently used (test hook for the
  /// eviction-order contract).
  std::vector<std::string> keysMruToLru() const;

  PlanCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }

private:
  struct Entry {
    std::string Key;
    Plans Value;
  };

  mutable Mutex M{"PlanCache::M"};
  size_t Capacity;
  std::list<Entry> Lru GRANII_GUARDED_BY(M); ///< front = most recently used
  std::map<std::string, std::list<Entry>::iterator> Index GRANII_GUARDED_BY(M);
  PlanCacheStats Counters GRANII_GUARDED_BY(M);
};

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_PLANCACHE_H
