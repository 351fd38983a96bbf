//===- LruCache.h - String-keyed LRU cache of shared values -----*- C++ -*-===//
///
/// \file
/// The serving engine's one LRU: shared values keyed by string, the least
/// recently used dropped beyond a capacity, with hit, miss and eviction
/// counts. The engine keeps two, both guarded by its mutex: the plan cache
/// (model text -> compiled plan set) and the session cache (request key ->
/// warm session). The cache takes no lock of its own.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SERVE_LRUCACHE_H
#define GRANII_SERVE_LRUCACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace granii {
namespace serve {

/// Monotonic counters of one cache; the stats verb reports them.
struct LruStats {
  uint64_t Hits = 0;      ///< lookups the cache answered
  uint64_t Misses = 0;    ///< lookups that found no entry
  uint64_t Evictions = 0; ///< entries dropped beyond capacity
};

/// LRU cache of shared \p T values keyed by string. A value handed out
/// stays valid for its holder after the cache evicts it.
template <class T> class LruCache {
public:
  using Ptr = std::shared_ptr<T>;

  /// \p Capacity bounds the entries (>= 1).
  explicit LruCache(size_t Capacity) : Capacity(Capacity < 1 ? 1 : Capacity) {}

  /// Looks up \p Key and makes its entry the most recent. \returns nullptr
  /// on a miss.
  Ptr get(const std::string &Key) {
    auto It = Index.find(Key);
    if (It == Index.end()) {
      ++Counters.Misses;
      return nullptr;
    }
    Lru.splice(Lru.begin(), Lru, It->second);
    ++Counters.Hits;
    return It->second->second;
  }

  /// Inserts \p Value as the most recent entry, evicting the least recent
  /// one beyond capacity. Re-putting an existing key replaces its value and
  /// refreshes its recency.
  void put(const std::string &Key, Ptr Value) {
    auto It = Index.find(Key);
    if (It != Index.end()) {
      It->second->second = std::move(Value);
      Lru.splice(Lru.begin(), Lru, It->second);
      return;
    }
    Lru.emplace_front(Key, std::move(Value));
    Index[Key] = Lru.begin();
    while (Lru.size() > Capacity) {
      Index.erase(Lru.back().first);
      Lru.pop_back();
      ++Counters.Evictions;
    }
  }

  /// Keys from most to least recently used.
  std::vector<std::string> keysMruToLru() const {
    std::vector<std::string> Keys;
    Keys.reserve(Lru.size());
    for (const auto &Entry : Lru)
      Keys.push_back(Entry.first);
    return Keys;
  }

  const LruStats &stats() const { return Counters; }
  size_t size() const { return Lru.size(); }

private:
  using Entries = std::list<std::pair<std::string, Ptr>>;

  size_t Capacity;
  Entries Lru; ///< front = most recently used
  std::map<std::string, typename Entries::iterator> Index;
  LruStats Counters;
};

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_LRUCACHE_H
