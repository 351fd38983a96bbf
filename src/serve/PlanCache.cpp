//===- PlanCache.cpp - LRU cache of compiled plan sets ------------------------===//

#include "serve/PlanCache.h"

using namespace granii;
using namespace granii::serve;

PlanCache::PlanCache(size_t Capacity)
    : Capacity(Capacity < 1 ? 1 : Capacity) {}

PlanCache::Plans PlanCache::get(const std::string &ModelText) {
  MutexLock Lock(M);
  auto It = Index.find(ModelText);
  if (It == Index.end()) {
    ++Counters.Misses;
    return nullptr;
  }
  Lru.splice(Lru.begin(), Lru, It->second);
  ++Counters.Hits;
  return It->second->Value;
}

void PlanCache::put(const std::string &ModelText, Plans Value) {
  MutexLock Lock(M);
  auto It = Index.find(ModelText);
  if (It != Index.end()) {
    It->second->Value = std::move(Value);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.push_front(Entry{ModelText, std::move(Value)});
  Index[ModelText] = Lru.begin();
  while (Lru.size() > Capacity) {
    Index.erase(Lru.back().Key);
    Lru.pop_back();
    ++Counters.Evictions;
  }
}

std::vector<std::string> PlanCache::keysMruToLru() const {
  MutexLock Lock(M);
  std::vector<std::string> Keys;
  Keys.reserve(Lru.size());
  for (const Entry &E : Lru)
    Keys.push_back(E.Key);
  return Keys;
}

PlanCacheStats PlanCache::stats() const {
  MutexLock Lock(M);
  return Counters;
}

size_t PlanCache::size() const {
  MutexLock Lock(M);
  return Lru.size();
}
