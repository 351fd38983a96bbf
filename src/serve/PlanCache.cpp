//===- PlanCache.cpp - LRU cache of compiled plan sets ------------------------===//

#include "serve/PlanCache.h"

#include "assoc/PlanSerialize.h"
#include "support/Hash.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

using namespace granii;
using namespace granii::serve;

/// Version tag on the first line of every spill file; bumping it orphans
/// (and thereby invalidates) all existing spill files.
static const char SpillHeader[] = "granii-plan-cache-v1";

static std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string PlanCacheKey::canonical() const {
  std::string S;
  S += "m";
  S += hex16(ModelHash);
  S += "/g";
  S += hex16(GraphHash);
  S += "/k";
  S += std::to_string(KIn);
  S += "x";
  S += std::to_string(KOut);
  S += "/t";
  S += std::to_string(Threads);
  S += "/";
  S += Isa.empty() ? "scalar" : Isa;
  return S;
}

uint64_t PlanCacheKey::fileHash() const { return fnv1a64(canonical()); }

PlanCache::PlanCache(size_t Capacity, std::string SpillDir)
    : Capacity(Capacity < 1 ? 1 : Capacity), SpillDir(std::move(SpillDir)) {
  if (!this->SpillDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(this->SpillDir, Ec);
    // Like the cost-model cache: a directory that cannot be created only
    // disables the disk tier for this process, it is never fatal.
  }
}

std::string PlanCache::spillPathFor(const PlanCacheKey &Key) const {
  if (SpillDir.empty())
    return std::string();
  return SpillDir + "/plans-" + hex16(Key.fileHash()) + ".granii";
}

PlanCache::Plans PlanCache::get(const PlanCacheKey &Key, bool *DiskHit) {
  MutexLock Lock(M);
  if (DiskHit)
    *DiskHit = false;
  std::string Canonical = Key.canonical();
  auto It = Index.find(Canonical);
  if (It != Index.end()) {
    Lru.splice(Lru.begin(), Lru, It->second);
    ++Counters.Hits;
    return It->second->Value;
  }
  if (Plans FromDisk = loadSpill(Key)) {
    Lru.push_front(Entry{Canonical, FromDisk});
    Index[Canonical] = Lru.begin();
    while (Lru.size() > Capacity) {
      Index.erase(Lru.back().Canonical);
      Lru.pop_back();
      ++Counters.Evictions;
    }
    ++Counters.DiskHits;
    if (DiskHit)
      *DiskHit = true;
    return FromDisk;
  }
  ++Counters.Misses;
  return nullptr;
}

void PlanCache::put(const PlanCacheKey &Key, Plans Value) {
  MutexLock Lock(M);
  std::string Canonical = Key.canonical();
  auto It = Index.find(Canonical);
  if (It != Index.end()) {
    It->second->Value = Value;
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    Lru.push_front(Entry{Canonical, Value});
    Index[Canonical] = Lru.begin();
    while (Lru.size() > Capacity) {
      Index.erase(Lru.back().Canonical);
      Lru.pop_back();
      ++Counters.Evictions;
    }
  }
  writeSpill(Key, Value);
}

std::vector<std::string> PlanCache::keysMruToLru() const {
  MutexLock Lock(M);
  std::vector<std::string> Keys;
  Keys.reserve(Lru.size());
  for (const Entry &E : Lru)
    Keys.push_back(E.Canonical);
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

PlanCache::Plans PlanCache::loadSpill(const PlanCacheKey &Key) {
  std::string Path = spillPathFor(Key);
  if (Path.empty())
    return nullptr;
  std::ifstream In(Path);
  if (!In)
    return nullptr;
  std::string Header, EmbeddedKey;
  In >> Header >> EmbeddedKey;
  if (!In || Header != SpillHeader || EmbeddedKey != Key.canonical()) {
    // Wrong header: either a foreign/corrupt file or a 64-bit file-name
    // hash collision with a different canonical key. Both are misses; the
    // file is removed so the upcoming write-through can claim the name.
    In.close();
    std::error_code Ec;
    std::filesystem::remove(Path, Ec);
    ++Counters.Corrupt;
    return nullptr;
  }
  std::ostringstream Body;
  Body << In.rdbuf();
  std::string Err;
  std::optional<std::vector<CompositionPlan>> Parsed =
      deserializePlans(Body.str(), &Err, Path);
  if (!Parsed) {
    In.close();
    std::error_code Ec;
    std::filesystem::remove(Path, Ec);
    ++Counters.Corrupt;
    return nullptr;
  }
  return std::make_shared<const std::vector<CompositionPlan>>(
      std::move(*Parsed));
}

void PlanCache::writeSpill(const PlanCacheKey &Key, const Plans &Value) {
  std::string Path = spillPathFor(Key);
  if (Path.empty() || !Value)
    return;
  // Write to a temp name and rename so a concurrent reader (another daemon
  // sharing the cache directory) never observes a half-written file.
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp);
    if (!Out)
      return;
    Out << SpillHeader << " " << Key.canonical() << "\n";
    Out << serializePlans(*Value);
    if (!Out) {
      Out.close();
      std::error_code Ec;
      std::filesystem::remove(Tmp, Ec);
      return;
    }
  }
  std::error_code Ec;
  std::filesystem::rename(Tmp, Path, Ec);
  if (!Ec)
    ++Counters.Spills;
}
