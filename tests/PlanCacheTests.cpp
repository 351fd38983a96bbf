//===- PlanCacheTests.cpp - Tests for the serving plan cache ----------------===//

#include "serve/PlanCache.h"

#include "assoc/Enumerate.h"
#include "assoc/PlanSerialize.h"
#include "assoc/Prune.h"
#include "models/Models.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace granii;
using namespace granii::serve;

namespace {

PlanCache::Plans somePlans() {
  static PlanCache::Plans Cached =
      std::make_shared<const std::vector<CompositionPlan>>(
          pruneCompositions(
              enumerateCompositions(makeModel(ModelKind::GCN).Root)));
  return Cached;
}

PlanCacheKey keyNumbered(uint64_t N) {
  PlanCacheKey Key;
  Key.ModelHash = 0x1000 + N;
  Key.GraphHash = 0x2000 + N;
  Key.KIn = 32;
  Key.KOut = 64;
  Key.Threads = 4;
  Key.Isa = "avx2";
  return Key;
}

std::string uniqueTempDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "granii-plancache-" + Tag + "-" +
                    std::to_string(::getpid());
  return Dir;
}

} // namespace

TEST(PlanCacheKey, CanonicalEncodesEveryField) {
  PlanCacheKey Key = keyNumbered(1);
  std::string C = Key.canonical();
  // Every field participates: perturbing any one of them changes the key.
  for (auto Mutate : {+[](PlanCacheKey &K) { K.ModelHash ^= 1; },
                      +[](PlanCacheKey &K) { K.GraphHash ^= 1; },
                      +[](PlanCacheKey &K) { K.KIn = 33; },
                      +[](PlanCacheKey &K) { K.KOut = 65; },
                      +[](PlanCacheKey &K) { K.Threads = 5; },
                      +[](PlanCacheKey &K) { K.Isa = "scalar"; },
                      +[](PlanCacheKey &K) { K.Shards = 4; }}) {
    PlanCacheKey Other = keyNumbered(1);
    Mutate(Other);
    EXPECT_NE(Other.canonical(), C);
    EXPECT_FALSE(Other == Key);
  }
  EXPECT_EQ(keyNumbered(1).canonical(), C);
  EXPECT_EQ(keyNumbered(1).fileHash(), Key.fileHash());
}

// A sharded configuration selects under shard-annotated cost features, so
// its compiled set must never be served to (or from) the whole-graph
// population of the same tuple.
TEST(PlanCacheKey, ShardCountIsPartOfTheKey) {
  PlanCacheKey Whole = keyNumbered(1); // Shards defaults to 0
  PlanCacheKey Sharded = keyNumbered(1);
  Sharded.Shards = 4;
  EXPECT_TRUE(Sharded.canonical().ends_with("/sh4"));
  EXPECT_NE(Whole.canonical(), Sharded.canonical());

  PlanCache Cache(4);
  Cache.put(Whole, somePlans());
  EXPECT_EQ(Cache.get(Sharded), nullptr)
      << "sharded request served the whole-graph entry";
}

TEST(PlanCache, MissThenHitAndCounters) {
  PlanCache Cache(4);
  PlanCacheKey Key = keyNumbered(0);
  EXPECT_EQ(Cache.get(Key), nullptr);
  Cache.put(Key, somePlans());
  bool DiskHit = true;
  PlanCache::Plans Got = Cache.get(Key, &DiskHit);
  ASSERT_NE(Got, nullptr);
  EXPECT_FALSE(DiskHit);
  EXPECT_EQ(Got->size(), somePlans()->size());
  PlanCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.Spills, 0u); // no spill dir configured
}

TEST(PlanCache, EvictsLeastRecentlyUsedInOrder) {
  PlanCache Cache(3);
  for (uint64_t I = 0; I < 3; ++I)
    Cache.put(keyNumbered(I), somePlans());
  // MRU -> LRU is insertion-reversed: 2, 1, 0.
  std::vector<std::string> Want = {keyNumbered(2).canonical(),
                                   keyNumbered(1).canonical(),
                                   keyNumbered(0).canonical()};
  EXPECT_EQ(Cache.keysMruToLru(), Want);

  // Touching key 0 promotes it to the front...
  ASSERT_NE(Cache.get(keyNumbered(0)), nullptr);
  Want = {keyNumbered(0).canonical(), keyNumbered(2).canonical(),
          keyNumbered(1).canonical()};
  EXPECT_EQ(Cache.keysMruToLru(), Want);

  // ...so inserting a fourth entry evicts key 1, not key 0.
  Cache.put(keyNumbered(3), somePlans());
  Want = {keyNumbered(3).canonical(), keyNumbered(0).canonical(),
          keyNumbered(2).canonical()};
  EXPECT_EQ(Cache.keysMruToLru(), Want);
  EXPECT_EQ(Cache.get(keyNumbered(1)), nullptr);
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
}

TEST(PlanCache, RePutRefreshesRecencyWithoutGrowing) {
  PlanCache Cache(2);
  Cache.put(keyNumbered(0), somePlans());
  Cache.put(keyNumbered(1), somePlans());
  Cache.put(keyNumbered(0), somePlans()); // refresh, not duplicate
  EXPECT_EQ(Cache.size(), 2u);
  std::vector<std::string> Want = {keyNumbered(0).canonical(),
                                   keyNumbered(1).canonical()};
  EXPECT_EQ(Cache.keysMruToLru(), Want);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
}

TEST(PlanCache, EvictedEntryReloadsFromSpillFile) {
  std::string Dir = uniqueTempDir("spill");
  PlanCache Cache(1, Dir);
  PlanCacheKey K0 = keyNumbered(0), K1 = keyNumbered(1);
  Cache.put(K0, somePlans());
  Cache.put(K1, somePlans()); // evicts K0 from memory; disk copy remains
  EXPECT_EQ(Cache.stats().Spills, 2u);

  bool DiskHit = false;
  PlanCache::Plans Got = Cache.get(K0, &DiskHit);
  ASSERT_NE(Got, nullptr);
  EXPECT_TRUE(DiskHit);
  EXPECT_EQ(Got->size(), somePlans()->size());
  EXPECT_EQ((*Got)[0].canonicalKey(), (*somePlans())[0].canonicalKey());
  PlanCacheStats S = Cache.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.Corrupt, 0u);
}

TEST(PlanCache, HashCollisionInSpillFileIsAMissNotAWrongAnswer) {
  std::string Dir = uniqueTempDir("collision");
  PlanCache Cache(4, Dir);
  PlanCacheKey Key = keyNumbered(0);

  // Simulate a 64-bit file-name collision: a valid spill file sitting at
  // Key's path but embedding a DIFFERENT canonical key.
  PlanCacheKey Other = keyNumbered(7);
  std::string Path = Cache.spillPathFor(Key);
  ASSERT_FALSE(Path.empty());
  {
    std::filesystem::create_directories(Dir);
    std::ofstream Out(Path);
    Out << "granii-plan-cache-v1 " << Other.canonical() << "\n"
        << serializePlans(*somePlans());
  }
  EXPECT_EQ(Cache.get(Key), nullptr);
  PlanCacheStats S = Cache.stats();
  EXPECT_EQ(S.Corrupt, 1u);
  EXPECT_EQ(S.Misses, 1u);
  // The imposter file was removed, so the key can be cached cleanly now.
  EXPECT_FALSE(std::filesystem::exists(Path));
  Cache.put(Key, somePlans());
  std::ifstream Check(Path);
  std::string Header, Embedded;
  Check >> Header >> Embedded;
  EXPECT_EQ(Embedded, Key.canonical());
}

TEST(PlanCache, CorruptSpillFileIsDeletedAndTreatedAsMiss) {
  std::string Dir = uniqueTempDir("corrupt");
  PlanCache Cache(1, Dir);
  PlanCacheKey K0 = keyNumbered(0);
  Cache.put(K0, somePlans());
  Cache.put(keyNumbered(1), somePlans()); // push K0 out of memory

  // Truncate the spill body mid-record.
  std::string Path = Cache.spillPathFor(K0);
  {
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Text = Buf.str();
    ASSERT_GT(Text.size(), 40u);
    std::ofstream Out(Path, std::ios::trunc);
    Out << Text.substr(0, Text.size() / 2);
  }
  EXPECT_EQ(Cache.get(K0), nullptr);
  EXPECT_EQ(Cache.stats().Corrupt, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path));

  // Recovery: recompile-and-put works and the new spill file round-trips.
  Cache.put(K0, somePlans());
  Cache.put(keyNumbered(2), somePlans());
  bool DiskHit = false;
  EXPECT_NE(Cache.get(K0, &DiskHit), nullptr);
  EXPECT_TRUE(DiskHit);
}

TEST(PlanCache, GarbageHeaderIsRejected) {
  std::string Dir = uniqueTempDir("header");
  PlanCache Cache(2, Dir);
  PlanCacheKey Key = keyNumbered(3);
  std::string Path = Cache.spillPathFor(Key);
  std::filesystem::create_directories(Dir);
  {
    std::ofstream Out(Path);
    Out << "not-a-plan-cache-file at all\n";
  }
  EXPECT_EQ(Cache.get(Key), nullptr);
  EXPECT_EQ(Cache.stats().Corrupt, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path));
}

TEST(PlanCache, SharedValueSurvivesEviction) {
  PlanCache Cache(1);
  Cache.put(keyNumbered(0), somePlans());
  PlanCache::Plans Held = Cache.get(keyNumbered(0));
  ASSERT_NE(Held, nullptr);
  Cache.put(keyNumbered(1), somePlans()); // evicts entry 0
  // A session still holding the shared_ptr keeps using it safely.
  EXPECT_EQ(Held->size(), somePlans()->size());
  EXPECT_FALSE((*Held)[0].Name.empty());
}
