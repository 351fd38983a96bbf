//===- PlanCacheTests.cpp - Tests for the serving plan cache ----------------===//

#include "serve/PlanCache.h"

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "models/Models.h"

#include <gtest/gtest.h>

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

/// Stands in for a model's DSL text, the cache's key.
std::string keyNumbered(int N) {
  return "model M" + std::to_string(N) + " { ... }";
}

} // namespace

TEST(PlanCache, MissThenHitAndCounters) {
  PlanCache Cache(4);
  EXPECT_EQ(Cache.get(keyNumbered(0)), nullptr);
  Cache.put(keyNumbered(0), somePlans());
  PlanCache::Plans Got = Cache.get(keyNumbered(0));
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Got->size(), somePlans()->size());
  PlanCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

// The key is the whole text: texts that differ in one byte are different
// entries.
TEST(PlanCache, KeysAreExactText) {
  PlanCache Cache(4);
  Cache.put("model A { x }", somePlans());
  EXPECT_EQ(Cache.get("model A { x } "), nullptr);
  EXPECT_EQ(Cache.get("model A { y }"), nullptr);
  EXPECT_NE(Cache.get("model A { x }"), nullptr);
}

TEST(PlanCache, EvictsLeastRecentlyUsedInOrder) {
  PlanCache Cache(3);
  for (int I = 0; I < 3; ++I)
    Cache.put(keyNumbered(I), somePlans());
  // MRU -> LRU is insertion-reversed: 2, 1, 0.
  std::vector<std::string> Want = {keyNumbered(2), keyNumbered(1),
                                   keyNumbered(0)};
  EXPECT_EQ(Cache.keysMruToLru(), Want);

  // Touching key 0 promotes it to the front...
  ASSERT_NE(Cache.get(keyNumbered(0)), nullptr);
  Want = {keyNumbered(0), keyNumbered(2), keyNumbered(1)};
  EXPECT_EQ(Cache.keysMruToLru(), Want);

  // ...so inserting a fourth entry evicts key 1, not key 0.
  Cache.put(keyNumbered(3), somePlans());
  Want = {keyNumbered(3), keyNumbered(0), keyNumbered(2)};
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
  std::vector<std::string> Want = {keyNumbered(0), keyNumbered(1)};
  EXPECT_EQ(Cache.keysMruToLru(), Want);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
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
