//===- Prune.cpp - Input-oblivious offline pruning --------------------------===//

#include "assoc/Prune.h"

#include "support/Trace.h"

#include <algorithm>

using namespace granii;

DimBinding granii::pruneScenarioGe() {
  DimBinding B;
  B.N = 4096;
  B.E = 65536;
  B.KIn = 128;
  B.KOut = 64;
  return B;
}

DimBinding granii::pruneScenarioLt() {
  DimBinding B;
  B.N = 4096;
  B.E = 65536;
  B.KIn = 64;
  B.KOut = 128;
  return B;
}

SizedMultiset granii::sizedMultiset(const CompositionPlan &Plan,
                                   const DimBinding &Binding) {
  SizedMultiset Result;
  for (const PrimitiveDesc &D : Plan.primitiveDescs(Binding))
    Result.push_back({D.Kind, {D.Rows, D.Cols, D.Inner, D.Nnz}});
  std::sort(Result.begin(), Result.end());
  return Result;
}

bool granii::subsetDominates(const SizedMultiset &Dominator,
                             const SizedMultiset &Candidate) {
  // An equal multiset is a cost-duplicate, not a domination: the caller
  // breaks that tie by index.
  if (Dominator.size() >= Candidate.size())
    return false;
  return std::includes(Candidate.begin(), Candidate.end(), Dominator.begin(),
                       Dominator.end());
}

bool granii::sizeDominates(const SizedMultiset &Dominator,
                           const SizedMultiset &Candidate) {
  if (Dominator.size() != Candidate.size())
    return false;
  bool AnyStrict = false;
  for (size_t I = 0; I < Dominator.size(); ++I) {
    if (Dominator[I].Kind != Candidate[I].Kind)
      return false;
    for (size_t S = 0; S < 4; ++S)
      if (Dominator[I].Sizes[S] > Candidate[I].Sizes[S])
        return false;
    if (!(Dominator[I] == Candidate[I]))
      AnyStrict = true;
  }
  return AnyStrict;
}

std::vector<CompositionPlan>
granii::pruneCompositions(std::vector<CompositionPlan> Plans,
                          PruneStats *Stats) {
  TraceSpan Span("prune", "optimizer");
  Span.setArg("enumerated", static_cast<double>(Plans.size()));
  const DimBinding Ge = pruneScenarioGe();
  const DimBinding Lt = pruneScenarioLt();
  const size_t Count = Plans.size();

  // Precompute size multisets per scenario.
  std::vector<SizedMultiset> GePrims(Count), LtPrims(Count);
  for (size_t I = 0; I < Count; ++I) {
    GePrims[I] = sizedMultiset(Plans[I], Ge);
    LtPrims[I] = sizedMultiset(Plans[I], Lt);
  }

  auto DominatedIn = [&](size_t I, const std::vector<SizedMultiset> &Prims) {
    for (size_t J = 0; J < Count; ++J) {
      if (J == I)
        continue;
      if (dominates(Prims[J], Prims[I]))
        return true;
      // Exact cost-duplicate: keep the lower-indexed plan.
      if (Prims[J] == Prims[I] && J < I)
        return true;
    }
    return false;
  };

  std::vector<CompositionPlan> Promoted;
  size_t Pruned = 0;
  for (size_t I = 0; I < Count; ++I) {
    bool GeDominated = DominatedIn(I, GePrims);
    bool LtDominated = DominatedIn(I, LtPrims);
    if (GeDominated && LtDominated) {
      ++Pruned;
      continue;
    }
    CompositionPlan Plan = std::move(Plans[I]);
    Plan.ViableGe = !GeDominated;
    Plan.ViableLt = !LtDominated;
    Promoted.push_back(std::move(Plan));
  }

  if (Stats) {
    Stats->Enumerated = Count;
    Stats->Pruned = Pruned;
    Stats->Promoted = Promoted.size();
  }
  Span.setArg("promoted", static_cast<double>(Promoted.size()));
  return Promoted;
}
