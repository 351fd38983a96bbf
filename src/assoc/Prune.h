//===- Prune.h - Input-oblivious offline pruning ----------------*- C++ -*-===//
///
/// \file
/// GRANII's offline pruning (paper §IV-C "Pruning Associations"). Two
/// embedding-size scenarios are considered — K_in >= K_out (`>`) and
/// K_in < K_out (`<`) — and in each, a candidate is unprofitable when:
///
///  1. a *strict subset* of its primitives (at the same sizes) equals the
///     complete primitive multiset of another candidate (this also removes
///     cost-duplicates), or
///  2. another candidate uses the same primitive multiset but with
///     everywhere-no-larger (and somewhere smaller) operand sizes.
///
/// Candidates unprofitable in both scenarios are removed; survivors are
/// annotated with the scenarios in which they can win, which the runtime
/// uses to build pure embedding-size dispatch conditions.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_ASSOC_PRUNE_H
#define GRANII_ASSOC_PRUNE_H

#include "assoc/Composition.h"

#include <array>

namespace granii {

/// Statistics reported by the pruning pass (paper §VI-B reports these per
/// model).
struct PruneStats {
  size_t Enumerated = 0;
  size_t Pruned = 0;
  size_t Promoted = 0;
};

/// Representative bindings used to evaluate symbolic sizes per scenario.
DimBinding pruneScenarioGe(); ///< K_in >= K_out
DimBinding pruneScenarioLt(); ///< K_in <  K_out

/// Kind and sizes of one primitive instance, comparable elementwise.
struct SizedPrim {
  PrimitiveKind Kind;
  std::array<int64_t, 4> Sizes; // rows, cols, inner, nnz

  bool operator<(const SizedPrim &Other) const {
    if (Kind != Other.Kind)
      return Kind < Other.Kind;
    return Sizes < Other.Sizes;
  }
  bool operator==(const SizedPrim &Other) const {
    return Kind == Other.Kind && Sizes == Other.Sizes;
  }
};

/// A plan's primitives under one binding, sorted: the multiset both pruning
/// rules compare. Two plans with equal multisets are cost-duplicates.
using SizedMultiset = std::vector<SizedPrim>;

/// Builds \p Plan's sized multiset under \p Binding.
SizedMultiset sizedMultiset(const CompositionPlan &Plan,
                            const DimBinding &Binding);

/// Rule 1: \p Dominator's multiset is a proper sub-multiset of
/// \p Candidate's.
bool subsetDominates(const SizedMultiset &Dominator,
                     const SizedMultiset &Candidate);

/// Rule 2: the same primitive kinds and counts at everywhere-no-larger
/// sizes, at least one strictly smaller.
bool sizeDominates(const SizedMultiset &Dominator,
                   const SizedMultiset &Candidate);

/// \returns true if \p Dominator makes \p Candidate unprofitable by rule 1
/// or rule 2.
inline bool dominates(const SizedMultiset &Dominator,
                      const SizedMultiset &Candidate) {
  return subsetDominates(Dominator, Candidate) ||
         sizeDominates(Dominator, Candidate);
}

/// Runs the pruning pass; returns the promoted candidates with their
/// ViableGe / ViableLt annotations set.
std::vector<CompositionPlan> pruneCompositions(std::vector<CompositionPlan> Plans,
                                               PruneStats *Stats = nullptr);

} // namespace granii

#endif // GRANII_ASSOC_PRUNE_H
