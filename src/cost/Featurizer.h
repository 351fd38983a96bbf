//===- Featurizer.h - Input featurizer for cost models ----------*- C++ -*-===//
///
/// \file
/// GRANII's input featurizer (paper §IV-E1): turns the input graph's
/// structural statistics plus the primitive instance's concrete sizes into
/// the fixed-length feature vector consumed by the per-primitive learned
/// cost models. Hand-crafted features are used (the paper rejects learned
/// feature extractors for scalability reasons).
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_COST_FEATURIZER_H
#define GRANII_COST_FEATURIZER_H

#include "graph/Graph.h"
#include "kernels/Primitive.h"

#include <array>
#include <string>
#include <vector>

namespace granii {

/// Number of features produced per sample. Cached models trained against
/// another width are rejected by the trainer's staleness check and
/// retrained.
inline constexpr size_t NumCostFeatures = 20;

using FeatureVector = std::array<double, NumCostFeatures>;

/// Names of the features, index-aligned with featurize().
const std::vector<std::string> &costFeatureNames();

/// Builds the feature vector for one primitive instance on one graph.
FeatureVector featurize(const PrimitiveDesc &Desc, const GraphStats &Stats);

} // namespace granii

#endif // GRANII_COST_FEATURIZER_H
