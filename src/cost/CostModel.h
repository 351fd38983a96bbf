//===- CostModel.h - Per-primitive cost models ------------------*- C++ -*-===//
///
/// \file
/// Cost models predicting the execution time of one primitive instance on
/// one platform given the input graph's features (paper §IV-E). The
/// learned variant holds one gradient-boosted ensemble per primitive kind
/// (trained on log-seconds); the analytic variant reuses the hardware
/// model's roofline estimate and serves as the ablation baseline.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_COST_COSTMODEL_H
#define GRANII_COST_COSTMODEL_H

#include "assoc/Composition.h"
#include "cost/Featurizer.h"
#include "cost/Gbt.h"
#include "graph/Graph.h"
#include "hw/HardwareModel.h"

#include <map>
#include <memory>
#include <string>

namespace granii {

/// Abstract per-primitive cost oracle.
class CostModel {
public:
  virtual ~CostModel();

  /// Predicted seconds for one primitive execution.
  virtual double primitiveSeconds(const PrimitiveDesc &Desc,
                                  const GraphStats &Stats) const = 0;

  virtual std::string name() const = 0;

  /// Total predicted seconds of a plan over \p Iterations iterations with
  /// setup steps charged once (the quantity GRANII minimizes online).
  double planSeconds(const CompositionPlan &Plan, const DimBinding &Binding,
                     const GraphStats &Stats, int Iterations) const;

  /// Same, with every sparse step costed under \p Format instead of the
  /// plan's stamped format, plus the one-time CSR-to-format structure
  /// conversion charge for non-CSR formats (mirroring the format part of
  /// the executor's layout setup). The quantity the online selector
  /// minimizes jointly over (plan, format).
  double planSeconds(const CompositionPlan &Plan, const DimBinding &Binding,
                     const GraphStats &Stats, int Iterations,
                     SparseFormat Format) const;
};

/// Roofline-based estimates straight from the hardware model.
class AnalyticCostModel : public CostModel {
public:
  explicit AnalyticCostModel(HardwareModel Hw) : Hw(std::move(Hw)) {}

  double primitiveSeconds(const PrimitiveDesc &Desc,
                          const GraphStats &Stats) const override;
  std::string name() const override { return "analytic(" + Hw.name() + ")"; }

private:
  HardwareModel Hw;
};

/// One trained GBT per primitive kind; kinds without a model fall back to
/// the analytic estimate.
class LearnedCostModel : public CostModel {
public:
  explicit LearnedCostModel(HardwareModel Hw)
      : Fallback(Hw), HwName(Hw.name()) {}

  double primitiveSeconds(const PrimitiveDesc &Desc,
                          const GraphStats &Stats) const override;
  std::string name() const override { return "learned(" + HwName + ")"; }

  void setModel(PrimitiveKind Kind, GbtModel Model);
  bool hasModel(PrimitiveKind Kind) const;

  /// Trained ensemble for \p Kind, or null when it falls back to analytic.
  const GbtModel *model(PrimitiveKind Kind) const;
  size_t modelCount() const { return Models.size(); }

  /// Single-file serialization: "model <kind>" header per section.
  std::string serialize() const;
  static std::optional<LearnedCostModel>
  deserialize(const std::string &Text, const HardwareModel &Hw);

  /// Saves to / loads from a file. load returns nullopt on any error.
  bool saveToFile(const std::string &Path) const;
  static std::optional<LearnedCostModel>
  loadFromFile(const std::string &Path, const HardwareModel &Hw);

private:
  std::map<PrimitiveKind, GbtModel> Models;
  AnalyticCostModel Fallback;
  std::string HwName;
};

} // namespace granii

#endif // GRANII_COST_COSTMODEL_H
