//===- CostModel.cpp - Per-primitive cost models -----------------------------===//

#include "cost/CostModel.h"

#include "support/Str.h"

#include <cmath>
#include <fstream>
#include <sstream>

using namespace granii;

CostModel::~CostModel() = default;

double CostModel::planSeconds(const CompositionPlan &Plan,
                              const DimBinding &Binding,
                              const GraphStats &Stats, int Iterations) const {
  return planSeconds(Plan, Binding, Stats, Iterations, Plan.Format);
}

double CostModel::planSeconds(const CompositionPlan &Plan,
                              const DimBinding &Binding,
                              const GraphStats &Stats, int Iterations,
                              SparseFormat Format) const {
  std::vector<PrimitiveDesc> Descs = Plan.primitiveDescs(Binding);
  double Total = 0.0;
  for (size_t I = 0; I < Plan.Steps.size(); ++I) {
    PrimitiveDesc Desc = Descs[I];
    if (isSparsePrimitive(Desc.Kind))
      Desc.Format = Format;
    double Mult =
        Plan.Steps[I].Setup ? 1.0 : static_cast<double>(Iterations);
    Total += Mult * primitiveSeconds(Desc, Stats);
  }
  if (Format != SparseFormat::Csr) {
    // One-time structure conversion, charged exactly like the format part
    // of the executor's layoutSetup: an O(E) edge pass stamped with the
    // target format.
    PrimitiveDesc Conv{PrimitiveKind::EdgeElementwise, Binding.N, 0, 0,
                       Binding.E};
    Conv.Format = Format;
    Total += primitiveSeconds(Conv, Stats);
  }
  return Total;
}

double AnalyticCostModel::primitiveSeconds(const PrimitiveDesc &Desc,
                                           const GraphStats &Stats) const {
  return Hw.estimateSeconds(Desc, &Stats);
}

double LearnedCostModel::primitiveSeconds(const PrimitiveDesc &Desc,
                                          const GraphStats &Stats) const {
  auto It = Models.find(Desc.Kind);
  if (It == Models.end())
    return Fallback.primitiveSeconds(Desc, Stats);
  FeatureVector Features = featurize(Desc, Stats);
  // Models are trained on log-seconds for stable relative accuracy.
  return std::exp(It->second.predict(Features.data()));
}

void LearnedCostModel::setModel(PrimitiveKind Kind, GbtModel Model) {
  Models.insert_or_assign(Kind, std::move(Model));
}

bool LearnedCostModel::hasModel(PrimitiveKind Kind) const {
  return Models.count(Kind) != 0;
}

const GbtModel *LearnedCostModel::model(PrimitiveKind Kind) const {
  auto It = Models.find(Kind);
  return It == Models.end() ? nullptr : &It->second;
}

std::string LearnedCostModel::serialize() const {
  std::string Out;
  for (const auto &[Kind, Model] : Models) {
    Out += "model " + primitiveName(Kind) + "\n";
    Out += Model.serialize();
    Out += "end\n";
  }
  return Out;
}

std::optional<LearnedCostModel>
LearnedCostModel::deserialize(const std::string &Text,
                              const HardwareModel &Hw) {
  LearnedCostModel Result(Hw);
  std::vector<std::string> Lines = splitString(Text, '\n');
  size_t Pos = 0;
  while (Pos < Lines.size()) {
    std::string_view Line = trimString(Lines[Pos]);
    if (Line.empty()) {
      ++Pos;
      continue;
    }
    if (!startsWith(Line, "model "))
      return std::nullopt;
    std::string KindName(Line.substr(6));
    ++Pos;
    // Collect lines until "end".
    std::string Body;
    bool Terminated = false;
    while (Pos < Lines.size()) {
      if (trimString(Lines[Pos]) == "end") {
        ++Pos;
        Terminated = true;
        break;
      }
      Body += Lines[Pos] + "\n";
      ++Pos;
    }
    if (!Terminated)
      return std::nullopt;
    std::optional<GbtModel> Model = GbtModel::deserialize(Body);
    if (!Model)
      return std::nullopt;
    bool Found = false;
    for (PrimitiveKind Kind : allPrimitiveKinds()) {
      if (primitiveName(Kind) == KindName) {
        Result.setModel(Kind, std::move(*Model));
        Found = true;
        break;
      }
    }
    if (!Found)
      return std::nullopt;
  }
  return Result;
}

bool LearnedCostModel::saveToFile(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << serialize();
  return static_cast<bool>(Out);
}

std::optional<LearnedCostModel>
LearnedCostModel::loadFromFile(const std::string &Path,
                               const HardwareModel &Hw) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Contents;
  Contents << In.rdbuf();
  return deserialize(Contents.str(), Hw);
}
