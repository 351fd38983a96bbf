//===- Stats.cpp - Basic statistics helpers -------------------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace granii;

double granii::meanOf(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double granii::geomeanOf(const std::vector<double> &Values) {
  if (Values.empty())
    return 1.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geomean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double granii::stddevOf(const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0.0;
  double Mean = meanOf(Values);
  double SumSq = 0.0;
  for (double V : Values)
    SumSq += (V - Mean) * (V - Mean);
  return std::sqrt(SumSq / static_cast<double>(Values.size()));
}

double granii::quantileOf(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  Q = std::clamp(Q, 0.0, 1.0);
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] * (1.0 - Frac) + Values[Hi] * Frac;
}

double granii::medianOf(const std::vector<double> &Values) {
  return quantileOf(Values, 0.5);
}

double granii::giniOf(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  return giniOfSorted(Values);
}

double granii::giniOfSorted(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0, WeightedSum = 0.0;
  for (size_t I = 0; I < Values.size(); ++I) {
    Sum += Values[I];
    WeightedSum += static_cast<double>(I + 1) * Values[I];
  }
  if (Sum <= 0.0)
    return 0.0;
  double N = static_cast<double>(Values.size());
  return (2.0 * WeightedSum) / (N * Sum) - (N + 1.0) / N;
}
