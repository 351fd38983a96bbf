//===- Stats.h - Basic statistics helpers ----------------------*- C++ -*-===//
///
/// \file
/// Aggregate statistics (mean, geomean, stddev, percentiles) used by the
/// graph featurizer, the cost-model trainer, and the experiment harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SUPPORT_STATS_H
#define GRANII_SUPPORT_STATS_H

#include <vector>

namespace granii {

/// Arithmetic mean of \p Values; 0 for an empty vector.
double meanOf(const std::vector<double> &Values);

/// Geometric mean of \p Values; 1 for an empty vector. All values must be
/// positive.
double geomeanOf(const std::vector<double> &Values);

/// Population standard deviation of \p Values; 0 for fewer than two values.
double stddevOf(const std::vector<double> &Values);

/// \p Q-quantile (in [0, 1]) of \p Values via linear interpolation on a
/// sorted copy; 0 for an empty vector.
double quantileOf(std::vector<double> Values, double Q);

/// Median shortcut for quantileOf(Values, 0.5).
double medianOf(const std::vector<double> &Values);

/// Gini coefficient of the nonnegative values in \p Values (degree
/// inequality measure used by the input featurizer); 0 for empty input.
double giniOf(std::vector<double> Values);

/// giniOf() of values already sorted ascending.
double giniOfSorted(const std::vector<double> &Ascending);

} // namespace granii

#endif // GRANII_SUPPORT_STATS_H
