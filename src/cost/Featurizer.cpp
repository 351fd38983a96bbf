//===- Featurizer.cpp - Input featurizer for cost models --------------------===//

#include "cost/Featurizer.h"

#include <cmath>

using namespace granii;

namespace {

double log1pSafe(double X) { return std::log1p(X > 0.0 ? X : 0.0); }

} // namespace

const std::vector<std::string> &granii::costFeatureNames() {
  static const std::vector<std::string> Names = {
      "log_nodes",        "log_edges",    "density",      "avg_degree",
      "log_max_degree",   "degree_cv",    "degree_gini",  "top_row_frac",
      "log_rows",         "log_cols",     "log_inner",    "log_nnz",
      "log_flops",        "log_bytes",    "log_avg_span", "log_bandwidth",
      "ell_fill_ratio",   "log_row_len_variance"};
  return Names;
}

FeatureVector granii::featurize(const PrimitiveDesc &Desc,
                                const GraphStats &Stats) {
  FeatureVector F;
  F[0] = log1pSafe(static_cast<double>(Stats.NumNodes));
  F[1] = log1pSafe(static_cast<double>(Stats.NumEdges));
  F[2] = Stats.Density;
  F[3] = Stats.AvgDegree;
  F[4] = log1pSafe(Stats.MaxDegree);
  F[5] = Stats.DegreeCv;
  F[6] = Stats.DegreeGini;
  F[7] = Stats.TopRowFraction;
  F[8] = log1pSafe(static_cast<double>(Desc.Rows));
  F[9] = log1pSafe(static_cast<double>(Desc.Cols));
  F[10] = log1pSafe(static_cast<double>(Desc.Inner));
  F[11] = log1pSafe(static_cast<double>(Desc.Nnz));
  F[12] = log1pSafe(Desc.flops());
  F[13] = log1pSafe(Desc.bytes());
  // Locality of the sparse gather pattern: how the same nnz is laid out.
  // Reordering changes only these two, which is what lets the cost model
  // learn when a policy pays.
  F[14] = log1pSafe(Stats.AvgRowSpan);
  F[15] = log1pSafe(Stats.Bandwidth);
  // Row-length regularity: the nnz fraction of an N x MaxDegree padded
  // layout and the spread of row lengths.
  double Padded =
      static_cast<double>(Stats.NumNodes) * std::max(Stats.MaxDegree, 0.0);
  F[16] = Padded > 0.0 ? static_cast<double>(Stats.NumEdges) / Padded : 1.0;
  F[17] = log1pSafe(Stats.DegreeStddev * Stats.DegreeStddev);
  return F;
}
