//===- Reference.h - Independent output check -------------------*- C++ -*-===//
///
/// \file
/// The benchmark's own double-precision forward pass for the six models of
/// perfbench/models (GCN, GIN, SGC, TAGCN, SAGE, GAT), evaluated on a few
/// sampled output rows. It reads the graph from the benchmark's own
/// adjacency file and the parameters from makeLayerParams with the request's
/// seed, so it shares neither the program's graph loader nor its kernels.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "Inputs.h"

#include "granii/Granii.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A model file parsed the way the serving engine parses request text.
struct LoadedModel {
  std::string Text;
  granii::GnnModel Model;
};
LoadedModel loadModelFile(const std::string &Path);

/// The seeded layer parameters a request with \p Seed receives. Features
/// and weights depend only on the node count, so the graph structure is not
/// needed (the returned AdjSelf is empty and must not be used).
granii::LayerParams seededParams(const granii::GnnModel &Model, int64_t Nodes,
                                 int64_t KIn, int64_t KOut, uint64_t Seed);

/// Output rows the check evaluates per output matrix.
constexpr size_t CheckedRows = 48;

/// Output rows to check: the highest-degree rows (long reductions) plus
/// seeded uniform picks, sorted and distinct.
std::vector<int64_t> sampleRows(const Adjacency &Adj, size_t Count,
                                uint64_t Seed);

struct CheckResult {
  int64_t RowsChecked = 0;
  int64_t RowsWrong = 0;
  /// max |out - ref| / scale, where a row's scale is its largest
  /// |pre-activation| in the reference.
  double MaxError = 0.0;
  bool ok() const { return RowsChecked > 0 && RowsWrong == 0; }
};

/// Compares \p Rows of the row-major \p Output (Nodes x KOut) against the
/// reference forward pass. \p InjectFault first moves one entry of the first
/// sampled row, in a copy of the output, by 1% of that row's scale, to prove
/// the check catches a small error in a single row.
CheckResult checkOutput(const granii::GnnModel &Model, const Adjacency &Adj,
                        const granii::LayerParams &Params,
                        const float *Output, int64_t OutRows, int64_t OutCols,
                        const std::vector<int64_t> &Rows, bool InjectFault);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
