//===- Graph.cpp - Graph wrapper over CSR adjacency ------------------------===//

#include "graph/Graph.h"

#include "graph/Reorder.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace granii;

Graph::Graph(std::string Name, CsrMatrix Adjacency)
    : GraphName(std::move(Name)), Adj(std::move(Adjacency)) {
  Adj.verify();
  Stats = computeGraphStats(Adj);
}

Graph Graph::withSelfLoops() const {
  return Graph(GraphName + "+self", addSelfLoops(Adj));
}

bool Graph::isSymmetric() const {
  CsrMatrix T = Adj.transposed();
  return T.rowOffsets() == Adj.rowOffsets() &&
         T.colIndices() == Adj.colIndices();
}

GraphStats granii::computeGraphStats(const CsrMatrix &Adjacency) {
  GraphStats S;
  S.NumNodes = Adjacency.rows();
  S.NumEdges = Adjacency.nnz();
  if (S.NumNodes == 0)
    return S;
  S.Density = static_cast<double>(S.NumEdges) /
              (static_cast<double>(S.NumNodes) * S.NumNodes);

  std::vector<double> Degrees(static_cast<size_t>(S.NumNodes));
  const auto &Offsets = Adjacency.rowOffsets();
  for (int64_t R = 0; R < S.NumNodes; ++R)
    Degrees[static_cast<size_t>(R)] = static_cast<double>(
        Offsets[static_cast<size_t>(R) + 1] - Offsets[static_cast<size_t>(R)]);

  S.AvgDegree = meanOf(Degrees);
  S.MaxDegree = *std::max_element(Degrees.begin(), Degrees.end());
  S.DegreeStddev = stddevOf(Degrees);
  S.DegreeCv = S.AvgDegree > 0.0 ? S.DegreeStddev / S.AvgDegree : 0.0;
  S.DegreeGini = giniOf(Degrees);

  // Fraction of edges carried by the top 1% highest-degree rows.
  std::vector<double> Sorted = Degrees;
  std::sort(Sorted.begin(), Sorted.end(), std::greater<double>());
  size_t TopCount = std::max<size_t>(1, Sorted.size() / 100);
  double TopSum = 0.0;
  for (size_t I = 0; I < TopCount; ++I)
    TopSum += Sorted[I];
  S.TopRowFraction = S.NumEdges > 0
                         ? TopSum / static_cast<double>(S.NumEdges)
                         : 0.0;
  S.AvgRowSpan = averageRowSpan(Adjacency);
  S.Bandwidth = static_cast<double>(bandwidthOf(Adjacency));
  return S;
}

CsrMatrix granii::addSelfLoops(const CsrMatrix &Adjacency) {
  assert(Adjacency.rows() == Adjacency.cols() &&
         "self loops need a square adjacency");
  TraceSpan Span("self-loops", "graph");
  const int64_t N = Adjacency.rows();
  const AlignedVector<int64_t> &InOffsets = Adjacency.rowOffsets();
  const AlignedVector<int32_t> &InCols = Adjacency.colIndices();
  AlignedVector<int64_t> Offsets(static_cast<size_t>(N) + 1, 0);
  AlignedVector<int32_t> Cols;
  Cols.reserve(InCols.size() + static_cast<size_t>(N));
  for (int64_t R = 0; R < N; ++R) {
    auto Row = InCols.begin() + InOffsets[static_cast<size_t>(R)];
    auto RowEnd = InCols.begin() + InOffsets[static_cast<size_t>(R) + 1];
    auto Split = std::lower_bound(Row, RowEnd, static_cast<int32_t>(R));
    Cols.insert(Cols.end(), Row, Split);
    Cols.push_back(static_cast<int32_t>(R));
    if (Split != RowEnd && *Split == R)
      ++Split; // keep an existing diagonal once
    Cols.insert(Cols.end(), Split, RowEnd);
    Offsets[static_cast<size_t>(R) + 1] = static_cast<int64_t>(Cols.size());
  }
  Span.setArg("nnz", static_cast<double>(Cols.size()));
  return CsrMatrix::adopt(N, N, std::move(Offsets), std::move(Cols), {});
}
