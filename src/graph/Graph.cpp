//===- Graph.cpp - Graph wrapper over CSR adjacency ------------------------===//

#include "graph/Graph.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

using namespace granii;

Graph::Graph() : Stats(std::make_shared<LazyStats>()) {}

Graph::Graph(std::string Name, CsrMatrix Adjacency)
    : GraphName(std::move(Name)), Adj(std::move(Adjacency)),
      Stats(std::make_shared<LazyStats>()) {
  Adj.verify();
}

const GraphStats &Graph::stats() const {
  std::call_once(Stats->Once,
                 [this] { Stats->Value = computeGraphStats(Adj); });
  return Stats->Value;
}

Graph Graph::withSelfLoops() const {
  return Graph(GraphName + "+self", addSelfLoops(Adj));
}

bool Graph::isSymmetric() const {
  CsrMatrix T = Adj.transposed();
  return T.rowOffsets() == Adj.rowOffsets() &&
         T.colIndices() == Adj.colIndices();
}

GraphStats granii::countGraphStats(const CsrMatrix &Adjacency) {
  GraphStats S;
  S.NumNodes = Adjacency.rows();
  S.NumEdges = Adjacency.nnz();
  if (S.NumNodes == 0)
    return S;
  const double Nodes = static_cast<double>(S.NumNodes);
  S.Density = static_cast<double>(S.NumEdges) / (Nodes * Nodes);
  S.AvgDegree = static_cast<double>(S.NumEdges) / Nodes;
  return S;
}

GraphStats granii::computeGraphStats(const CsrMatrix &Adjacency) {
  GraphStats S = countGraphStats(Adjacency);
  if (S.NumNodes == 0)
    return S;

  // One walk over the rows: degrees, row spans (averageRowSpan) and the
  // bandwidth (bandwidthOf). Columns ascend within a row, so its first and
  // last column bound both.
  const size_t N = static_cast<size_t>(S.NumNodes);
  const auto &Offsets = Adjacency.rowOffsets();
  const auto &Cols = Adjacency.colIndices();
  std::vector<double> Degrees(N);
  double SpanSum = 0.0;
  int64_t NonEmpty = 0, Bandwidth = 0;
  for (size_t R = 0; R < N; ++R) {
    int64_t Begin = Offsets[R], End = Offsets[R + 1];
    Degrees[R] = static_cast<double>(End - Begin);
    if (Begin == End)
      continue;
    int64_t First = Cols[static_cast<size_t>(Begin)];
    int64_t Last = Cols[static_cast<size_t>(End) - 1];
    SpanSum += static_cast<double>(Last - First + 1);
    ++NonEmpty;
    int64_t Row = static_cast<int64_t>(R);
    Bandwidth =
        std::max({Bandwidth, std::abs(Row - First), std::abs(Row - Last)});
  }
  S.AvgRowSpan = NonEmpty > 0 ? SpanSum / static_cast<double>(NonEmpty) : 0.0;
  S.Bandwidth = static_cast<double>(Bandwidth);

  // The degrees sum exactly to NumEdges, so their mean is AvgDegree.
  S.DegreeStddev = stddevOf(Degrees);
  S.DegreeCv = S.AvgDegree > 0.0 ? S.DegreeStddev / S.AvgDegree : 0.0;
  // One ascending sort serves the maximum, the Gini coefficient and the
  // top-1% sum, which adds the largest degrees first.
  std::vector<double> Ascending = std::move(Degrees);
  std::sort(Ascending.begin(), Ascending.end());
  S.MaxDegree = Ascending.back();
  S.DegreeGini = giniOfSorted(Ascending);
  size_t TopCount = std::max<size_t>(1, N / 100);
  double TopSum = 0.0;
  for (size_t I = 0; I < TopCount; ++I)
    TopSum += Ascending[N - 1 - I];
  S.TopRowFraction = S.NumEdges > 0
                         ? TopSum / static_cast<double>(S.NumEdges)
                         : 0.0;
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
