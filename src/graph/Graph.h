//===- Graph.h - Graph wrapper over CSR adjacency ---------------*- C++ -*-===//
///
/// \file
/// The input-graph abstraction: a named CSR adjacency matrix plus its
/// structural statistics, computed on first read. GRANII's online stage
/// inspects these statistics (via the input featurizer) to pick a
/// primitive composition.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_GRAPH_GRAPH_H
#define GRANII_GRAPH_GRAPH_H

#include "tensor/CsrMatrix.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace granii {

/// Largest node count a graph can have: CSR column indices are int32_t.
/// Loaders reject anything larger before allocating for it.
inline constexpr int64_t MaxGraphNodes = INT32_MAX;

/// Structural statistics of a graph, the raw material of the featurizer.
struct GraphStats {
  int64_t NumNodes = 0;
  int64_t NumEdges = 0;     ///< stored directed edges (nnz of adjacency)
  double Density = 0.0;     ///< nnz / n^2
  double AvgDegree = 0.0;
  double MaxDegree = 0.0;
  double DegreeStddev = 0.0;
  double DegreeCv = 0.0;    ///< stddev / mean (irregularity)
  double DegreeGini = 0.0;  ///< inequality of the degree distribution
  double TopRowFraction = 0.0; ///< fraction of edges in top 1% of rows
  /// Mean over nonempty rows of (max col - min col + 1): how much dense-
  /// operand memory one row's gathers span; a locality-improving vertex
  /// relabeling (graph/Reorder.h) shrinks it.
  double AvgRowSpan = 0.0;
  double Bandwidth = 0.0; ///< max |row - col| over stored edges
};

/// An undirected (symmetric adjacency) graph used as GNN input.
class Graph {
public:
  Graph();
  Graph(std::string Name, CsrMatrix Adjacency);

  const std::string &name() const { return GraphName; }
  const CsrMatrix &adjacency() const { return Adj; }
  int64_t numNodes() const { return Adj.rows(); }
  int64_t numEdges() const { return Adj.nnz(); }

  /// Structural statistics, computed by the first call (safe from
  /// concurrent readers) and shared with every copy of this graph. A
  /// session selects on its self-loop adjacency's statistics, so a loaded
  /// graph's are computed only if something asks.
  const GraphStats &stats() const;

  /// \returns a copy of this graph with a self edge added to every node
  /// (the paper's \tilde{A}); already-present self edges are kept once.
  Graph withSelfLoops() const;

  /// \returns true if the adjacency pattern is symmetric.
  bool isSymmetric() const;

private:
  struct LazyStats {
    std::once_flag Once;
    GraphStats Value;
  };

  std::string GraphName;
  CsrMatrix Adj;
  std::shared_ptr<LazyStats> Stats;
};

/// The statistics that follow from \p Adjacency's row and stored-edge
/// counts alone: NumNodes, NumEdges, Density and AvgDegree (0 without
/// nodes); the rest stay 0. Costs no pass over the graph.
GraphStats countGraphStats(const CsrMatrix &Adjacency);

/// Computes structural statistics of \p Adjacency: countGraphStats, then
/// the ones that read its rows.
GraphStats computeGraphStats(const CsrMatrix &Adjacency);

/// \returns the unweighted pattern of the square matrix \p Adjacency with
/// the diagonal added to every row (an already-present diagonal is kept
/// once). One pass: the diagonal is merged into each row's strictly
/// increasing columns (CsrMatrix::verify's invariant), no sort.
CsrMatrix addSelfLoops(const CsrMatrix &Adjacency);

} // namespace granii

#endif // GRANII_GRAPH_GRAPH_H
