//===- Reorder.h - Locality-aware graph reordering --------------*- C++ -*-===//
///
/// \file
/// Offline graph preprocessing: vertex permutations that improve the cache
/// locality of the sparse kernels. The GNN layer semantics are invariant
/// under a symmetric relabeling PAP^T of the adjacency as long as the
/// feature rows are permuted the same way; the output then comes out in the
/// relabeled order. The runtime always executes in the caller's vertex
/// order, so relabeling is input preparation a caller does once, before
/// handing the graph over. The cost-model training suite uses it to build
/// relabeled twins of its graphs (locality features, docs/HARDWARE_MODEL.md).
///
/// Two orderings are provided:
///  - reverse Cuthill-McKee (bandwidth-minimizing BFS ordering; clusters
///    each row's neighborhood so its feature gathers stay close together),
///  - degree-descending (packs the hub rows of skewed graphs first so
///    their frequently re-gathered feature rows stay hot in cache).
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_GRAPH_REORDER_H
#define GRANII_GRAPH_REORDER_H

#include "graph/Graph.h"
#include "tensor/CsrMatrix.h"

#include <cstdint>
#include <string>
#include <vector>

namespace granii {

/// A vertex ordering. The executor's trailing ReorderPolicy parameter is
/// ignored (it runs in the caller's order); reorderGraph applies the others.
enum class ReorderPolicy {
  None,   ///< keep the input's vertex order
  Rcm,    ///< reverse Cuthill-McKee
  Degree, ///< degree-descending
};

/// Canonical lowercase name ("none", "rcm", "degree").
std::string reorderPolicyName(ReorderPolicy Policy);

/// A bijective vertex relabeling stored in both directions:
/// NewToOld[n] = o means new vertex n is old vertex o, and
/// OldToNew[o] = n is the inverse map. Both arrays always have size().
class Permutation {
public:
  Permutation() = default;

  /// Builds from a new-to-old order; aborts unless it is a bijection.
  explicit Permutation(std::vector<int32_t> NewToOldOrder);

  /// The identity permutation on \p N vertices.
  static Permutation identity(int64_t N);

  int64_t size() const { return static_cast<int64_t>(NewToOld.size()); }
  bool empty() const { return NewToOld.empty(); }

  int32_t newToOld(int64_t NewId) const {
    return NewToOld[static_cast<size_t>(NewId)];
  }
  int32_t oldToNew(int64_t OldId) const {
    return OldToNew[static_cast<size_t>(OldId)];
  }
  const std::vector<int32_t> &newToOldOrder() const { return NewToOld; }
  const std::vector<int32_t> &oldToNewOrder() const { return OldToNew; }

  /// \returns the inverse permutation (swapped direction arrays).
  Permutation inverse() const;

  bool isIdentity() const;

private:
  std::vector<int32_t> NewToOld;
  std::vector<int32_t> OldToNew;
};

/// Reverse Cuthill-McKee ordering of \p Adjacency (pattern-symmetric CSR).
/// Per connected component, BFS from a minimum-degree vertex visiting
/// neighbors in ascending-degree order (ties by vertex id), then the whole
/// order is reversed. Deterministic for a given matrix.
Permutation reverseCuthillMcKee(const CsrMatrix &Adjacency);

/// Degree-descending ordering: vertices sorted by row nnz, largest first,
/// ties by ascending vertex id (stable and deterministic).
Permutation degreeDescending(const CsrMatrix &Adjacency);

/// The ordering \p Policy prescribes for \p Adjacency; identity for None.
Permutation makeReorderPermutation(ReorderPolicy Policy,
                                   const CsrMatrix &Adjacency);

/// Symmetric relabeling PAP^T: new row n holds old row NewToOld[n] with
/// every column index mapped through OldToNew and re-sorted (values follow
/// their columns). Requires a square matrix; weights are preserved.
CsrMatrix permuteSymmetric(const CsrMatrix &A, const Permutation &Perm);

/// Matrix bandwidth: max |row - col| over stored entries (0 when empty).
int64_t bandwidthOf(const CsrMatrix &A);

/// Mean over nonempty rows of (max col - min col + 1): the span of memory
/// a row's gathers touch, the locality signal the cost models consume.
double averageRowSpan(const CsrMatrix &A);

/// Relabels a whole Graph under \p Policy (stats recomputed; the name is
/// suffixed with "+<policy>"). Identity policy returns a plain copy.
Graph reorderGraph(const Graph &G, ReorderPolicy Policy);

} // namespace granii

#endif // GRANII_GRAPH_REORDER_H
