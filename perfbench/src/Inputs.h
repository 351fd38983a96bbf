//===- Inputs.h - Seeded input graphs of the benchmark ----------*- C++ -*-===//
///
/// \file
/// The benchmark makes its own inputs. A graph is generated from a seed as
/// an undirected edge set and written twice: as a Matrix Market file the
/// program under test loads, and as the benchmark's own binary adjacency
/// (symmetric CSR without self loops) that the reference check reads. The
/// program never sees the binary file and the check never sees the
/// program's loaded graph, so a loader bug cannot hide from the check.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own deterministic stream, independent of the
/// program's generators.
class SeedStream {
public:
  explicit SeedStream(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform integer in [0, Bound).
  uint64_t below(uint64_t Bound);
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// Symmetric adjacency without self loops; columns sorted within each row.
struct Adjacency {
  int64_t Nodes = 0;
  std::vector<int64_t> Offsets; ///< Nodes + 1 entries
  std::vector<int32_t> Cols;

  int64_t degree(int64_t Row) const {
    return Offsets[static_cast<size_t>(Row) + 1] -
           Offsets[static_cast<size_t>(Row)];
  }
};

/// Graph families the workloads use. Both produce exactly \p Directed / 2
/// distinct undirected edges (\p Directed stored entries) over \p Nodes.
///   rmat       skewed power-law (R-MAT, a=0.57 b=0.19 c=0.19)
///   community  clustered: 100 equal communities, 90% of edges inside one
Adjacency generateGraph(const std::string &Kind, int64_t Nodes,
                        int64_t Directed, uint64_t Seed);

/// Writes \p Adj as a "pattern symmetric" Matrix Market file (lower
/// triangle, 1-based) and as the benchmark's binary adjacency file.
void writeGraphFiles(const Adjacency &Adj, const std::string &MtxPath,
                     const std::string &BinPath);

/// Reads the binary adjacency file written by writeGraphFiles.
Adjacency readAdjacency(const std::string &BinPath);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
