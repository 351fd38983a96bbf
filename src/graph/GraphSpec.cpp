//===- GraphSpec.cpp - Textual graph specifications ---------------------------===//

#include "graph/GraphSpec.h"

#include "graph/Generators.h"
#include "graph/MatrixMarket.h"
#include "support/Hash.h"
#include "support/Memory.h"
#include "support/Str.h"
#include "support/Trace.h"

#include <sys/stat.h>

using namespace granii;

namespace {

/// Bytes per requested edge of makeRmat's dedup set on top of the graph it
/// builds: a reserved pair of 8-byte buckets and one heap node per edge.
constexpr int64_t RmatDedupBytesPerEdge = 48;

/// Whether the R-MAT graph \p Nodes / \p Edges can be built here: no more
/// edges than distinct node pairs, and the generator's working set within
/// physical memory. Checked before the generator sizes anything.
bool buildableRmat(int64_t Nodes, int64_t Edges, const std::string &Name,
                   std::string *Err) {
  const int64_t Pairs = Nodes * (Nodes - 1) / 2; // Nodes <= MaxGraphNodes
  std::string Error;
  if (Edges > Pairs) {
    Error = "rmat spec '" + Name + "' asks for " + std::to_string(Edges) +
            " edges, but " + std::to_string(Nodes) + " nodes have at most " +
            std::to_string(Pairs) + " distinct edges";
  } else {
    // Each undirected edge is stored twice.
    int64_t Dedup = 0, Bytes = graphBuildBytes(Nodes, 2 * Edges);
    if (__builtin_mul_overflow(Edges, RmatDedupBytesPerEdge, &Dedup) ||
        Bytes < 0 || __builtin_add_overflow(Bytes, Dedup, &Bytes))
      Bytes = -1;
    if (fitsInMemory(Bytes, physicalMemoryBytes(),
                     "the graph and edge dedup set of rmat spec '" + Name +
                         "'",
                     &Error))
      return true;
  }
  if (Err)
    *Err += Error;
  return false;
}

std::optional<Graph> resolveGraphSpec(const std::string &Spec,
                                      std::string *Err) {
  if (startsWith(Spec, "synth:")) {
    std::string Name = Spec.substr(6);
    // Parameterized R-MAT: "synth:rmat:<nodes>:<edges>[:<seed>]". Lets CI,
    // the benchmarks and the daemon materialize large power-law graphs
    // without shipping a file.
    if (startsWith(Name, "rmat:")) {
      std::vector<std::string> Parts = splitString(Name, ':');
      int64_t Nodes = 0, Edges = 0, Seed = 42;
      bool Valid = Parts.size() == 3 || Parts.size() == 4;
      if (Valid)
        Valid = parseInt64(Parts[1], Nodes) && parseInt64(Parts[2], Edges) &&
                Nodes > 0 && Nodes <= MaxGraphNodes && Edges > 0;
      if (Valid && Parts.size() == 4)
        Valid = parseInt64(Parts[3], Seed) && Seed >= 0;
      if (!Valid) {
        if (Err)
          *Err += "malformed rmat spec '" + Name +
                  "' (want rmat:<nodes>:<edges>[:<seed>], at most " +
                  std::to_string(MaxGraphNodes) + " nodes)";
        return std::nullopt;
      }
      if (!buildableRmat(Nodes, Edges, Name, Err))
        return std::nullopt;
      return makeRmat(Nodes, Edges, 0.57, 0.19, 0.19,
                      static_cast<uint64_t>(Seed),
                      "rmat-" + Parts[1] + "-" + Parts[2] + "-" +
                          std::to_string(Seed));
    }
    for (const char *Known : {"reddit", "com-amazon", "mycielskian",
                              "belgium-osm", "coauthors", "ogbn-products"})
      if (Name == Known)
        return makeEvaluationGraph(Name);
    if (Err)
      *Err += "unknown synthetic graph '" + Name +
              "' (try reddit, com-amazon, mycielskian, belgium-osm, "
              "coauthors, ogbn-products, rmat:<nodes>:<edges>[:<seed>])";
    return std::nullopt;
  }
  std::string ReadError;
  std::optional<Graph> G = readMatrixMarket(Spec, &ReadError);
  if (!G && Err)
    *Err += ReadError;
  return G;
}

} // namespace

std::optional<Graph> granii::loadGraphSpec(const std::string &Spec,
                                           std::string *Err) {
  TraceSpan Span("graph-load", "graph");
  std::optional<Graph> G = resolveGraphSpec(Spec, Err);
  if (G) {
    Span.setArg("nodes", static_cast<double>(G->numNodes()));
    Span.setArg("edges", static_cast<double>(G->numEdges()));
  }
  return G;
}

std::optional<std::string>
granii::graphSpecIdentity(const std::string &Spec) {
  if (startsWith(Spec, "synth:"))
    return Spec;
  struct stat St {};
  if (::stat(Spec.c_str(), &St) != 0)
    return std::nullopt;
  // Seconds and nanoseconds side by side: any time_t a file system stores
  // prints without arithmetic that could overflow.
  auto Time = [](const timespec &T) {
    return std::to_string(T.tv_sec) + "." + std::to_string(T.tv_nsec);
  };
  return Spec + "@" + std::to_string(St.st_dev) + ":" +
         std::to_string(St.st_ino) + ":" + std::to_string(St.st_size) + ":" +
         Time(St.st_mtim) + ":" + Time(St.st_ctim);
}

uint64_t granii::graphFingerprint(const Graph &G) {
  TraceSpan Span("fingerprint", "graph");
  const CsrMatrix &Adj = G.adjacency();
  uint64_t Hash = fnv1a64(G.name());
  Hash = fnv1a64(static_cast<uint64_t>(Adj.rows()), Hash);
  Hash = fnv1a64(static_cast<uint64_t>(Adj.nnz()), Hash);
  Hash = fnv1a64(Adj.rowOffsets().data(),
                 Adj.rowOffsets().size() * sizeof(int64_t), Hash);
  Hash = fnv1a64(Adj.colIndices().data(),
                 Adj.colIndices().size() * sizeof(int32_t), Hash);
  Hash = fnv1a64(Adj.values().data(), Adj.values().size() * sizeof(float),
                 Hash);
  return Hash;
}
