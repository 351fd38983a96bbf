//===- GraphTests.cpp - Tests for graphs, generators, IO, sampling ----------===//

#include "graph/Generators.h"
#include "tensor/DenseMatrix.h"
#include "graph/Graph.h"
#include "graph/GraphSpec.h"
#include "graph/MatrixMarket.h"
#include "graph/Sampling.h"
#include "support/Memory.h"
#include "support/Rng.h"
#include "tensor/CooMatrix.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

using namespace granii;

//===----------------------------------------------------------------------===//
// Graph wrapper & statistics
//===----------------------------------------------------------------------===//

TEST(Graph, StatsBasics) {
  Graph G = makeRing(10);
  EXPECT_EQ(G.numNodes(), 10);
  EXPECT_EQ(G.numEdges(), 20); // Stored directed both ways.
  EXPECT_DOUBLE_EQ(G.stats().AvgDegree, 2.0);
  EXPECT_NEAR(G.stats().DegreeCv, 0.0, 1e-12);
}

TEST(Graph, StarStatsAreSkewed) {
  Graph G = makeStar(101);
  EXPECT_DOUBLE_EQ(G.stats().MaxDegree, 100.0);
  EXPECT_GT(G.stats().DegreeCv, 3.0);
  EXPECT_GT(G.stats().DegreeGini, 0.4);
  EXPECT_GT(G.stats().TopRowFraction, 0.45); // Hub holds half the edges.
}

TEST(Graph, SelfLoopsAddNPerNode) {
  Graph G = makeRing(8);
  Graph S = G.withSelfLoops();
  EXPECT_EQ(S.numEdges(), G.numEdges() + 8);
  // Idempotent on already-present self loops.
  Graph S2 = S.withSelfLoops();
  EXPECT_EQ(S2.numEdges(), S.numEdges());
}

TEST(Graph, SelfLoopsMatchCooReference) {
  // Reference: every row's columns plus its diagonal, deduplicated by a
  // COO rebuild through toCsr.
  auto Reference = [](const CsrMatrix &Adj) {
    CooMatrix Coo(Adj.rows(), Adj.cols());
    for (int64_t R = 0; R < Adj.rows(); ++R) {
      Coo.add(R, R);
      for (int64_t K = Adj.rowOffsets()[static_cast<size_t>(R)];
           K < Adj.rowOffsets()[static_cast<size_t>(R) + 1]; ++K)
        Coo.add(R, Adj.colIndices()[static_cast<size_t>(K)]);
    }
    return Coo.toCsr();
  };
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Rng R(Seed);
    const int64_t N = 40;
    CooMatrix Coo(N, N);
    for (int I = 0; I < 120; ++I) {
      // Nodes 30..39 stay isolated: empty rows.
      int64_t U = static_cast<int64_t>(R.nextBelow(30));
      int64_t V = static_cast<int64_t>(R.nextBelow(30));
      if (U != V || Seed % 2 == 0) // even seeds keep some diagonals
        Coo.addSymmetric(U, V, R.nextFloat(0.5f, 2.0f));
    }
    Graph G("g", Coo.toCsr(/*Unweighted=*/Seed > 2));
    Graph S = G.withSelfLoops();
    CsrMatrix Want = Reference(G.adjacency());
    SCOPED_TRACE("seed " + std::to_string(Seed));
    EXPECT_EQ(S.name(), "g+self");
    EXPECT_FALSE(S.adjacency().isWeighted());
    EXPECT_EQ(S.adjacency().rowOffsets(), Want.rowOffsets());
    EXPECT_EQ(S.adjacency().colIndices(), Want.colIndices());
    EXPECT_EQ(addSelfLoops(G.adjacency()).colIndices(), Want.colIndices());
  }
  // Every row already has its diagonal: the pattern comes back unchanged.
  Graph Full = makeComplete(6).withSelfLoops();
  EXPECT_EQ(addSelfLoops(Full.adjacency()).colIndices(),
            Full.adjacency().colIndices());
}

TEST(Graph, GeneratedGraphsAreSymmetric) {
  for (const Graph &G :
       {makeErdosRenyi(100, 300, 1), makeRmat(128, 500, 0.5, 0.2, 0.2, 2),
        makeRoadLattice(8, 8, 0.1, 3), makeMycielskian(6),
        makeCommunityGraph(10, 8, 0.5, 40, 4)})
    EXPECT_TRUE(G.isSymmetric()) << G.name();
}

TEST(Graph, CompleteDensity) {
  Graph G = makeComplete(20);
  EXPECT_EQ(G.numEdges(), 20 * 19);
  EXPECT_NEAR(G.stats().Density, 19.0 / 20.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Generators
//===----------------------------------------------------------------------===//

TEST(Generators, ErdosRenyiDeterministic) {
  Graph A = makeErdosRenyi(200, 1000, 42);
  Graph B = makeErdosRenyi(200, 1000, 42);
  EXPECT_EQ(A.adjacency().colIndices(), B.adjacency().colIndices());
}

TEST(Generators, ErdosRenyiSeedChangesGraph) {
  Graph A = makeErdosRenyi(200, 1000, 42);
  Graph B = makeErdosRenyi(200, 1000, 43);
  EXPECT_NE(A.adjacency().colIndices(), B.adjacency().colIndices());
}

TEST(Generators, RmatIsSkewedVsErdosRenyi) {
  Graph Er = makeErdosRenyi(512, 4000, 7);
  Graph Rm = makeRmat(512, 4000, 0.6, 0.15, 0.15, 7);
  EXPECT_GT(Rm.stats().DegreeCv, Er.stats().DegreeCv * 1.5);
  EXPECT_GT(Rm.stats().DegreeGini, Er.stats().DegreeGini);
}

TEST(Generators, RoadLatticeDegreesBounded) {
  Graph G = makeRoadLattice(10, 12, 0.0, 1);
  EXPECT_EQ(G.numNodes(), 120);
  EXPECT_LE(G.stats().MaxDegree, 4.0);
  // Interior nodes have degree 4: 2*(W-1)*H + 2*W*(H-1) directed edges.
  EXPECT_EQ(G.numEdges(), 2 * (9 * 12 + 10 * 11));
}

TEST(Generators, MycielskianRecurrence) {
  // n(k+1) = 2 n(k) + 1, e(k+1) = 3 e(k) + 2 n(k), starting from K2.
  int64_t N = 2, E = 2;
  for (int K = 3; K <= 8; ++K) {
    E = 3 * E + 2 * N;
    N = 2 * N + 1;
    Graph G = makeMycielskian(K);
    EXPECT_EQ(G.numNodes(), N) << "iteration " << K;
    EXPECT_EQ(G.numEdges(), E) << "iteration " << K;
  }
}

TEST(Generators, MycielskianIsTriangleFreeSmall) {
  // Mycielskians of triangle-free graphs are triangle-free; spot check M4.
  Graph G = makeMycielskian(4);
  const CsrMatrix &A = G.adjacency();
  DenseMatrix D = A.toDense();
  for (int64_t I = 0; I < A.rows(); ++I)
    for (int64_t J = 0; J < A.rows(); ++J)
      for (int64_t K = 0; K < A.rows(); ++K)
        if (D.at(I, J) > 0 && D.at(J, K) > 0) {
          EXPECT_FALSE(I != K && D.at(K, I) > 0 && I < J && J < K)
              << "triangle " << I << "," << J << "," << K;
        }
}

TEST(Generators, MycielskianAverageDegreeGrows) {
  // Node count doubles but edges triple per iteration: the average degree
  // climbs ~1.5x per step (density E/N^2 actually falls).
  EXPECT_GT(makeMycielskian(9).stats().AvgDegree,
            1.8 * makeMycielskian(7).stats().AvgDegree);
}

TEST(Generators, CommunityInterEdgesCrossCommunities) {
  Graph G = makeCommunityGraph(5, 10, 1.0, 0, 9);
  // With no inter edges and p=1, every edge stays within a 10-node block.
  const CsrMatrix &A = G.adjacency();
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  for (int64_t R = 0; R < A.rows(); ++R)
    for (int64_t K = Offsets[static_cast<size_t>(R)];
         K < Offsets[static_cast<size_t>(R) + 1]; ++K)
      EXPECT_EQ(R / 10, Cols[static_cast<size_t>(K)] / 10);
}

TEST(Generators, EvaluationSuiteMatchesPaperOrdering) {
  std::vector<Graph> Suite = makeEvaluationSuite();
  ASSERT_EQ(Suite.size(), 6u);
  EXPECT_EQ(evaluationGraphCodes().size(), 6u);
  // Density ordering: mycielskian stand-in is the densest; the road
  // network is the sparsest (paper Table II).
  const GraphStats &Mc = Suite[2].stats();
  const GraphStats &Bl = Suite[3].stats();
  for (const Graph &G : Suite) {
    EXPECT_GE(Mc.Density, G.stats().Density) << G.name();
    EXPECT_LE(Bl.Density, G.stats().Density) << G.name();
  }
  // Power-law stand-ins (RD, OP) are more skewed than the road network.
  EXPECT_GT(Suite[0].stats().DegreeCv, Bl.DegreeCv);
  EXPECT_GT(Suite[5].stats().DegreeCv, Bl.DegreeCv);
}

TEST(Generators, TrainingSuiteDisjointNamesAndNonEmpty) {
  std::vector<Graph> Suite = makeTrainingSuite();
  EXPECT_GE(Suite.size(), 12u);
  for (const Graph &G : Suite) {
    EXPECT_GT(G.numNodes(), 0);
    EXPECT_GT(G.numEdges(), 0);
  }
}

TEST(Generators, UnknownEvaluationGraphAborts) {
  EXPECT_DEATH(makeEvaluationGraph("nope"), "unknown evaluation graph");
}

//===----------------------------------------------------------------------===//
// Matrix Market IO
//===----------------------------------------------------------------------===//

TEST(MatrixMarket, ParseSymmetricPattern) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern symmetric\n"
                     "% a comment\n"
                     "3 3 2\n"
                     "2 1\n"
                     "3 2\n";
  std::string Error;
  auto G = parseMatrixMarket(Text, "tiny", &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->numNodes(), 3);
  EXPECT_EQ(G->numEdges(), 4); // Symmetric: both directions stored.
  EXPECT_TRUE(G->isSymmetric());
}

TEST(MatrixMarket, ParseGeneralReal) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n"
                     "1 2 3.5\n"
                     "2 1 1.25\n";
  auto G = parseMatrixMarket(Text, "w");
  ASSERT_TRUE(G.has_value());
  EXPECT_TRUE(G->adjacency().isWeighted());
  EXPECT_FLOAT_EQ(G->adjacency().values()[0], 3.5f);
}

TEST(MatrixMarket, RejectsBadHeader) {
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket("%%MatrixMarket matrix array real general\n",
                                 "x", &Error)
                   .has_value());
  EXPECT_NE(Error.find("coordinate"), std::string::npos);
}

TEST(MatrixMarket, RejectsOutOfBoundsEntry) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 1\n"
                     "3 1\n";
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value());
  EXPECT_NE(Error.find("out of bounds"), std::string::npos);
}

TEST(MatrixMarket, RejectsEntryCountMismatch) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 2\n"
                     "1 2\n";
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value());
}

TEST(MatrixMarket, RejectsDimensionsBeyondInt32) {
  // Column indices are int32_t: such a size line would wrap them or size
  // a multi-GB offset array. It fails before anything is allocated.
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "3000000000 3000000000 1\n"
                     "1 2\n";
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value());
  EXPECT_NE(Error.find("exceeds the 2147483647-node limit"), std::string::npos)
      << Error;
}

TEST(MatrixMarket, RejectsADimensionWhoseOffsetsExceedMemory) {
  // 2^31 - 1 rows size 17 GB of CSR row offsets before any entry is read.
  const int64_t N = MaxGraphNodes;
  std::string Bound;
  if (fitsInMemory(graphBuildBytes(N, 0), physicalMemoryBytes(), "offsets",
                   &Bound))
    return; // this host can hold them: nothing to reject
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n" +
                     std::to_string(N) + " " + std::to_string(N) + " 1\n1 2\n";
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value());
  EXPECT_NE(Error.find("bytes of physical memory"), std::string::npos)
      << Error;
}

TEST(GraphSpec, RejectsRmatWithMoreEdgesThanNodePairs) {
  std::string Error;
  EXPECT_FALSE(loadGraphSpec("synth:rmat:4:7", &Error).has_value());
  EXPECT_NE(Error.find("4 nodes have at most 6 distinct edges"),
            std::string::npos)
      << Error;
  // Every pair is reachable: the complete graph on 4 nodes.
  std::optional<Graph> Full = loadGraphSpec("synth:rmat:4:6", &Error);
  ASSERT_TRUE(Full.has_value()) << Error;
  EXPECT_LE(Full->adjacency().nnz(), 12);
}

TEST(GraphSpec, RejectsRmatBeyondTheNodeLimit) {
  std::string Error;
  EXPECT_FALSE(loadGraphSpec("synth:rmat:3000000000:10", &Error).has_value());
  EXPECT_NE(Error.find("at most 2147483647 nodes"), std::string::npos)
      << Error;
}

TEST(MatrixMarket, HugeClaimedEntryCountIsACountMismatch) {
  // Nothing is reserved from the claimed count: a short body is the same
  // count mismatch as ever, not an allocation failure.
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "4 4 1000000000000000\n"
                     "1 2\n"
                     "3 4\n";
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value());
  EXPECT_EQ(Error, "matrix market entry count mismatch");
}

namespace {

/// The pattern graph of \p Entries (1-based pairs) built without the
/// reader, to compare parses against.
Graph referenceGraph(int64_t N, bool Symmetric,
                     const std::vector<std::pair<int64_t, int64_t>> &Entries) {
  CooMatrix Coo(N, N);
  for (auto [R, C] : Entries) {
    if (Symmetric)
      Coo.addSymmetric(R - 1, C - 1);
    else
      Coo.add(R - 1, C - 1);
  }
  return Graph("ref", Coo.toCsr());
}

void expectSamePattern(const std::optional<Graph> &G, const Graph &Want,
                       const std::string &Error) {
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->adjacency().rowOffsets(), Want.adjacency().rowOffsets());
  EXPECT_EQ(G->adjacency().colIndices(), Want.adjacency().colIndices());
}

} // namespace

TEST(MatrixMarket, LineEndingsAndLayoutEdgeCases) {
  const std::string Header =
      "%%MatrixMarket matrix coordinate pattern symmetric\n";
  Graph Want = referenceGraph(4, true, {{2, 1}, {3, 1}, {4, 3}});
  std::string Error;

  // CRLF body lines: the '\r' is trimmed like any trailing whitespace.
  expectSamePattern(parseMatrixMarket(Header + "% c\r\n4 4 3\r\n2 1\r\n"
                                               "3 1\r\n4 3\r\n",
                                      "crlf", &Error),
                    Want, Error);
  // The header line is split on spaces only, as it always was: a CRLF
  // header keeps its '\r' in the symmetry field and is rejected.
  EXPECT_FALSE(parseMatrixMarket("%%MatrixMarket matrix coordinate pattern "
                                 "symmetric\r\n4 4 0\r\n",
                                 "crlf", &Error)
                   .has_value());
  EXPECT_EQ(Error, "unsupported matrix market symmetry: symmetric\r");

  // No newline after the last entry.
  expectSamePattern(
      parseMatrixMarket(Header + "4 4 3\n2 1\n3 1\n4 3", "tail", &Error),
      Want, Error);

  // Comment, blank, whitespace-only and indented-comment lines between
  // entries; leading and trailing whitespace around an entry.
  expectSamePattern(parseMatrixMarket(Header + "\n% size next\n\n4 4 3\n"
                                               "2 1\n\n   \n% mid\n  %x\n"
                                               "\t3   1 \n4 3\n",
                                      "blank", &Error),
                    Want, Error);

  // Fields past the ones the format needs are ignored; lines after the
  // last counted entry are never read.
  expectSamePattern(parseMatrixMarket(Header + "4 4 3\n2 1 junk 7\n3 1 x\n"
                                               "4 3\nnot an entry\n",
                                      "extra", &Error),
                    Want, Error);
  auto Real = parseMatrixMarket("%%MatrixMarket matrix coordinate real "
                                "general\n2 2 2\n1 2 3.5 extra\n2 1\n",
                                "real", &Error);
  ASSERT_TRUE(Real.has_value()) << Error;
  ASSERT_EQ(Real->adjacency().nnz(), 2);
  EXPECT_FLOAT_EQ(Real->adjacency().values()[0], 3.5f);
  EXPECT_FLOAT_EQ(Real->adjacency().values()[1], 1.0f); // value omitted

  // A malformed integer field, with the trimmed line in the message.
  EXPECT_FALSE(
      parseMatrixMarket(Header + "4 4 1\n  12abc 1 \r\n", "bad", &Error)
          .has_value());
  EXPECT_EQ(Error, "malformed matrix market entry: 12abc 1");
  EXPECT_FALSE(parseMatrixMarket(Header + "4 4 1 9\n2 1\n", "bad", &Error)
                   .has_value());
  EXPECT_EQ(Error, "malformed matrix market size line");
}

TEST(MatrixMarket, BodyLongerThanOneReadBlock) {
  // Pad with a comment so that one entry line straddles the first block
  // boundary, then write several blocks' worth of entries.
  const int64_t N = 5000;
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n";
  std::vector<std::pair<int64_t, int64_t>> Entries;
  for (int64_t I = 1; I <= 30000; ++I)
    Entries.push_back({1 + (I * 7919) % N, 1 + (I * 104729 + 3) % N});
  std::string SizeLine =
      std::to_string(N) + " " + std::to_string(N) + " " +
      std::to_string(Entries.size()) + "\n";
  std::string First = std::to_string(Entries[0].first) + " " +
                      std::to_string(Entries[0].second) + "\n";
  // Comment line "%...\n" filling up to 3 bytes before the boundary.
  size_t Pad = MatrixMarketBlockBytes - 3 - Text.size() - SizeLine.size();
  Text += std::string(Pad - 1, '%') + "\n" + SizeLine;
  ASSERT_EQ(Text.size() + 3, MatrixMarketBlockBytes);
  ASSERT_GT(First.size(), 4u); // the boundary cuts through a number
  for (auto [R, C] : Entries)
    Text += std::to_string(R) + " " + std::to_string(C) + "\n";
  ASSERT_GT(Text.size(), 3 * MatrixMarketBlockBytes);
  Graph Want = referenceGraph(N, false, Entries);

  std::string Error;
  expectSamePattern(parseMatrixMarket(Text, "blocks", &Error), Want, Error);
  // The same bytes from a file.
  std::string Path = ::testing::TempDir() + "/granii_blocks.mtx";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << Text;
  }
  expectSamePattern(readMatrixMarket(Path, &Error), Want, Error);
  std::remove(Path.c_str());

  // One comment line longer than a whole block.
  std::string Long = "%%MatrixMarket matrix coordinate pattern general\n%" +
                     std::string(3 * MatrixMarketBlockBytes, 'c') +
                     "\n2 2 1\n1 2\n";
  auto G = parseMatrixMarket(Long, "long", &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->numEdges(), 1);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  Graph G = makeErdosRenyi(40, 120, 77);
  std::string Path = ::testing::TempDir() + "/granii_roundtrip.mtx";
  std::string Error;
  ASSERT_TRUE(writeMatrixMarket(G, Path, &Error)) << Error;
  auto Back = readMatrixMarket(Path, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->numNodes(), G.numNodes());
  EXPECT_EQ(Back->adjacency().colIndices(), G.adjacency().colIndices());
  EXPECT_EQ(Back->adjacency().rowOffsets(), G.adjacency().rowOffsets());
}

TEST(MatrixMarket, ReadMissingFileFails) {
  std::string Error;
  EXPECT_FALSE(readMatrixMarket("/nonexistent/file.mtx", &Error).has_value());
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sampling
//===----------------------------------------------------------------------===//

TEST(Sampling, SeedNodesDistinctAndInRange) {
  Graph G = makeErdosRenyi(100, 400, 5);
  std::vector<int64_t> Seeds = sampleSeedNodes(G, 30, 11);
  std::set<int64_t> Unique(Seeds.begin(), Seeds.end());
  EXPECT_EQ(Unique.size(), 30u);
  for (int64_t S : Seeds) {
    EXPECT_GE(S, 0);
    EXPECT_LT(S, 100);
  }
}

TEST(Sampling, SeedCountClampedToGraph) {
  Graph G = makeRing(5);
  EXPECT_EQ(sampleSeedNodes(G, 50, 1).size(), 5u);
}

TEST(Sampling, InducedSubgraphKeepsInternalEdgesOnly) {
  Graph G = makeRing(6); // edges i -- i+1 mod 6
  SampledGraph S = induceSubgraph(G, {0, 1, 2, 4});
  EXPECT_EQ(S.Sampled.numNodes(), 4);
  // Kept: (0,1), (1,2) in both directions. Node 4 is isolated.
  EXPECT_EQ(S.Sampled.numEdges(), 4);
  EXPECT_TRUE(S.Sampled.isSymmetric());
}

TEST(Sampling, InducedSubgraphMapsIds) {
  Graph G = makeRing(6);
  SampledGraph S = induceSubgraph(G, {4, 0, 2});
  ASSERT_EQ(S.OriginalIds.size(), 3u);
  EXPECT_EQ(S.OriginalIds[0], 0);
  EXPECT_EQ(S.OriginalIds[2], 4);
}

TEST(Sampling, NeighborhoodRespectsReachability) {
  // Two disconnected rings; seeds in the first never reach the second.
  CooMatrix Coo(12, 12);
  for (int64_t I = 0; I < 6; ++I)
    Coo.addSymmetric(I, (I + 1) % 6);
  for (int64_t I = 6; I < 12; ++I)
    Coo.addSymmetric(I, I == 11 ? 6 : I + 1);
  Graph G("two-rings", Coo.toCsr());
  SampledGraph S = sampleNeighborhood(G, 1, 4, 8, /*Seed=*/2);
  for (int64_t Orig : S.OriginalIds) {
    bool FirstRing = S.OriginalIds[0] < 6;
    EXPECT_EQ(Orig < 6, FirstRing);
  }
}

TEST(Sampling, FanOutLimitsGrowth) {
  Graph G = makeStar(200);
  // One hop from the hub with fan-out 5 visits at most 1 + 5 nodes... but
  // seeds are random; use all seeds = hub by sampling 1 seed repeatedly.
  SampledGraph S = sampleNeighborhood(G, 1, 5, 1, 3);
  EXPECT_LE(S.Sampled.numNodes(), 1 + 5);
}

TEST(Sampling, DeterministicGivenSeed) {
  Graph G = makeErdosRenyi(150, 600, 8);
  SampledGraph A = sampleNeighborhood(G, 10, 4, 2, 99);
  SampledGraph B = sampleNeighborhood(G, 10, 4, 2, 99);
  EXPECT_EQ(A.OriginalIds, B.OriginalIds);
}
