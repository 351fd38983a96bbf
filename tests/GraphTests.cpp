//===- GraphTests.cpp - Tests for graphs, generators, IO, sampling ----------===//

#include "graph/Generators.h"
#include "tensor/DenseMatrix.h"
#include "graph/Graph.h"
#include "graph/GraphSpec.h"
#include "graph/MatrixMarket.h"
#include "graph/Sampling.h"
#include "support/Memory.h"
#include "support/Rng.h"
#include "support/Str.h"
#include "support/ThreadPool.h"
#include "tensor/CooMatrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <tuple>

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

TEST(Graph, StatsAreComputedOnceOnFirstRead) {
  // Concurrent first reads see one computation; copies share it.
  Graph G = makeRmat(2000, 20000, 0.57, 0.19, 0.19, 3);
  Graph Copy = G;
  std::vector<const GraphStats *> Seen(8);
  std::vector<std::thread> Readers;
  for (size_t I = 0; I < Seen.size(); ++I)
    Readers.emplace_back([&, I] { Seen[I] = &(I % 2 ? Copy : G).stats(); });
  for (std::thread &Reader : Readers)
    Reader.join();
  for (const GraphStats *S : Seen)
    EXPECT_EQ(S, &G.stats());
  GraphStats Want = computeGraphStats(G.adjacency());
  EXPECT_EQ(G.stats().NumEdges, Want.NumEdges);
  EXPECT_EQ(G.stats().DegreeGini, Want.DegreeGini);
  EXPECT_EQ(G.stats().TopRowFraction, Want.TopRowFraction);
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

  // A small count with a body comment longer than a window between its
  // entries and another past the last of them, whose windows reserve entry
  // room only for the entries the count still misses.
  std::string LongBody =
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 0.5\n%" +
      std::string(3 * MatrixMarketWindowBytes / 2, 'c') + "\n2 1 1.5\n%" +
      std::string(MatrixMarketWindowBytes, 'd') + "\nnot an entry\n";
  G = parseMatrixMarket(LongBody, "long-body", &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  ASSERT_EQ(G->numEdges(), 2);
  EXPECT_EQ(G->adjacency().values()[0], 0.5f);
  EXPECT_EQ(G->adjacency().values()[1], 1.5f);
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

namespace {

/// What the reference reader below makes of a text: a CSR, or the message
/// parseMatrixMarket must fail with.
struct ReferenceParse {
  std::string Error; ///< empty on success
  std::vector<int64_t> Offsets;
  std::vector<int32_t> Cols;
  std::vector<uint32_t> ValueBits; ///< empty for a pattern field
};

/// A serial, line-by-line Matrix Market reader written from the format's
/// rules alone: lines split at '\n' as getline splits them, entries kept as
/// (row, column, line order, value), duplicates summed in line order, the
/// CSR built by one sort.
ReferenceParse referenceParse(const std::string &Text) {
  ReferenceParse Out;
  size_t Pos = 0;
  auto NextLine = [&](std::string_view &Line) {
    if (Pos >= Text.size())
      return false;
    size_t Newline = Text.find('\n', Pos);
    size_t End = Newline == std::string::npos ? Text.size() : Newline;
    Line = std::string_view(Text).substr(Pos, End - Pos);
    Pos = End + 1;
    return true;
  };
  auto Fail = [&](std::string Message) {
    Out.Error = std::move(Message);
    return Out;
  };
  std::string_view Line;
  if (!NextLine(Line))
    return Fail("empty matrix market input");
  std::vector<std::string> Header;
  for (const std::string &Part : splitString(Line, ' '))
    if (!Part.empty())
      Header.push_back(Part);
  if (Header.size() < 5 || Header[0] != "%%MatrixMarket" ||
      Header[1] != "matrix" || Header[2] != "coordinate")
    return Fail("unsupported matrix market header (need coordinate format)");
  if (Header[3] != "pattern" && Header[3] != "real" && Header[3] != "integer")
    return Fail("unsupported matrix market field: " + Header[3]);
  if (Header[4] != "general" && Header[4] != "symmetric")
    return Fail("unsupported matrix market symmetry: " + Header[4]);
  const bool HasValues = Header[3] != "pattern";
  const bool Symmetric = Header[4] == "symmetric";

  int64_t N = 0, M = 0, Count = 0;
  while (NextLine(Line)) {
    std::string_view Trimmed = trimString(Line);
    if (Trimmed.empty() || Trimmed.front() == '%')
      continue;
    std::vector<std::string_view> Fields = splitFields(Trimmed);
    if (Fields.size() != 3 || !parseInt64(Fields[0], N) ||
        !parseInt64(Fields[1], M) || !parseInt64(Fields[2], Count))
      return Fail("malformed matrix market size line");
    break;
  }
  if (N <= 0 || M <= 0 || N != M)
    return Fail("graph adjacency must be square and non-empty");
  if (N > MaxGraphNodes)
    return Fail("matrix market dimension " + std::to_string(N) +
                " exceeds the " + std::to_string(MaxGraphNodes) +
                "-node limit");
  if (std::string Error;
      !fitsInMemory(graphBuildBytes(N, 0), physicalMemoryBytes(),
                    "the CSR row offsets of a " + std::to_string(N) +
                        "-node matrix market graph",
                    &Error))
    return Fail(Error);

  struct Stored {
    int64_t Row, Col, Order;
    float Value;
  };
  std::vector<Stored> Entries;
  int64_t Seen = 0;
  while (Seen < Count && NextLine(Line)) {
    std::string_view Trimmed = trimString(Line);
    if (Trimmed.empty() || Trimmed.front() == '%')
      continue;
    std::vector<std::string_view> Fields = splitFields(Trimmed);
    int64_t R = 0, C = 0;
    double V = 1.0;
    bool Ok = Fields.size() >= 2 && parseInt64(Fields[0], R) &&
              parseInt64(Fields[1], C);
    if (Ok && HasValues && Fields.size() >= 3)
      Ok = parseDouble(Fields[2], V);
    if (!Ok)
      return Fail("malformed matrix market entry: " + std::string(Trimmed));
    if (R < 1 || R > N || C < 1 || C > N)
      return Fail("matrix market entry out of bounds: " +
                  std::string(Trimmed));
    int64_t Order = static_cast<int64_t>(Entries.size());
    Entries.push_back({R - 1, C - 1, Order, static_cast<float>(V)});
    if (Symmetric && R != C)
      Entries.push_back({C - 1, R - 1, Order + 1, static_cast<float>(V)});
    ++Seen;
  }
  if (Seen != Count)
    return Fail("matrix market entry count mismatch");

  std::sort(Entries.begin(), Entries.end(),
            [](const Stored &A, const Stored &B) {
              return std::tie(A.Row, A.Col, A.Order) <
                     std::tie(B.Row, B.Col, B.Order);
            });
  Out.Offsets.assign(static_cast<size_t>(N) + 1, 0);
  std::vector<float> Values;
  for (size_t I = 0; I < Entries.size(); ++I) {
    const Stored &E = Entries[I];
    if (I > 0 && Entries[I - 1].Row == E.Row && Entries[I - 1].Col == E.Col) {
      Values.back() += E.Value;
      continue;
    }
    ++Out.Offsets[static_cast<size_t>(E.Row) + 1];
    Out.Cols.push_back(static_cast<int32_t>(E.Col));
    Values.push_back(E.Value);
  }
  for (size_t R = 0; R < static_cast<size_t>(N); ++R)
    Out.Offsets[R + 1] += Out.Offsets[R];
  if (HasValues)
    for (float V : Values)
      Out.ValueBits.push_back(std::bit_cast<uint32_t>(V));
  return Out;
}

/// Whether parseMatrixMarket reads \p Text as referenceParse does. Counts
/// the texts that parse in \p Parsed.
::testing::AssertionResult readsLikeReference(const std::string &Text,
                                              size_t *Parsed = nullptr) {
  ReferenceParse Want = referenceParse(Text);
  if (Parsed)
    *Parsed += Want.Error.empty();
  std::string Error;
  std::optional<Graph> G = parseMatrixMarket(Text, "fuzz", &Error);
  if (!Want.Error.empty()) {
    if (G)
      return ::testing::AssertionFailure()
             << "parsed; the reference fails with: " << Want.Error;
    if (Error != Want.Error)
      return ::testing::AssertionFailure()
             << "error '" << Error << "', the reference's '" << Want.Error
             << "'";
    return ::testing::AssertionSuccess();
  }
  if (!G)
    return ::testing::AssertionFailure() << "failed: " << Error;
  const CsrMatrix &A = G->adjacency();
  std::vector<uint32_t> Bits;
  for (float V : A.values())
    Bits.push_back(std::bit_cast<uint32_t>(V));
  if (!std::equal(A.rowOffsets().begin(), A.rowOffsets().end(),
                  Want.Offsets.begin(), Want.Offsets.end()) ||
      !std::equal(A.colIndices().begin(), A.colIndices().end(),
                  Want.Cols.begin(), Want.Cols.end()) ||
      Bits != Want.ValueBits)
    return ::testing::AssertionFailure() << "CSR differs from the reference";
  return ::testing::AssertionSuccess();
}

/// Small seeds: every field and storage, comments, blank and
/// whitespace-only lines, CRLF lines, indented and padded entries, fields
/// past the value, omitted values, duplicates, diagonals, unsorted rows,
/// and lines after the last counted entry.
std::vector<std::string> smallMatrixMarketSeeds() {
  return {
      "%%MatrixMarket matrix coordinate pattern symmetric\n% a comment\n"
      "6 6 7\n2 1\n3 1\n4 3\n6 5\n\n5 5\n6 1\n3 2\n",
      // Row 1 arrives unsorted, with a sum that depends on its order.
      "%%MatrixMarket matrix coordinate real general\n%\n\n5 5 11\n"
      "1 3 0.1\n1 2 3.5\n2 1 -1.25\n1 3 1e8\n5 4 2e-3 extra\n4 5\n"
      "3 3 0.5\n1 3 -1e8\n1 2 0.25\n  2 5\t7 \n5 1 -0\n",
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "% crlf\r\n7 7 6\r\n2 1 3\r\n7 1 -4\r\n3 2 5\r\n  \r\n6 6 1\r\n"
      "7 6 2\r\n4 2 9\r\n",
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% header comment\n%% another\n4 4 5\n4 1\n1 4\n2 3\n2 1\n2 3\n"
      "not an entry\n9 9\n",
      "%%MatrixMarket  matrix coordinate real symmetric extra\n"
      "3 3 3\n1 1 1e1\n3 1 0x1.8p+1\n2 1 +7\n",
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "8 8 9\n 2 1\n3 2\n4 3\n5 4\n6 5\n7 6\n8 7\n8 1\n5 2\n"};
}

/// Where the reader's windows end in \p Text, by MatrixMarket.h's rule:
/// each read first moves the unfinished line to the front, then fills the
/// window, which doubles only when that line fills all of it. The last
/// entry is the end of the window \p Text ends in.
std::vector<size_t> windowEnds(const std::string &Text) {
  size_t Size = MatrixMarketWindowBytes, Begin = 0;
  std::vector<size_t> Ends = {Size};
  while (Ends.back() < Text.size()) {
    size_t End = Ends.back();
    size_t Newline = Text.rfind('\n', End - 1);
    size_t Carry = Newline == std::string::npos || Newline < Begin
                       ? End - Begin
                       : End - Newline - 1;
    if (Carry == Size)
      Size *= 2;
    Begin = End - Carry;
    Ends.push_back(Begin + Size);
  }
  return Ends;
}

/// One seed several windows long. Body lines straddle each of its first
/// \p Boundaries window ends by a few bytes, taking turns from
/// \p Straddlers; after the last counted entry come lines that are no
/// entries. Runs of entry lines alternate with long comment lines, so each
/// part of a window holds entries while the seed stays cheap to read.
/// \p LongComment puts a comment longer than a window at the start of the
/// body.
std::string windowSeed(const std::string &Field, bool Symmetric, int64_t N,
                       size_t Boundaries,
                       const std::vector<std::string> &Straddlers,
                       bool LongComment, Rng &R) {
  const bool HasValues = Field != "pattern";
  std::string Text = "%%MatrixMarket matrix coordinate " + Field + " " +
                     (Symmetric ? "symmetric" : "general") + "\n% seed\n" +
                     std::to_string(N) + " " + std::to_string(N) + " ";
  const size_t CountAt = Text.size();
  Text += "000000000\n"; // fixed width, filled in at the end
  int64_t Count = 0;
  auto EntryLine = [&] {
    int64_t Row = 1 + static_cast<int64_t>(R.nextBelow(N));
    int64_t Col = 1 + static_cast<int64_t>(R.nextBelow(N));
    std::string Line = std::to_string(Row) + " " + std::to_string(Col);
    if (HasValues && R.nextBelow(8) != 0)
      Line += Field == "integer"
                  ? " " + std::to_string(static_cast<int>(R.nextBelow(19)) - 9)
                  : " " + std::to_string(R.nextDouble() * 4.0 - 2.0);
    ++Count;
    return Line + (R.nextBelow(16) == 0 ? "\r\n" : "\n");
  };
  // Longer than any entry line with its '\n'.
  constexpr size_t MaxEntryLine = 32;
  if (LongComment)
    Text += "%" + std::string(3 * MatrixMarketWindowBytes / 2, 'c') + "\n";
  for (size_t B = 0; B < Boundaries; ++B) {
    size_t End = windowEnds(Text).back();
    size_t Target = End - 2 - R.nextBelow(6);
    while (Text.size() + 16 * MaxEntryLine + 1100 < Target) {
      for (int I = 0; I < 16; ++I)
        Text += EntryLine();
      Text += "%" + std::string(1000 + R.nextBelow(64), 'f') + "\n";
    }
    while (Text.size() + MaxEntryLine < Target)
      Text += EntryLine();
    // Land on Target with one comment (or blank) line, then straddle.
    if (size_t Gap = Target - Text.size(); Gap == 1)
      Text += "\n";
    else if (Gap > 1)
      Text += "%" + std::string(Gap - 2, 'x') + "\n";
    const std::string &Straddler = Straddlers[B % Straddlers.size()];
    if (Straddler.empty())
      Text += EntryLine();
    else
      Text += Straddler;
    if (Text.size() <= End)
      ADD_FAILURE() << "window end " << End << " not straddled";
  }
  for (int I = 0; I < 200; ++I)
    Text += EntryLine();
  Text += "1 2 3 4 not counted\nnot an entry\n" + std::to_string(N + 1) +
          " 1\n% trailing\n";
  std::string Digits = std::to_string(Count);
  Text.replace(CountAt + 9 - Digits.size(), Digits.size(), Digits);
  return Text;
}

enum class MtxMutation { BitFlips, Truncation, Splice };

/// The offset of a random line start of \p Text (0 or just past a '\n').
size_t randomLineStartOf(const std::string &Text, Rng &R) {
  std::vector<size_t> Starts = {0};
  for (size_t I = 0; I < Text.size(); ++I)
    if (Text[I] == '\n')
      Starts.push_back(I + 1);
  return Starts[R.nextBelow(Starts.size())];
}

/// One mutation of a seed from \p Seeds: one to eight bit flips; a cut at a
/// random length with up to one bit flip in what remains; or the lines of
/// the seed up to a random line joined to the lines of a donor from
/// \p Donors from a random line on.
std::string mutateMatrixMarket(const std::vector<std::string> &Seeds,
                               const std::vector<std::string> &Donors,
                               MtxMutation Kind, Rng &R) {
  std::string Text = Seeds[R.nextBelow(Seeds.size())];
  auto FlipBits = [&](uint64_t Count) {
    for (uint64_t I = 0; I < Count && !Text.empty(); ++I)
      Text[R.nextBelow(Text.size())] ^=
          static_cast<char>(1u << R.nextBelow(8));
  };
  switch (Kind) {
  case MtxMutation::BitFlips:
    FlipBits(1 + R.nextBelow(8));
    break;
  case MtxMutation::Truncation:
    Text.resize(R.nextBelow(Text.size() + 1));
    FlipBits(R.nextBelow(2));
    break;
  case MtxMutation::Splice: {
    const std::string &Donor = Donors[R.nextBelow(Donors.size())];
    Text.resize(randomLineStartOf(Text, R));
    Text += Donor.substr(randomLineStartOf(Donor, R));
    break;
  }
  }
  return Text;
}

/// Mutated small seeds per kind, and mutated window-long seeds per kind.
constexpr int SmallMtxMutationsPerKind = 34000;
constexpr int LargeMtxMutationsPerKind = 40;

} // namespace

// ROADMAP 4(c), the Matrix Market part: a .mtx path is a request argument,
// so 102k seeded mutations of small seeds (34k each of bit flips,
// truncations and line-aligned splices) and 120 of seeds several windows
// long must each be read, at 1 and at 4 pool threads, exactly as a serial
// line-by-line reference reads them: the same CSR (offsets, columns, value
// bits) or the same message. The ASan leg runs it.
TEST(MatrixMarketFuzz, ParserSurvivesMutatedFiles) {
  const std::vector<std::string> Small = smallMatrixMarketSeeds();
  Rng SeedRng(27);
  const std::string Malformed = "12 x7 straddles\n";
  const std::vector<std::string> Large = {
      // Entry lines and comments straddle the window ends.
      windowSeed("pattern", true, 5000, 3, {"", "% a comment across\n"},
                 false, SeedRng),
      // A comment longer than a window comes first.
      windowSeed("real", false, 3000, 2, {"% across\r\n", ""}, true, SeedRng),
      // A malformed entry straddles the second window end.
      windowSeed("integer", true, 4000, 2, {"", Malformed}, false, SeedRng)};
  ASSERT_GT(Large[0].size(), windowEnds(Large[0])[2]);
  ASSERT_GT(windowEnds(Large[1]).size(), 3u);
  // Malformed entries in the first and the last part of one window, with
  // the count not yet reached: the first in file order is reported.
  std::string TwoBad = "%%MatrixMarket matrix coordinate pattern general\n"
                       "9 9 100000\n";
  for (size_t Eighths : {1, 7}) {
    while (TwoBad.size() < MatrixMarketWindowBytes / 8 * Eighths)
      TwoBad += "1 2\n%" + std::string(1000, 'f') + "\n";
    TwoBad += Eighths == 1 ? "1 x first\n" : "1 y later\n";
  }
  ASSERT_LT(TwoBad.size(), MatrixMarketWindowBytes);
  std::vector<std::string> All = Small;
  All.insert(All.end(), Large.begin(), Large.end());

  ThreadPool &Pool = ThreadPool::get();
  const int Restore = Pool.numThreads();
  size_t SmallParsed = 0, LargeParsed = 0;
  for (int Threads : {1, 4}) {
    Pool.setNumThreads(Threads);
    // The seeds themselves: all but the third large one parse.
    for (const std::string &Seed : All)
      ASSERT_TRUE(readsLikeReference(Seed)) << Threads << " threads";
    for (size_t I = 0; I + 1 < All.size(); ++I)
      ASSERT_TRUE(parseMatrixMarket(All[I], "seed").has_value()) << I;
    std::string Error;
    EXPECT_FALSE(parseMatrixMarket(Large[2], "seed", &Error).has_value());
    EXPECT_EQ(Error, "malformed matrix market entry: 12 x7 straddles");
    EXPECT_FALSE(parseMatrixMarket(TwoBad, "seed", &Error).has_value());
    EXPECT_EQ(Error, "malformed matrix market entry: 1 x first");

    Rng R(27);
    for (MtxMutation Kind : {MtxMutation::BitFlips, MtxMutation::Truncation,
                             MtxMutation::Splice}) {
      for (int I = 0; I < SmallMtxMutationsPerKind; ++I)
        ASSERT_TRUE(readsLikeReference(
            mutateMatrixMarket(Small, Small, Kind, R), &SmallParsed))
            << Threads << " threads, small mutation " << I;
      for (int I = 0; I < LargeMtxMutationsPerKind; ++I)
        ASSERT_TRUE(readsLikeReference(mutateMatrixMarket(Large, All, Kind, R),
                                       &LargeParsed))
            << Threads << " threads, large mutation " << I;
    }
  }
  Pool.setNumThreads(Restore);
  // The mutations reach past the header: many texts still parse.
  std::printf("parsed %zu of %d small, %zu of %d large\n", SmallParsed,
              6 * SmallMtxMutationsPerKind, LargeParsed,
              6 * LargeMtxMutationsPerKind);
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
