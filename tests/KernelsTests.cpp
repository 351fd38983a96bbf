//===- KernelsTests.cpp - Tests for the primitive kernel library ------------===//
//
// Every sparse/dense primitive is checked against a naive dense reference
// on randomized inputs, including parameterized sweeps over shapes.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tensor/CooMatrix.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace granii;

namespace {

DenseMatrix randomDense(int64_t Rows, int64_t Cols, uint64_t Seed) {
  Rng R(Seed);
  DenseMatrix M(Rows, Cols);
  M.fillRandom(R, -1.0f, 1.0f);
  return M;
}

CsrMatrix randomSparse(int64_t Rows, int64_t Cols, int64_t Entries,
                       uint64_t Seed, bool Weighted) {
  Rng R(Seed);
  CooMatrix Coo(Rows, Cols);
  for (int64_t I = 0; I < Entries; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(Rows))),
            static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(Cols))),
            R.nextFloat(0.1f, 1.0f));
  return Coo.toCsr(!Weighted);
}

/// Reference dense matmul with double accumulation.
DenseMatrix refGemm(const DenseMatrix &A, const DenseMatrix &B) {
  DenseMatrix C(A.rows(), B.cols());
  for (int64_t I = 0; I < A.rows(); ++I)
    for (int64_t J = 0; J < B.cols(); ++J) {
      double Acc = 0.0;
      for (int64_t K = 0; K < A.cols(); ++K)
        Acc += static_cast<double>(A.at(I, K)) * B.at(K, J);
      C.at(I, J) = static_cast<float>(Acc);
    }
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// GEMM family (parameterized shape sweep)
//===----------------------------------------------------------------------===//

struct GemmShape {
  int64_t M, K, N;
};

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapes, MatchesReference) {
  auto [M, K, N] = GetParam();
  DenseMatrix A = randomDense(M, K, 1000 + M);
  DenseMatrix B = randomDense(K, N, 2000 + N);
  EXPECT_TRUE(kernels::gemm(A, B).approxEquals(refGemm(A, B), 1e-3f, 1e-3f));
}

TEST_P(GemmShapes, TransposedLhsMatchesExplicitTranspose) {
  auto [M, K, N] = GetParam();
  DenseMatrix A = randomDense(K, M, 31 + M); // A^T is M x K
  DenseMatrix B = randomDense(K, N, 32 + N);
  DenseMatrix Expected = refGemm(A.transposed(), B);
  EXPECT_TRUE(
      kernels::gemmTransposedLhs(A, B).approxEquals(Expected, 1e-3f, 1e-3f));
}

TEST_P(GemmShapes, TransposedRhsMatchesExplicitTranspose) {
  auto [M, K, N] = GetParam();
  DenseMatrix A = randomDense(M, K, 41 + M);
  DenseMatrix B = randomDense(N, K, 42 + N); // B^T is K x N
  DenseMatrix Expected = refGemm(A, B.transposed());
  EXPECT_TRUE(
      kernels::gemmTransposedRhs(A, B).approxEquals(Expected, 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{3, 5, 2},
                                           GemmShape{16, 16, 16},
                                           GemmShape{7, 33, 12},
                                           GemmShape{40, 1, 9},
                                           GemmShape{1, 64, 1}));

TEST(Gemm, AccumulateAddsIntoExisting) {
  DenseMatrix A = randomDense(4, 3, 7);
  DenseMatrix B = randomDense(3, 5, 8);
  DenseMatrix C(4, 5);
  C.fill(1.0f);
  kernels::gemmAccumulate(A, B, C);
  DenseMatrix Expected = refGemm(A, B);
  for (int64_t I = 0; I < 4; ++I)
    for (int64_t J = 0; J < 5; ++J)
      EXPECT_NEAR(C.at(I, J), Expected.at(I, J) + 1.0f, 1e-3f);
}

TEST(Gemv, MatchesGemmWithSingleColumn) {
  DenseMatrix A = randomDense(9, 6, 50);
  Rng R(51);
  std::vector<float> X(6);
  for (float &V : X)
    V = R.nextFloat(-1.f, 1.f);
  std::vector<float> Y = kernels::gemv(A, X);
  for (int64_t I = 0; I < 9; ++I) {
    double Acc = 0.0;
    for (int64_t J = 0; J < 6; ++J)
      Acc += static_cast<double>(A.at(I, J)) * X[static_cast<size_t>(J)];
    EXPECT_NEAR(Y[static_cast<size_t>(I)], Acc, 1e-4);
  }
}

//===----------------------------------------------------------------------===//
// Broadcasts and elementwise
//===----------------------------------------------------------------------===//

TEST(Broadcast, RowBroadcastScalesRows) {
  DenseMatrix H = randomDense(3, 4, 60);
  std::vector<float> D = {2.0f, 0.0f, -1.0f};
  DenseMatrix Out = kernels::rowBroadcastMul(D, H);
  for (int64_t C = 0; C < 4; ++C) {
    EXPECT_FLOAT_EQ(Out.at(0, C), 2.0f * H.at(0, C));
    EXPECT_FLOAT_EQ(Out.at(1, C), 0.0f);
    EXPECT_FLOAT_EQ(Out.at(2, C), -H.at(2, C));
  }
}

TEST(Broadcast, RowBroadcastEqualsDiagGemm) {
  DenseMatrix H = randomDense(5, 3, 61);
  std::vector<float> D = {1.f, 2.f, 3.f, 4.f, 5.f};
  DenseMatrix Diag(5, 5);
  for (int64_t I = 0; I < 5; ++I)
    Diag.at(I, I) = D[static_cast<size_t>(I)];
  EXPECT_TRUE(kernels::rowBroadcastMul(D, H).approxEquals(refGemm(Diag, H),
                                                          1e-4f, 1e-4f));
}

TEST(Broadcast, ColBroadcastEqualsDiagGemm) {
  DenseMatrix H = randomDense(4, 3, 62);
  std::vector<float> D = {2.f, 3.f, 4.f};
  DenseMatrix Diag(3, 3);
  for (int64_t I = 0; I < 3; ++I)
    Diag.at(I, I) = D[static_cast<size_t>(I)];
  EXPECT_TRUE(kernels::colBroadcastMul(H, D).approxEquals(refGemm(H, Diag),
                                                          1e-4f, 1e-4f));
}

TEST(Elementwise, AddAndAxpyAgree) {
  DenseMatrix A = randomDense(6, 6, 70), B = randomDense(6, 6, 71);
  DenseMatrix Sum = kernels::addMatrices(A, B);
  DenseMatrix Axpy = B;
  kernels::axpyInto(1.0f, A, Axpy);
  EXPECT_TRUE(Sum.approxEquals(Axpy, 0.0f, 0.0f));
}

TEST(Elementwise, ScaleMatrix) {
  DenseMatrix A = randomDense(2, 3, 72);
  DenseMatrix S = kernels::scaleMatrix(A, -2.0f);
  EXPECT_FLOAT_EQ(S.at(1, 2), -2.0f * A.at(1, 2));
}

TEST(Elementwise, ReluClampsNegatives) {
  DenseMatrix A(1, 4);
  A.at(0, 0) = -1.0f;
  A.at(0, 1) = 2.0f;
  A.at(0, 2) = 0.0f;
  A.at(0, 3) = -0.5f;
  DenseMatrix R = kernels::relu(A);
  EXPECT_FLOAT_EQ(R.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(R.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(R.at(0, 3), 0.0f);
}

TEST(Elementwise, LeakyReluSlope) {
  DenseMatrix A(1, 2);
  A.at(0, 0) = -10.0f;
  A.at(0, 1) = 10.0f;
  DenseMatrix R = kernels::leakyRelu(A, 0.1f);
  EXPECT_FLOAT_EQ(R.at(0, 0), -1.0f);
  EXPECT_FLOAT_EQ(R.at(0, 1), 10.0f);
}

TEST(Elementwise, ReluBackwardMasks) {
  DenseMatrix Pre(1, 2), Grad(1, 2);
  Pre.at(0, 0) = -1.0f;
  Pre.at(0, 1) = 1.0f;
  Grad.fill(5.0f);
  DenseMatrix G = kernels::reluBackward(Pre, Grad);
  EXPECT_FLOAT_EQ(G.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(G.at(0, 1), 5.0f);
}

//===----------------------------------------------------------------------===//
// Sparse primitives vs dense reference
//===----------------------------------------------------------------------===//

struct SpmmCase {
  int64_t N, K, Entries;
  uint64_t Seed;
};

class SpmmCases : public ::testing::TestWithParam<SpmmCase> {};

TEST_P(SpmmCases, WeightedMatchesDenseReference) {
  auto [N, K, Entries, Seed] = GetParam();
  CsrMatrix A = randomSparse(N, N, Entries, Seed, /*Weighted=*/true);
  DenseMatrix B = randomDense(N, K, Seed + 1);
  DenseMatrix Expected = refGemm(A.toDense(), B);
  EXPECT_TRUE(kernels::spmm(A, B).approxEquals(Expected, 1e-3f, 1e-3f));
}

TEST_P(SpmmCases, UnweightedIgnoresValues) {
  auto [N, K, Entries, Seed] = GetParam();
  CsrMatrix A = randomSparse(N, N, Entries, Seed, /*Weighted=*/false);
  DenseMatrix B = randomDense(N, K, Seed + 2);
  DenseMatrix Expected = refGemm(A.toDense(), B);
  DenseMatrix Got = kernels::spmm(A, B, Semiring::plusCopy());
  EXPECT_TRUE(Got.approxEquals(Expected, 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SpmmCases,
                         ::testing::Values(SpmmCase{5, 3, 8, 100},
                                           SpmmCase{20, 8, 60, 200},
                                           SpmmCase{64, 16, 400, 300},
                                           SpmmCase{10, 1, 15, 400},
                                           SpmmCase{1, 4, 1, 500}));

TEST(Spmm, MaxSemiringTakesRowMax) {
  CooMatrix Coo(2, 3);
  Coo.add(0, 0);
  Coo.add(0, 2);
  CsrMatrix A = Coo.toCsr();
  DenseMatrix B(3, 1);
  B.at(0, 0) = 1.0f;
  B.at(1, 0) = 99.0f; // Not a neighbor; must not appear.
  B.at(2, 0) = 7.0f;
  DenseMatrix Out = kernels::spmm(A, B, Semiring::maxCopy());
  EXPECT_FLOAT_EQ(Out.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(Out.at(1, 0), 0.0f); // Empty row stays zero.
}

TEST(Spmm, MeanSemiringAverages) {
  CooMatrix Coo(1, 2);
  Coo.add(0, 0);
  Coo.add(0, 1);
  CsrMatrix A = Coo.toCsr();
  DenseMatrix B(2, 1);
  B.at(0, 0) = 2.0f;
  B.at(1, 0) = 4.0f;
  DenseMatrix Out = kernels::spmm(A, B, Semiring::meanCopy());
  EXPECT_FLOAT_EQ(Out.at(0, 0), 3.0f);
}

TEST(Sddmm, DotMatchesDense) {
  CsrMatrix Mask = randomSparse(8, 8, 20, 600, false);
  DenseMatrix U = randomDense(8, 5, 601);
  DenseMatrix V = randomDense(8, 5, 602);
  std::vector<float> Vals = kernels::sddmm(Mask, U, V);
  const auto &Offsets = Mask.rowOffsets();
  const auto &Cols = Mask.colIndices();
  for (int64_t R = 0; R < 8; ++R)
    for (int64_t K = Offsets[static_cast<size_t>(R)];
         K < Offsets[static_cast<size_t>(R) + 1]; ++K) {
      double Acc = 0.0;
      int64_t C = Cols[static_cast<size_t>(K)];
      for (int64_t F = 0; F < 5; ++F)
        Acc += static_cast<double>(U.at(R, F)) * V.at(C, F);
      EXPECT_NEAR(Vals[static_cast<size_t>(K)], Acc, 1e-4);
    }
}

TEST(Sddmm, AddScalarsPerEdge) {
  CooMatrix Coo(3, 3);
  Coo.add(0, 1);
  Coo.add(2, 0);
  CsrMatrix Mask = Coo.toCsr();
  std::vector<float> Src = {1.f, 2.f, 3.f};
  std::vector<float> Dst = {10.f, 20.f, 30.f};
  std::vector<float> Vals = kernels::sddmmAddScalars(Mask, Src, Dst);
  EXPECT_FLOAT_EQ(Vals[0], 1.f + 20.f); // edge (0,1)
  EXPECT_FLOAT_EQ(Vals[1], 3.f + 10.f); // edge (2,0)
}

TEST(SparseScale, RowColBothAgreeWithDense) {
  CsrMatrix A = randomSparse(6, 6, 14, 700, true);
  std::vector<float> L = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f};
  std::vector<float> R = {0.5f, 1.f, 1.5f, 2.f, 2.5f, 3.f};

  DenseMatrix DL(6, 6), DR(6, 6);
  for (int64_t I = 0; I < 6; ++I) {
    DL.at(I, I) = L[static_cast<size_t>(I)];
    DR.at(I, I) = R[static_cast<size_t>(I)];
  }
  DenseMatrix Ad = A.toDense();

  EXPECT_TRUE(kernels::scaleSparseRows(A, L).toDense().approxEquals(
      refGemm(DL, Ad), 1e-4f, 1e-4f));
  EXPECT_TRUE(kernels::scaleSparseCols(A, R).toDense().approxEquals(
      refGemm(Ad, DR), 1e-4f, 1e-4f));
  EXPECT_TRUE(kernels::scaleSparseBoth(A, L, R).toDense().approxEquals(
      refGemm(refGemm(DL, Ad), DR), 1e-4f, 1e-4f));
}

TEST(SparseScale, FusedEqualsTwoPass) {
  CsrMatrix A = randomSparse(10, 10, 30, 701, false);
  std::vector<float> L(10), R(10);
  Rng Gen(702);
  for (size_t I = 0; I < 10; ++I) {
    L[I] = Gen.nextFloat(0.1f, 2.f);
    R[I] = Gen.nextFloat(0.1f, 2.f);
  }
  CsrMatrix Fused = kernels::scaleSparseBoth(A, L, R);
  CsrMatrix TwoPass = kernels::scaleSparseCols(kernels::scaleSparseRows(A, L), R);
  ASSERT_EQ(Fused.nnz(), TwoPass.nnz());
  for (int64_t K = 0; K < Fused.nnz(); ++K)
    EXPECT_NEAR(Fused.valueAt(K), TwoPass.valueAt(K), 1e-5f);
}

TEST(EdgeSoftmax, RowsSumToOne) {
  CsrMatrix A = randomSparse(12, 12, 40, 800, true);
  std::vector<float> Soft = kernels::edgeSoftmax(A, A.values());
  const auto &Offsets = A.rowOffsets();
  for (int64_t R = 0; R < 12; ++R) {
    int64_t Begin = Offsets[static_cast<size_t>(R)];
    int64_t End = Offsets[static_cast<size_t>(R) + 1];
    if (Begin == End)
      continue;
    double Sum = 0.0;
    for (int64_t K = Begin; K < End; ++K) {
      EXPECT_GT(Soft[static_cast<size_t>(K)], 0.0f);
      Sum += Soft[static_cast<size_t>(K)];
    }
    EXPECT_NEAR(Sum, 1.0, 1e-5);
  }
}

TEST(EdgeSoftmax, LargeLogitsAreStable) {
  CooMatrix Coo(1, 2);
  Coo.add(0, 0);
  Coo.add(0, 1);
  CsrMatrix A = Coo.toCsr();
  std::vector<float> Soft =
      kernels::edgeSoftmax(A, std::vector<float>{500.0f, 500.0f});
  EXPECT_NEAR(Soft[0], 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(Soft[1]));
}

TEST(EdgeMap, LeakyReluEdges) {
  std::vector<float> Out =
      kernels::leakyReluEdges(std::vector<float>{-1.0f, 2.0f}, 0.25f);
  EXPECT_FLOAT_EQ(Out[0], -0.25f);
  EXPECT_FLOAT_EQ(Out[1], 2.0f);
}

//===----------------------------------------------------------------------===//
// Degree kernels
//===----------------------------------------------------------------------===//

TEST(Degree, OffsetsAndBinningAgree) {
  CsrMatrix A = randomSparse(30, 30, 100, 900, false);
  std::vector<float> Off = kernels::degreeFromOffsets(A);
  std::vector<float> Bin = kernels::degreeByBinning(A);
  ASSERT_EQ(Off.size(), Bin.size());
  for (size_t I = 0; I < Off.size(); ++I)
    EXPECT_FLOAT_EQ(Off[I], Bin[I]);
}

TEST(Degree, SumsToNnz) {
  CsrMatrix A = randomSparse(25, 25, 80, 901, false);
  std::vector<float> Deg = kernels::degreeFromOffsets(A);
  double Sum = 0.0;
  for (float D : Deg)
    Sum += D;
  EXPECT_DOUBLE_EQ(Sum, static_cast<double>(A.nnz()));
}

TEST(Degree, InvSqrtZeroesIsolatedNodes) {
  std::vector<float> Out = kernels::invSqrt({0.0f, 4.0f});
  EXPECT_FLOAT_EQ(Out[0], 0.0f); // isolated node: no normalization mass
  EXPECT_FLOAT_EQ(Out[1], 0.5f);
}

TEST(Degree, InvDegreeZeroesIsolatedNodes) {
  std::vector<float> Out = kernels::invDegree({0.0f, 4.0f});
  EXPECT_FLOAT_EQ(Out[0], 0.0f);
  EXPECT_FLOAT_EQ(Out[1], 0.25f);
}

// Symmetric normalization on a graph with isolated vertices must match the
// dense D^-1/2 A D^-1/2 reference, whose isolated rows/columns are all
// zero. The old max(deg, 1) clamp instead injected coefficient 1 for
// isolated nodes, which is invisible on row terms (deg 0 => no edges) but
// wrong as soon as an isolated node's coefficient multiplies an incoming
// column term.
TEST(Degree, NormalizationMatchesDenseReferenceWithIsolatedVertices) {
  // 4 nodes; node 2 is isolated. Edges: 0<->1, 0->3.
  CooMatrix Coo(4, 4);
  Coo.add(0, 1, 1.0f);
  Coo.add(1, 0, 1.0f);
  Coo.add(0, 3, 1.0f);
  CsrMatrix A = Coo.toCsr(/*Structural=*/false);

  std::vector<float> Deg = kernels::degreeFromOffsets(A);
  std::vector<float> Norm = kernels::invSqrt(Deg);
  CsrMatrix Scaled = kernels::scaleSparseBoth(A, Norm, Norm);

  // Dense reference built from the true degrees, 0 coefficient when deg 0.
  DenseMatrix Dense = A.toDense();
  DenseMatrix Expected(4, 4);
  for (int64_t I = 0; I < 4; ++I)
    for (int64_t J = 0; J < 4; ++J) {
      float Di = Deg[static_cast<size_t>(I)];
      float Dj = Deg[static_cast<size_t>(J)];
      float Ci = Di > 0.0f ? 1.0f / std::sqrt(Di) : 0.0f;
      float Cj = Dj > 0.0f ? 1.0f / std::sqrt(Dj) : 0.0f;
      Expected.at(I, J) = Ci * Dense.at(I, J) * Cj;
    }
  EXPECT_TRUE(Scaled.toDense().approxEquals(Expected, 1e-6f, 1e-6f));

  // Node 3 has out-degree 0 but in-degree 1: with the old clamp the edge
  // 0->3 would keep weight 1/sqrt(2) * 1 instead of being zeroed by node
  // 3's column coefficient... the column direction is where the clamp bit.
  EXPECT_FLOAT_EQ(Scaled.toDense().at(0, 3), 0.0f);
}

//===----------------------------------------------------------------------===//
// Shape precondition checks (always-on, not assert-gated)
//===----------------------------------------------------------------------===//

TEST(KernelChecks, GemmInnerDimMismatchDies) {
  DenseMatrix A = randomDense(4, 5, 70);
  DenseMatrix B = randomDense(6, 3, 71); // inner dim 5 != 6
  EXPECT_DEATH(kernels::gemm(A, B), "gemm inner dimension mismatch");
}

TEST(KernelChecks, SpmmDimMismatchDies) {
  CsrMatrix A = randomSparse(8, 8, 20, 72, true);
  DenseMatrix B = randomDense(9, 4, 73); // 8 cols vs 9 rows
  EXPECT_DEATH(kernels::spmm(A, B), "spmm dimension mismatch");
}

TEST(KernelChecks, SpmmCscTransposedShapeMismatchDies) {
  CooMatrix Coo(10, 6);
  for (int64_t I = 0; I < 10; ++I)
    Coo.add(I, I % 6, 1.0f);
  CsrMatrix A = Coo.toCsr(/*Unweighted=*/false);
  CscMatrix Csc = CscMatrix::fromCsr(A);
  DenseMatrix Dst(6, 4);
  DenseMatrix WrongRows(9, 4); // A^T (x) B needs A.rows() == B.rows()
  EXPECT_DEATH(kernels::spmmCscTransposedInto(Csc, A.values(), WrongRows,
                                              Semiring::plusTimes(), Dst),
               "spmm_csc_t dimension mismatch");
  DenseMatrix B(10, 4);
  DenseMatrix WrongDst(10, 4); // must be A.cols() x B.cols()
  EXPECT_DEATH(kernels::spmmCscTransposedInto(Csc, A.values(), B,
                                              Semiring::plusTimes(), WrongDst),
               "spmm_csc_t destination shape mismatch");
  std::vector<float> Short(static_cast<size_t>(A.nnz() - 1), 1.0f);
  EXPECT_DEATH(kernels::spmmCscTransposedInto(Csc, Short, B,
                                              Semiring::plusTimes(), Dst),
               "spmm_csc_t edge value count mismatch");
}

TEST(KernelChecks, GemmIntoWrongDstShapeDies) {
  DenseMatrix A = randomDense(4, 5, 74);
  DenseMatrix B = randomDense(5, 3, 75);
  DenseMatrix Dst(4, 2); // should be 4 x 3
  EXPECT_DEATH(kernels::gemmInto(A, B, Dst),
               "gemm destination shape mismatch");
}

TEST(KernelChecks, SpmmIntoWrongDstShapeDies) {
  CsrMatrix A = randomSparse(8, 8, 20, 76, true);
  DenseMatrix B = randomDense(8, 4, 77);
  DenseMatrix Dst(7, 4); // should be 8 x 4
  EXPECT_DEATH(kernels::spmmInto(A, B, Semiring::plusTimes(), Dst),
               "spmm destination shape mismatch");
}

//===----------------------------------------------------------------------===//
// Determinism across thread counts
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Fn with the pool pinned to \p Threads, then restores the
/// default configuration.
template <typename Fn> auto withThreads(int Threads, Fn &&F) {
  ThreadPool::get().setNumThreads(Threads);
  auto Result = F();
  ThreadPool::get().setNumThreads(0);
  return Result;
}

/// Skewed power-law graph: R-MAT concentrates edges on hub rows, so the
/// nnz-balanced partition differs strongly from an equal-row split.
const Graph &skewedGraph() {
  static Graph G = makeRmat(1500, 20000, 0.57, 0.19, 0.19, 9);
  return G;
}

void expectBitwiseEqual(const DenseMatrix &A, const DenseMatrix &B) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  const float *PA = A.data();
  const float *PB = B.data();
  for (int64_t I = 0, E = A.size(); I < E; ++I)
    ASSERT_EQ(PA[I], PB[I]) << "element " << I;
}

void expectBitwiseEqual(std::span<const float> A, std::span<const float> B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(A[I], B[I]) << "element " << I;
}

} // namespace

TEST(Determinism, SpmmUnweightedBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  DenseMatrix H = randomDense(G.numNodes(), 48, 81);
  DenseMatrix One = withThreads(
      1, [&] { return kernels::spmm(G.adjacency(), H, Semiring::plusCopy()); });
  for (int Threads : {2, 3, 8}) {
    DenseMatrix Many = withThreads(Threads, [&] {
      return kernels::spmm(G.adjacency(), H, Semiring::plusCopy());
    });
    expectBitwiseEqual(One, Many);
  }
}

TEST(Determinism, SpmmWeightedBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  CsrMatrix A = G.adjacency();
  Rng R(82);
  std::vector<float> Vals(static_cast<size_t>(A.nnz()));
  for (float &V : Vals)
    V = R.nextFloat(0.1f, 1.0f);
  A.setValues(std::move(Vals));
  DenseMatrix H = randomDense(G.numNodes(), 48, 83);
  DenseMatrix One = withThreads(1, [&] { return kernels::spmm(A, H); });
  DenseMatrix Eight = withThreads(8, [&] { return kernels::spmm(A, H); });
  expectBitwiseEqual(One, Eight);
}

TEST(Determinism, GemmFamilyBitwiseIdenticalAcrossThreadCounts) {
  DenseMatrix A = randomDense(300, 64, 84);
  DenseMatrix B = randomDense(64, 96, 85);
  expectBitwiseEqual(withThreads(1, [&] { return kernels::gemm(A, B); }),
                     withThreads(8, [&] { return kernels::gemm(A, B); }));
  DenseMatrix At = randomDense(300, 64, 86); // A^T*B over shared dim 300
  expectBitwiseEqual(
      withThreads(1, [&] { return kernels::gemmTransposedLhs(At, A); }),
      withThreads(8, [&] { return kernels::gemmTransposedLhs(At, A); }));
  expectBitwiseEqual(
      withThreads(1, [&] { return kernels::gemmTransposedRhs(A, At); }),
      withThreads(8, [&] { return kernels::gemmTransposedRhs(A, At); }));
}

TEST(Determinism, SddmmBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  DenseMatrix U = randomDense(G.numNodes(), 32, 87);
  DenseMatrix V = randomDense(G.numNodes(), 32, 88);
  expectBitwiseEqual(
      withThreads(1, [&] { return kernels::sddmm(G.adjacency(), U, V); }),
      withThreads(8, [&] { return kernels::sddmm(G.adjacency(), U, V); }));
}

TEST(Determinism, EdgeSoftmaxBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  Rng R(89);
  std::vector<float> Logits(static_cast<size_t>(G.numEdges()));
  for (float &V : Logits)
    V = R.nextFloat(-2.0f, 2.0f);
  expectBitwiseEqual(
      withThreads(1, [&] { return kernels::edgeSoftmax(G.adjacency(), Logits); }),
      withThreads(8, [&] { return kernels::edgeSoftmax(G.adjacency(), Logits); }));
}

TEST(Determinism, TransposeBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  CsrMatrix One = withThreads(1, [&] { return G.adjacency().transposed(); });
  CsrMatrix Eight = withThreads(8, [&] { return G.adjacency().transposed(); });
  ASSERT_EQ(One.rowOffsets(), Eight.rowOffsets());
  ASSERT_EQ(One.colIndices(), Eight.colIndices());
  expectBitwiseEqual(One.values(), Eight.values());
}
