//===- KernelsTests.cpp - Tests for the primitive kernel library ------------===//
//
// Every sparse/dense primitive is checked against a naive dense reference
// on randomized inputs, including parameterized sweeps over shapes.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "kernels/Dispatch.h"
#include "kernels/Kernels.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tensor/CooMatrix.h"
#include "tensor/CscMatrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

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
  DenseMatrix C(M, N);
  kernels::gemmInto(A, B, C);
  EXPECT_TRUE(C.approxEquals(refGemm(A, B), 1e-3f, 1e-3f));
}

TEST_P(GemmShapes, TransposedLhsMatchesExplicitTranspose) {
  auto [M, K, N] = GetParam();
  DenseMatrix A = randomDense(K, M, 31 + M); // A^T is M x K
  DenseMatrix B = randomDense(K, N, 32 + N);
  DenseMatrix Expected = refGemm(A.transposed(), B);
  DenseMatrix C(M, N);
  kernels::gemmTransposedLhsInto(A, B, C);
  EXPECT_TRUE(C.approxEquals(Expected, 1e-3f, 1e-3f));
}

TEST_P(GemmShapes, TransposedRhsMatchesExplicitTranspose) {
  auto [M, K, N] = GetParam();
  DenseMatrix A = randomDense(M, K, 41 + M);
  DenseMatrix B = randomDense(N, K, 42 + N); // B^T is K x N
  DenseMatrix Expected = refGemm(A, B.transposed());
  DenseMatrix C(M, N);
  kernels::gemmTransposedRhsInto(A, B, C);
  EXPECT_TRUE(C.approxEquals(Expected, 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{3, 5, 2},
                                           GemmShape{16, 16, 16},
                                           GemmShape{7, 33, 12},
                                           GemmShape{40, 1, 9},
                                           GemmShape{1, 64, 1}));

TEST(Gemv, MatchesGemmWithSingleColumn) {
  DenseMatrix A = randomDense(9, 6, 50);
  Rng R(51);
  std::vector<float> X(6);
  for (float &V : X)
    V = R.nextFloat(-1.f, 1.f);
  std::vector<float> Y(9);
  kernels::gemvInto(A, X, Y);
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
  DenseMatrix Out(3, 4);
  kernels::rowBroadcastMulInto(D, H, Out);
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
  DenseMatrix Out(5, 3);
  kernels::rowBroadcastMulInto(D, H, Out);
  EXPECT_TRUE(Out.approxEquals(refGemm(Diag, H), 1e-4f, 1e-4f));
}

TEST(Broadcast, ColBroadcastEqualsDiagGemm) {
  DenseMatrix H = randomDense(4, 3, 62);
  std::vector<float> D = {2.f, 3.f, 4.f};
  DenseMatrix Diag(3, 3);
  for (int64_t I = 0; I < 3; ++I)
    Diag.at(I, I) = D[static_cast<size_t>(I)];
  DenseMatrix Out(4, 3);
  kernels::colBroadcastMulInto(H, D, Out);
  EXPECT_TRUE(Out.approxEquals(refGemm(H, Diag), 1e-4f, 1e-4f));
}

TEST(Elementwise, AddAndAxpyAgree) {
  DenseMatrix A = randomDense(6, 6, 70), B = randomDense(6, 6, 71);
  DenseMatrix Sum(6, 6);
  kernels::addMatricesInto(A, B, Sum);
  DenseMatrix Axpy = B;
  kernels::axpyInto(1.0f, A, Axpy);
  EXPECT_TRUE(Sum.approxEquals(Axpy, 0.0f, 0.0f));
}

TEST(Elementwise, ScaleMatrix) {
  DenseMatrix A = randomDense(2, 3, 72);
  DenseMatrix S(2, 3);
  kernels::scaleMatrixInto(A, -2.0f, S);
  EXPECT_FLOAT_EQ(S.at(1, 2), -2.0f * A.at(1, 2));
}

TEST(Elementwise, ReluClampsNegatives) {
  DenseMatrix A(1, 4);
  A.at(0, 0) = -1.0f;
  A.at(0, 1) = 2.0f;
  A.at(0, 2) = 0.0f;
  A.at(0, 3) = -0.5f;
  DenseMatrix R(1, 4);
  kernels::reluInto(A, R);
  EXPECT_FLOAT_EQ(R.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(R.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(R.at(0, 3), 0.0f);
}

TEST(Elementwise, ReluBackwardMasks) {
  DenseMatrix Pre(1, 2), Grad(1, 2);
  Pre.at(0, 0) = -1.0f;
  Pre.at(0, 1) = 1.0f;
  Grad.fill(5.0f);
  DenseMatrix G(1, 2);
  kernels::reluBackwardAccumulateInto(Pre, Grad, G, /*First=*/true);
  EXPECT_FLOAT_EQ(G.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(G.at(0, 1), 5.0f);
}

//===----------------------------------------------------------------------===//
// Backward-pass primitives: serial chains and first writes
//===----------------------------------------------------------------------===//

namespace {

std::vector<float> randomVec(size_t Size, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> V(Size);
  for (size_t I = 0; I < Size; ++I)
    V[I] = I % 5 == 1 ? -0.0f : R.nextFloat(-1.0f, 1.0f);
  return V;
}

bool sameBits(std::span<const float> A, std::span<const float> B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

/// Runs \p Kernel(Acc, First) three ways at 1 and 4 threads: accumulating
/// into \p Init against \p Serial (the serial loop of the same sum), and
/// as a first write into garbage against accumulating into zeros.
template <class KernelFn, class SerialFn>
void checkBackwardKernel(size_t Size, KernelFn Kernel, SerialFn Serial) {
  const int Entry = ThreadPool::get().numThreads();
  const std::vector<float> Init = randomVec(Size, 991);
  std::vector<float> Want = Init;
  Serial(Want);
  std::vector<float> WantFirst(Size, 0.0f);
  Serial(WantFirst);
  for (int Threads : {1, 4}) {
    ThreadPool::get().setNumThreads(Threads);
    std::vector<float> Acc = Init;
    Kernel(std::span<float>(Acc), false);
    EXPECT_TRUE(sameBits(Acc, Want)) << Threads << " threads, accumulate";
    std::vector<float> First(Size, std::nanf(""));
    Kernel(std::span<float>(First), true);
    EXPECT_TRUE(sameBits(First, WantFirst)) << Threads << " threads, first";
  }
  ThreadPool::get().setNumThreads(Entry);
}

} // namespace

TEST(Backward, AccumulateMatchesAxpyAndFirstWriteMatchesZeros) {
  // -0 entries: a first write of -0 must land as +0, like 0 + -0.
  const std::vector<float> X = randomVec(50000, 992);
  for (float Alpha : {1.0f, -0.75f})
    checkBackwardKernel(
        X.size(),
        [&](std::span<float> Acc, bool First) {
          kernels::accumulateInto(Alpha, X, Acc, First);
        },
        [&](std::vector<float> &Acc) {
          DenseMatrix XM(1, static_cast<int64_t>(X.size()));
          DenseMatrix AM(1, static_cast<int64_t>(Acc.size()));
          std::copy(X.begin(), X.end(), XM.data());
          std::copy(Acc.begin(), Acc.end(), AM.data());
          kernels::axpyInto(Alpha, XM, AM);
          std::copy(AM.data(), AM.data() + AM.size(), Acc.begin());
        });
}

TEST(Backward, ReluGradientAccumulatesTheSelection) {
  const DenseMatrix Pre = randomDense(97, 131, 993);
  const DenseMatrix Grad = randomDense(97, 131, 994);
  DenseMatrix Sel(Pre.rows(), Pre.cols());
  for (int64_t I = 0; I < Pre.size(); ++I)
    Sel.data()[I] = Pre.data()[I] > 0.0f ? Grad.data()[I] : 0.0f;
  checkBackwardKernel(
      static_cast<size_t>(Pre.size()),
      [&](std::span<float> Acc, bool First) {
        DenseMatrix A(Pre.rows(), Pre.cols());
        std::copy(Acc.begin(), Acc.end(), A.data());
        kernels::reluBackwardAccumulateInto(Pre, Grad, A, First);
        std::copy(A.data(), A.data() + A.size(), Acc.begin());
      },
      [&](std::vector<float> &Acc) {
        DenseMatrix A(Pre.rows(), Pre.cols());
        std::copy(Acc.begin(), Acc.end(), A.data());
        kernels::axpyInto(1.0f, Sel, A);
        std::copy(A.data(), A.data() + A.size(), Acc.begin());
      });
}

TEST(Backward, EdgeSumsRunTheSerialScatterChains) {
  const CsrMatrix Mask = randomSparse(300, 280, 5000, 995, /*Weighted=*/false);
  const CscMatrix MaskT = CscMatrix::fromCsr(Mask);
  const std::vector<float> E = randomVec(static_cast<size_t>(Mask.nnz()), 996);
  const auto &Offsets = Mask.rowOffsets();
  const auto &Cols = Mask.colIndices();
  checkBackwardKernel(
      static_cast<size_t>(Mask.rows()),
      [&](std::span<float> Acc, bool First) {
        kernels::edgeRowSumInto(Mask, E, Acc, First);
      },
      [&](std::vector<float> &Acc) {
        for (int64_t R = 0; R < Mask.rows(); ++R)
          for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K)
            Acc[static_cast<size_t>(R)] += E[static_cast<size_t>(K)];
      });
  checkBackwardKernel(
      static_cast<size_t>(Mask.cols()),
      [&](std::span<float> Acc, bool First) {
        kernels::edgeColSumInto(MaskT, E, Acc, First);
      },
      [&](std::vector<float> &Acc) {
        for (int64_t K = 0; K < Mask.nnz(); ++K)
          Acc[static_cast<size_t>(Cols[K])] += E[static_cast<size_t>(K)];
      });
}

TEST(Backward, EdgeActivationGradientsRunTheSerialLoops) {
  const CsrMatrix A = randomSparse(300, 300, 6000, 997, /*Weighted=*/false);
  const size_t Nnz = static_cast<size_t>(A.nnz());
  const std::vector<float> Pre = randomVec(Nnz, 998);
  const std::vector<float> Grad = randomVec(Nnz, 999);
  std::vector<float> Alpha(Nnz);
  kernels::edgeSoftmaxInto(A, Pre, Alpha);
  const float Slope = 0.2f;
  checkBackwardKernel(
      Nnz,
      [&](std::span<float> DIn, bool First) {
        kernels::leakyReluEdgesBackwardInto(Pre, Grad, Slope, DIn, First);
      },
      [&](std::vector<float> &DIn) {
        for (size_t I = 0; I < Nnz; ++I)
          DIn[I] += Grad[I] * (Pre[I] > 0.0f ? 1.0f : Slope);
      });
  checkBackwardKernel(
      Nnz,
      [&](std::span<float> DIn, bool First) {
        kernels::edgeSoftmaxBackwardInto(A, Alpha, Grad, DIn, First);
      },
      [&](std::vector<float> &DIn) {
        const auto &Offsets = A.rowOffsets();
        for (int64_t R = 0; R < A.rows(); ++R) {
          float Dot = 0.0f;
          for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K)
            Dot += Alpha[static_cast<size_t>(K)] * Grad[static_cast<size_t>(K)];
          for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K)
            DIn[static_cast<size_t>(K)] +=
                Alpha[static_cast<size_t>(K)] *
                (Grad[static_cast<size_t>(K)] - Dot);
        }
      });
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
  DenseMatrix Got(N, K);
  kernels::spmmInto(A, A.values(), B, Got);
  EXPECT_TRUE(Got.approxEquals(Expected, 1e-3f, 1e-3f));
}

// The unweighted SpMM of a weighted matrix reads none of its values: at
// every ISA level it is bit for bit the SpMM of the pattern-only copy.
TEST_P(SpmmCases, UnweightedIgnoresValues) {
  auto [N, K, Entries, Seed] = GetParam();
  const CsrMatrix A = randomSparse(N, N, Entries, Seed, /*Weighted=*/true);
  ASSERT_FALSE(A.values().empty());
  CsrMatrix Pattern = A;
  Pattern.clearValues();
  const DenseMatrix B = randomDense(N, K, Seed + 2);
  const DenseMatrix Expected = refGemm(Pattern.toDense(), B);
  struct IsaLevelGuard {
    kernels::IsaLevel Entry = kernels::activeIsaLevel();
    ~IsaLevelGuard() { kernels::setIsaLevel(Entry); }
  } Guard;
  for (kernels::IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix Got(N, K), Want(N, K);
    kernels::spmmInto(A, {}, B, Got);
    kernels::spmmInto(Pattern, Pattern.values(), B, Want);
    EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                          static_cast<size_t>(Got.size()) * sizeof(float)),
              0);
    EXPECT_TRUE(Got.approxEquals(Expected, 1e-3f, 1e-3f));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SpmmCases,
                         ::testing::Values(SpmmCase{5, 3, 8, 100},
                                           SpmmCase{20, 8, 60, 200},
                                           SpmmCase{64, 16, 400, 300},
                                           SpmmCase{10, 1, 15, 400},
                                           SpmmCase{1, 4, 1, 500}));

TEST(Sddmm, DotMatchesDense) {
  CsrMatrix Mask = randomSparse(8, 8, 20, 600, false);
  DenseMatrix U = randomDense(8, 5, 601);
  DenseMatrix V = randomDense(8, 5, 602);
  std::vector<float> Vals(static_cast<size_t>(Mask.nnz()));
  kernels::sddmmInto(Mask, U, V, Vals);
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
  std::vector<float> Vals(2);
  kernels::sddmmAddScalarsInto(Mask, Src, Dst, Vals);
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

  CsrMatrix Rows = A, Cols = A, Both = A;
  kernels::scaleSparseRowsInto(A, A.values(), L, Rows.mutableValues());
  kernels::scaleSparseColsInto(A, A.values(), R, Cols.mutableValues());
  kernels::scaleSparseBothInto(A, A.values(), L, R, Both.mutableValues());
  EXPECT_TRUE(Rows.toDense().approxEquals(refGemm(DL, Ad), 1e-4f, 1e-4f));
  EXPECT_TRUE(Cols.toDense().approxEquals(refGemm(Ad, DR), 1e-4f, 1e-4f));
  EXPECT_TRUE(Both.toDense().approxEquals(refGemm(refGemm(DL, Ad), DR),
                                          1e-4f, 1e-4f));
}

TEST(SparseScale, FusedEqualsTwoPass) {
  CsrMatrix A = randomSparse(10, 10, 30, 701, false);
  std::vector<float> L(10), R(10);
  Rng Gen(702);
  for (size_t I = 0; I < 10; ++I) {
    L[I] = Gen.nextFloat(0.1f, 2.f);
    R[I] = Gen.nextFloat(0.1f, 2.f);
  }
  const auto Nnz = static_cast<size_t>(A.nnz());
  std::vector<float> Fused(Nnz), TwoPass(Nnz);
  CsrMatrix RowScaled = A;
  RowScaled.setValues(std::vector<float>(Nnz));
  kernels::scaleSparseBothInto(A, A.values(), L, R, Fused);
  kernels::scaleSparseRowsInto(A, A.values(), L, RowScaled.mutableValues());
  kernels::scaleSparseColsInto(RowScaled, RowScaled.values(), R, TwoPass);
  for (size_t K = 0; K < Nnz; ++K)
    EXPECT_NEAR(Fused[K], TwoPass[K], 1e-5f);
}

TEST(EdgeSoftmax, RowsSumToOne) {
  CsrMatrix A = randomSparse(12, 12, 40, 800, true);
  std::vector<float> Soft(static_cast<size_t>(A.nnz()));
  kernels::edgeSoftmaxInto(A, A.values(), Soft);
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
  std::vector<float> Soft(2);
  kernels::edgeSoftmaxInto(A, std::vector<float>{500.0f, 500.0f}, Soft);
  EXPECT_NEAR(Soft[0], 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(Soft[1]));
}

TEST(EdgeMap, LeakyReluEdges) {
  std::vector<float> Out(2);
  kernels::leakyReluEdgesInto(std::vector<float>{-1.0f, 2.0f}, 0.25f, Out);
  EXPECT_FLOAT_EQ(Out[0], -0.25f);
  EXPECT_FLOAT_EQ(Out[1], 2.0f);
}

//===----------------------------------------------------------------------===//
// Degree kernels
//===----------------------------------------------------------------------===//

TEST(Degree, OffsetsAndBinningAgree) {
  CsrMatrix A = randomSparse(30, 30, 100, 900, false);
  std::vector<float> Off(30), Bin(30);
  kernels::degreeFromOffsetsInto(A, Off);
  kernels::degreeByBinningInto(A, Bin);
  for (size_t I = 0; I < Off.size(); ++I)
    EXPECT_FLOAT_EQ(Off[I], Bin[I]);
}

TEST(Degree, SumsToNnz) {
  CsrMatrix A = randomSparse(25, 25, 80, 901, false);
  std::vector<float> Deg(25);
  kernels::degreeFromOffsetsInto(A, Deg);
  double Sum = 0.0;
  for (float D : Deg)
    Sum += D;
  EXPECT_DOUBLE_EQ(Sum, static_cast<double>(A.nnz()));
}

TEST(Degree, InvSqrtZeroesIsolatedNodes) {
  const std::vector<float> Degrees = {0.0f, 4.0f};
  std::vector<float> Out(2);
  kernels::invSqrtInto(Degrees, Out);
  EXPECT_FLOAT_EQ(Out[0], 0.0f); // isolated node: no normalization mass
  EXPECT_FLOAT_EQ(Out[1], 0.5f);
}

TEST(Degree, InvDegreeZeroesIsolatedNodes) {
  const std::vector<float> Degrees = {0.0f, 4.0f};
  std::vector<float> Out(2);
  kernels::invDegreeInto(Degrees, Out);
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

  std::vector<float> Deg(4), Norm(4);
  kernels::degreeFromOffsetsInto(A, Deg);
  kernels::invSqrtInto(Deg, Norm);
  CsrMatrix Scaled = A;
  kernels::scaleSparseBothInto(A, A.values(), Norm, Norm,
                               Scaled.mutableValues());

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
  DenseMatrix Dst(4, 3);
  EXPECT_DEATH(kernels::gemmInto(A, B, Dst), "gemm inner dimension mismatch");
}

TEST(KernelChecks, SpmmDimMismatchDies) {
  CsrMatrix A = randomSparse(8, 8, 20, 72, true);
  DenseMatrix B = randomDense(9, 4, 73); // 8 cols vs 9 rows
  DenseMatrix Dst(8, 4);
  EXPECT_DEATH(kernels::spmmInto(A, A.values(), B, Dst),
               "spmm dimension mismatch");
  DenseMatrix Rows8 = randomDense(8, 4, 73);
  std::vector<float> Short(static_cast<size_t>(A.nnz() - 1), 1.0f);
  EXPECT_DEATH(kernels::spmmInto(A, Short, Rows8, Dst),
               "spmm edge value count mismatch");
}

TEST(KernelChecks, SpmmCscTransposedShapeMismatchDies) {
  CooMatrix Coo(10, 6);
  for (int64_t I = 0; I < 10; ++I)
    Coo.add(I, I % 6, 1.0f);
  CsrMatrix A = Coo.toCsr(/*Unweighted=*/false);
  CscMatrix Csc = CscMatrix::fromCsr(A);
  DenseMatrix Dst(6, 4);
  DenseMatrix WrongRows(9, 4); // A^T (x) B needs A.rows() == B.rows()
  EXPECT_DEATH(
      kernels::spmmCscTransposedInto(Csc, A.values(), WrongRows, Dst),
      "spmm_csc_t dimension mismatch");
  DenseMatrix B(10, 4);
  DenseMatrix WrongDst(10, 4); // must be A.cols() x B.cols()
  EXPECT_DEATH(kernels::spmmCscTransposedInto(Csc, A.values(), B, WrongDst),
               "spmm_csc_t destination shape mismatch");
  std::vector<float> Short(static_cast<size_t>(A.nnz() - 1), 1.0f);
  EXPECT_DEATH(kernels::spmmCscTransposedInto(Csc, Short, B, Dst),
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
  EXPECT_DEATH(kernels::spmmInto(A, A.values(), B, Dst),
               "spmm destination shape mismatch");
}

//===----------------------------------------------------------------------===//
// Determinism across thread counts
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p F with the pool pinned to \p Threads, then restores the
/// default configuration.
template <typename Fn> void withThreads(int Threads, Fn &&F) {
  ThreadPool::get().setNumThreads(Threads);
  F();
  ThreadPool::get().setNumThreads(0);
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
  DenseMatrix One(G.numNodes(), 48), Many(G.numNodes(), 48);
  withThreads(1, [&] { kernels::spmmInto(G.adjacency(), {}, H, One); });
  for (int Threads : {2, 3, 8}) {
    withThreads(Threads,
                [&] { kernels::spmmInto(G.adjacency(), {}, H, Many); });
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
  DenseMatrix One(G.numNodes(), 48), Eight(G.numNodes(), 48);
  withThreads(1, [&] { kernels::spmmInto(A, A.values(), H, One); });
  withThreads(8, [&] { kernels::spmmInto(A, A.values(), H, Eight); });
  expectBitwiseEqual(One, Eight);
}

TEST(Determinism, GemmFamilyBitwiseIdenticalAcrossThreadCounts) {
  DenseMatrix A = randomDense(300, 64, 84);
  DenseMatrix B = randomDense(64, 96, 85);
  DenseMatrix One(300, 96), Eight(300, 96);
  withThreads(1, [&] { kernels::gemmInto(A, B, One); });
  withThreads(8, [&] { kernels::gemmInto(A, B, Eight); });
  expectBitwiseEqual(One, Eight);
  DenseMatrix At = randomDense(300, 64, 86); // A^T*B over shared dim 300
  DenseMatrix LhsOne(64, 64), LhsEight(64, 64);
  withThreads(1, [&] { kernels::gemmTransposedLhsInto(At, A, LhsOne); });
  withThreads(8, [&] { kernels::gemmTransposedLhsInto(At, A, LhsEight); });
  expectBitwiseEqual(LhsOne, LhsEight);
  DenseMatrix RhsOne(300, 300), RhsEight(300, 300);
  withThreads(1, [&] { kernels::gemmTransposedRhsInto(A, At, RhsOne); });
  withThreads(8, [&] { kernels::gemmTransposedRhsInto(A, At, RhsEight); });
  expectBitwiseEqual(RhsOne, RhsEight);
}

// The weight gradient's A^T * B splits C into column panels (and, with
// fewer panels than threads, row blocks). Every element must still be the
// one ascending chain over all M contraction rows, carried across windows:
// fused multiply-adds at the SIMD levels, a product then a sum (skipping
// zero A entries) at the scalar level. Widths cover a partial vector (13),
// a partial panel (61), whole panels (128) and a two-column tail (130);
// 37 output rows leave a partial register block.
TEST(Determinism, GemmTLhsPanelsKeepEachElementsChain) {
  const int64_t M = 2 * kernels::GemmTLhsWindowRows + 77;
  const bool Scalar = kernels::simdOps().Level == kernels::IsaLevel::Scalar;
  for (int64_t Rows : {64, 37}) {
    for (int64_t N : {13, 61, 128, 130}) {
      SCOPED_TRACE(std::to_string(Rows) + " x " + std::to_string(N));
      DenseMatrix A = randomDense(M, Rows, 90 + N);
      DenseMatrix B = randomDense(M, N, 91 + N);
      DenseMatrix Want(Rows, N);
      for (int64_t R = 0; R < Rows; ++R)
        for (int64_t J = 0; J < N; ++J) {
          float Acc = 0.0f;
          for (int64_t I = 0; I < M; ++I) {
            const float X = A.data()[I * Rows + R], Y = B.data()[I * N + J];
            if (!Scalar)
              Acc = std::fma(X, Y, Acc);
            else if (X != 0.0f)
              Acc += X * Y;
          }
          Want.data()[R * N + J] = Acc;
        }
      for (int Threads : {1, 3, 4, 8}) {
        SCOPED_TRACE(std::to_string(Threads) + " threads");
        DenseMatrix Got(Rows, N);
        Got.fill(-7.0f);
        withThreads(Threads,
                    [&] { kernels::gemmTransposedLhsInto(A, B, Got); });
        expectBitwiseEqual(Got, Want);
      }
    }
  }
}

TEST(Determinism, SddmmBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  DenseMatrix U = randomDense(G.numNodes(), 32, 87);
  DenseMatrix V = randomDense(G.numNodes(), 32, 88);
  std::vector<float> One(static_cast<size_t>(G.numEdges()));
  std::vector<float> Eight(One.size());
  withThreads(1, [&] { kernels::sddmmInto(G.adjacency(), U, V, One); });
  withThreads(8, [&] { kernels::sddmmInto(G.adjacency(), U, V, Eight); });
  expectBitwiseEqual(One, Eight);
}

TEST(Determinism, EdgeSoftmaxBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  Rng R(89);
  std::vector<float> Logits(static_cast<size_t>(G.numEdges()));
  for (float &V : Logits)
    V = R.nextFloat(-2.0f, 2.0f);
  std::vector<float> One(Logits.size()), Eight(Logits.size());
  withThreads(1, [&] { kernels::edgeSoftmaxInto(G.adjacency(), Logits, One); });
  withThreads(8,
              [&] { kernels::edgeSoftmaxInto(G.adjacency(), Logits, Eight); });
  expectBitwiseEqual(One, Eight);
}

TEST(Determinism, TransposeBitwiseIdenticalAcrossThreadCounts) {
  const Graph &G = skewedGraph();
  CsrMatrix One, Eight;
  withThreads(1, [&] { One = G.adjacency().transposed(); });
  withThreads(8, [&] { Eight = G.adjacency().transposed(); });
  ASSERT_EQ(One.rowOffsets(), Eight.rowOffsets());
  ASSERT_EQ(One.colIndices(), Eight.colIndices());
  expectBitwiseEqual(One.values(), Eight.values());
}
