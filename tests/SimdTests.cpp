//===- SimdTests.cpp - Runtime ISA dispatch and SIMD kernel tests -----------===//
//
// Covers the kernel dispatch layer (src/kernels/Dispatch.h): level parsing
// and naming, CPUID-bounded level enumeration, the setIsaLevel override,
// table completeness, the 64-byte alignment contract of the tensor storage,
// cross-ISA agreement of every dispatched kernel family on fixtures whose
// shapes exercise both the vector bodies and the scalar tails, the exact
// per-element reduction order of the GEMM, SpMM and SDDMM row routines, and
// the scalar loops' bits from the GEMV and gradient entries at every level.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"
#include "kernels/Kernels.h"
#include "support/Aligned.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tensor/CooMatrix.h"
#include "tensor/CscMatrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

using namespace granii;
using kernels::IsaLevel;

namespace {

/// Restores the entry ISA level even when an ASSERT unwinds the test body.
struct IsaLevelGuard {
  IsaLevel Entry = kernels::activeIsaLevel();
  ~IsaLevelGuard() { kernels::setIsaLevel(Entry); }
};

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


void expectApproxEqual(const DenseMatrix &Got, const DenseMatrix &Want,
                       float Tol, const std::string &What) {
  EXPECT_TRUE(Got.approxEquals(Want, Tol, Tol))
      << What << " differs from the scalar level by "
      << Got.maxAbsDiff(Want);
}

void expectBitwiseEqual(const DenseMatrix &Got, const DenseMatrix &Want,
                        const std::string &What) {
  EXPECT_EQ(Got.maxAbsDiff(Want), 0.0f)
      << What << " is not bitwise identical to the scalar level";
}

} // namespace

//===----------------------------------------------------------------------===//
// Level parsing, naming, enumeration
//===----------------------------------------------------------------------===//

TEST(Dispatch, IsaNamesRoundTrip) {
  EXPECT_EQ(kernels::parseIsaLevel("scalar"), IsaLevel::Scalar);
  EXPECT_EQ(kernels::parseIsaLevel("avx2"), IsaLevel::Avx2);
  EXPECT_EQ(kernels::parseIsaLevel("avx512"), IsaLevel::Avx512);
  for (IsaLevel Level :
       {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512})
    EXPECT_EQ(kernels::parseIsaLevel(kernels::isaLevelName(Level)), Level);
}

TEST(Dispatch, IsaParsingRejectsGarbage) {
  EXPECT_FALSE(kernels::parseIsaLevel(""));
  EXPECT_FALSE(kernels::parseIsaLevel("AVX2"));
  EXPECT_FALSE(kernels::parseIsaLevel("avx-512"));
  EXPECT_FALSE(kernels::parseIsaLevel("sse4"));
  EXPECT_FALSE(kernels::parseIsaLevel(" scalar"));
}

TEST(Dispatch, SupportedLevelsStartWithScalarAndAscend) {
  std::vector<IsaLevel> Levels = kernels::supportedIsaLevels();
  ASSERT_FALSE(Levels.empty());
  EXPECT_EQ(Levels.front(), IsaLevel::Scalar);
  for (size_t I = 1; I < Levels.size(); ++I)
    EXPECT_LT(Levels[I - 1], Levels[I]);
  EXPECT_EQ(Levels.back(), kernels::detectedIsaLevel());
}

TEST(Dispatch, SetIsaLevelSwitchesActiveTable) {
  IsaLevelGuard Guard;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    EXPECT_EQ(kernels::activeIsaLevel(), Level);
    EXPECT_EQ(kernels::simdOps().Level, Level);
    EXPECT_STREQ(kernels::simdOps().Name, kernels::isaLevelName(Level));
  }
}

TEST(Dispatch, UnavailableLevelsAreRejected) {
  IsaLevelGuard Guard;
  IsaLevel Detected = kernels::detectedIsaLevel();
  for (IsaLevel Level :
       {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512}) {
    if (Level <= Detected)
      continue;
    EXPECT_EQ(kernels::simdOpsFor(Level), nullptr);
    // A rejected request must leave the active level untouched.
    EXPECT_FALSE(kernels::setIsaLevel(Level));
    EXPECT_EQ(kernels::activeIsaLevel(), Guard.Entry);
  }
}

TEST(Dispatch, TablesAreFullyPopulated) {
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    const kernels::SimdOps *Ops = kernels::simdOpsFor(Level);
    ASSERT_NE(Ops, nullptr) << kernels::isaLevelName(Level);
    EXPECT_EQ(Ops->Level, Level);
    EXPECT_NE(Ops->GemmRowRange, nullptr);
    EXPECT_NE(Ops->GemmTLhsRowRange, nullptr);
    EXPECT_NE(Ops->GemmTRhsRowRange, nullptr);
    EXPECT_NE(Ops->SpmmRowRange, nullptr);
    EXPECT_NE(Ops->SddmmDotRowRange, nullptr);
    EXPECT_NE(Ops->ScaleRange, nullptr);
    EXPECT_NE(Ops->MulRange, nullptr);
    EXPECT_NE(Ops->AddRange, nullptr);
    EXPECT_NE(Ops->AxpyRange, nullptr);
    EXPECT_NE(Ops->ReluRange, nullptr);
    EXPECT_NE(Ops->ReluBackwardRange, nullptr);
    EXPECT_NE(Ops->LeakyReluRange, nullptr);
    EXPECT_NE(Ops->GemvRowRange, nullptr);
    EXPECT_NE(Ops->AttnThetaGradRows, nullptr);
    EXPECT_NE(Ops->AttnVecGradCols, nullptr);
    EXPECT_NE(Ops->LeakyReluBackwardRange, nullptr);
    EXPECT_GE(Ops->DenseThroughputScale, 1.0);
    EXPECT_GE(Ops->SparseThroughputScale, 1.0);
  }
  // The scalar table reproduces the pre-SIMD kernels: unit throughput (it
  // is the calibration baseline).
  const kernels::SimdOps *Scalar = kernels::simdOpsFor(IsaLevel::Scalar);
  ASSERT_NE(Scalar, nullptr);
  EXPECT_EQ(Scalar->DenseThroughputScale, 1.0);
  EXPECT_EQ(Scalar->SparseThroughputScale, 1.0);
}

//===----------------------------------------------------------------------===//
// Alignment contract of the tensor storage
//===----------------------------------------------------------------------===//

TEST(Alignment, DenseMatrixStorageIsCacheLineAligned) {
  for (auto [Rows, Cols] : {std::pair<int64_t, int64_t>{1, 1},
                            {17, 9},
                            {64, 64},
                            {3, 1000}}) {
    DenseMatrix M(Rows, Cols);
    EXPECT_TRUE(isKernelAligned(M.data()));
  }
  // Arena-style reshapes reuse the buffer and must keep the alignment.
  DenseMatrix M(8, 8);
  const float *Before = M.data();
  M.resize(4, 16);
  EXPECT_EQ(M.data(), Before);
  EXPECT_TRUE(isKernelAligned(M.data()));
}

TEST(Alignment, CsrMatrixStorageIsCacheLineAligned) {
  CsrMatrix A = randomSparse(50, 50, 300, 99, /*Weighted=*/true);
  EXPECT_TRUE(isKernelAligned(A.rowOffsets().data()));
  EXPECT_TRUE(isKernelAligned(A.colIndices().data()));
  EXPECT_TRUE(isKernelAligned(A.values().data()));
}

TEST(Alignment, AlignedVectorSurvivesGrowth) {
  AlignedVector<float> V;
  for (int I = 0; I < 1000; ++I) {
    V.push_back(static_cast<float>(I));
    ASSERT_TRUE(isKernelAligned(V.data()));
  }
}

// Growth across MappedAllocationBytes moves the buffer from operator new to
// mapped pages and back on shrink_to_fit; contents and alignment survive.
TEST(Alignment, AlignedVectorCrossesTheMappedThreshold) {
  const size_t Mapped = MappedAllocationBytes / sizeof(float);
  AlignedVector<float> V(Mapped / 2);
  for (size_t I = 0; I < V.size(); ++I)
    V[I] = static_cast<float>(I);
  V.resize(3 * Mapped);
  ASSERT_TRUE(isKernelAligned(V.data()));
  EXPECT_EQ(V[Mapped / 2 - 1], static_cast<float>(Mapped / 2 - 1));
  EXPECT_EQ(V.back(), 0.0f);
  AlignedVector<float> Copy = V; // a second mapping, same bytes
  EXPECT_NE(Copy.data(), V.data());
  EXPECT_TRUE(Copy == V);
  V.resize(16);
  V.shrink_to_fit();
  ASSERT_TRUE(isKernelAligned(V.data()));
  EXPECT_EQ(V[15], 15.0f);
}

//===----------------------------------------------------------------------===//
// Cross-ISA kernel agreement
//===----------------------------------------------------------------------===//
//
// Shapes deliberately avoid vector-width multiples (K = 45, N = 29, ...)
// so every level runs both its vector body and its scalar tail.

TEST(CrossIsa, GemmFamilyAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  DenseMatrix A = randomDense(37, 45, 11);
  DenseMatrix B = randomDense(45, 29, 12);
  DenseMatrix At = randomDense(45, 37, 13); // lhs of the A^T * B form
  DenseMatrix Bt = randomDense(29, 45, 14); // rhs of the A * B^T form

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefGemm(37, 29), RefTLhs(37, 29), RefTRhs(37, 29);
  kernels::gemmInto(A, B, RefGemm);
  kernels::gemmTransposedLhsInto(At, B, RefTLhs);
  kernels::gemmTransposedRhsInto(A, Bt, RefTRhs);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix Gemm(37, 29), TLhs(37, 29), TRhs(37, 29);
    kernels::gemmInto(A, B, Gemm);
    kernels::gemmTransposedLhsInto(At, B, TLhs);
    kernels::gemmTransposedRhsInto(A, Bt, TRhs);
    expectApproxEqual(Gemm, RefGemm, 1e-5f, "gemm");
    expectApproxEqual(TLhs, RefTLhs, 1e-5f, "gemmTransposedLhs");
    expectApproxEqual(TRhs, RefTRhs, 1e-5f, "gemmTransposedRhs");
  }
}

TEST(CrossIsa, SpmmAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  CsrMatrix Weighted = randomSparse(60, 60, 320, 21, /*Weighted=*/true);
  CsrMatrix Unweighted = randomSparse(60, 60, 320, 22, /*Weighted=*/false);
  DenseMatrix B = randomDense(60, 33, 23);

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefW(60, 33), RefU(60, 33);
  kernels::spmmInto(Weighted, Weighted.values(), B, RefW);
  kernels::spmmInto(Unweighted, {}, B, RefU);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix GotW(60, 33), GotU(60, 33);
    kernels::spmmInto(Weighted, Weighted.values(), B, GotW);
    kernels::spmmInto(Unweighted, {}, B, GotU);
    expectApproxEqual(GotW, RefW, 1e-5f, "weighted spmm");
    expectApproxEqual(GotU, RefU, 1e-5f, "unweighted spmm");
  }
}

TEST(CrossIsa, SddmmAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  CsrMatrix Mask = randomSparse(40, 40, 260, 31, /*Weighted=*/false);
  DenseMatrix U = randomDense(40, 21, 32);
  DenseMatrix V = randomDense(40, 21, 33);

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  std::vector<float> Ref(static_cast<size_t>(Mask.nnz()));
  kernels::sddmmInto(Mask, U, V, Ref);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    std::vector<float> Got(Ref.size());
    kernels::sddmmInto(Mask, U, V, Got);
    for (size_t I = 0; I < Ref.size(); ++I)
      EXPECT_NEAR(Got[I], Ref[I], 1e-5f) << "edge " << I;
  }
}

TEST(CrossIsa, ElementwiseOpsAreBitwiseAcrossLevels) {
  // Scale, add, multiply, and ReLU apply the same single IEEE operation per
  // element at every level; vectorization cannot change a bit.
  IsaLevelGuard Guard;
  DenseMatrix A = randomDense(23, 37, 41);
  DenseMatrix B = randomDense(23, 37, 42);
  std::vector<float> D(23);
  Rng R(43);
  for (float &X : D)
    X = R.nextFloat(-1.0f, 1.0f);

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefRelu(23, 37), RefAdd(23, 37), RefScale(23, 37),
      RefRowMul(23, 37);
  kernels::reluInto(A, RefRelu);
  kernels::addMatricesInto(A, B, RefAdd);
  kernels::scaleMatrixInto(A, 0.37f, RefScale);
  kernels::rowBroadcastMulInto(D, A, RefRowMul);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix Relu(23, 37), Add(23, 37), Scale(23, 37), RowMul(23, 37);
    kernels::reluInto(A, Relu);
    kernels::addMatricesInto(A, B, Add);
    kernels::scaleMatrixInto(A, 0.37f, Scale);
    kernels::rowBroadcastMulInto(D, A, RowMul);
    expectBitwiseEqual(Relu, RefRelu, "relu");
    expectBitwiseEqual(Add, RefAdd, "addMatrices");
    expectBitwiseEqual(Scale, RefScale, "scaleMatrix");
    expectBitwiseEqual(RowMul, RefRowMul, "rowBroadcastMul");
  }
}

TEST(CrossIsa, AxpyAgreesWithScalarLevel) {
  // axpy uses fused multiply-add on the SIMD levels, so only approximate
  // agreement with the scalar level's mul-then-add holds.
  IsaLevelGuard Guard;
  DenseMatrix A = randomDense(19, 31, 51);
  DenseMatrix Base = randomDense(19, 31, 52);

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix Ref = Base;
  kernels::axpyInto(0.73f, A, Ref);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix Got = Base;
    kernels::axpyInto(0.73f, A, Got);
    expectApproxEqual(Got, Ref, 1e-5f, "axpy");
  }
}

TEST(CrossIsa, WithinLevelResultsAreThreadCountInvariant) {
  // The bitwise 1-vs-N-thread contract, checked per level directly at the
  // kernel layer (the differential suite covers the full pipeline).
  IsaLevelGuard Guard;
  CsrMatrix A = randomSparse(80, 80, 500, 61, /*Weighted=*/true);
  DenseMatrix H = randomDense(80, 29, 62);
  int EntryThreads = ThreadPool::get().numThreads();
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix One(80, 29), Four(80, 29);
    ThreadPool::get().setNumThreads(1);
    kernels::spmmInto(A, A.values(), H, One);
    ThreadPool::get().setNumThreads(4);
    kernels::spmmInto(A, A.values(), H, Four);
    EXPECT_EQ(Four.maxAbsDiff(One), 0.0f)
        << "thread count changed spmm output";
  }
  ThreadPool::get().setNumThreads(EntryThreads);
}

//===----------------------------------------------------------------------===//
// Reduction order
//===----------------------------------------------------------------------===//
//
// Each dispatched reduction is compared bit for bit against its chain
// written out here: the same start value, the operands in the same order,
// one step per contraction row or nonzero. The SIMD levels step with FMA or
// a plain add; the scalar table keeps the pre-SIMD multiply-then-add. A
// kernel that splits, reorders or restarts a chain (a window that resets
// its accumulator to 0, a register block that skips a row) fails here even
// where its result is within rounding of the right answer.

namespace {

/// Uniform floats in [-1, 1), every 7th one exactly zero so the scalar
/// table's zero-multiplier skip is exercised.
std::vector<float> randomFloats(size_t Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> Out(Count);
  for (size_t I = 0; I < Count; ++I)
    Out[I] = I % 7 == 3 ? 0.0f : R.nextFloat(-1.0f, 1.0f);
  return Out;
}

/// One contraction step of the GEMM family at \p Level.
float gemmStep(IsaLevel Level, float A, float B, float Acc) {
  if (Level != IsaLevel::Scalar)
    return std::fma(A, B, Acc);
  return A == 0.0f ? Acc : Acc + A * B;
}

/// One nonzero's step of the SpMM at \p Level: a plain add when
/// unweighted, else the edge value times the source element added in (an
/// FMA on the SIMD levels).
float spmmStep(IsaLevel Level, bool Weighted, float Edge, float Src,
               float Acc) {
  if (!Weighted)
    return Acc + Src;
  return Level == IsaLevel::Scalar ? Acc + Edge * Src
                                   : std::fma(Edge, Src, Acc);
}

void expectSameBits(const std::vector<float> &Got,
                    const std::vector<float> &Want, const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  size_t Mismatches = 0, First = 0;
  for (size_t I = 0; I < Want.size(); ++I)
    if (std::bit_cast<uint32_t>(Got[I]) != std::bit_cast<uint32_t>(Want[I]) &&
        Mismatches++ == 0)
      First = I;
  EXPECT_EQ(Mismatches, 0u) << What << ": first mismatch at flat index "
                            << First << " (got " << Got[First] << ", want "
                            << Want[First] << ")";
}

/// A CSR pattern over \p Rows rows and \p SrcRows columns with empty rows
/// and rows of up to 24 nonzeros.
struct SparseFixture {
  std::vector<int64_t> Offsets{0};
  std::vector<int32_t> Cols;
  std::vector<float> Vals;
  std::vector<int64_t> ValIdx; ///< a permutation of [0, nnz)

  SparseFixture(int64_t Rows, int64_t SrcRows, uint64_t Seed) {
    Rng R(Seed);
    for (int64_t Row = 0; Row < Rows; ++Row) {
      const uint64_t Len = Row % 5 == 2 ? 0 : R.nextBelow(25);
      for (uint64_t K = 0; K < Len; ++K)
        Cols.push_back(static_cast<int32_t>(
            R.nextBelow(static_cast<uint64_t>(SrcRows))));
      Offsets.push_back(static_cast<int64_t>(Cols.size()));
    }
    Vals = randomFloats(Cols.size(), Seed + 1);
    ValIdx.resize(Cols.size());
    std::iota(ValIdx.begin(), ValIdx.end(), int64_t{0});
    for (size_t I = ValIdx.size(); I > 1; --I)
      std::swap(ValIdx[I - 1], ValIdx[R.nextBelow(I)]);
  }
  int64_t rows() const { return static_cast<int64_t>(Offsets.size()) - 1; }
};

} // namespace

TEST(ReductionOrder, GemmRowRangeIsOneChainPerElement) {
  // Padded leading dimensions; 11 rows split at 6 cut a 4-row register
  // block; widths cover the 2-vector, 1-vector and scalar-tail paths.
  const int64_t M = 11, K = 45, Lda = K + 3;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (int64_t N : {13, 29, 61, 141}) {
      const int64_t Ldb = N + 5, Ldc = N + 7;
      const std::vector<float> A = randomFloats(M * Lda, 101);
      const std::vector<float> B = randomFloats(K * Ldb, 102);
      // Stale destination contents must not leak into any element.
      const std::vector<float> Init = randomFloats(M * Ldc, 103);
      std::vector<float> Got = Init;
      Ops.GemmRowRange(A.data(), Lda, B.data(), Ldb, Got.data(), Ldc, K, N, 0,
                       6, nullptr);
      Ops.GemmRowRange(A.data(), Lda, B.data(), Ldb, Got.data(), Ldc, K, N, 6,
                       M, nullptr);
      std::vector<float> Want = Init;
      for (int64_t I = 0; I < M; ++I)
        for (int64_t J = 0; J < N; ++J) {
          float Acc = 0.0f;
          for (int64_t KK = 0; KK < K; ++KK)
            Acc = gemmStep(Level, A[I * Lda + KK], B[KK * Ldb + J], Acc);
          Want[I * Ldc + J] = Acc;
        }
      expectSameBits(Got, Want, "gemm N=" + std::to_string(N));
    }
  }
}

TEST(ReductionOrder, GemmTLhsRowRangeCarriesChainsAcrossWindows) {
  // Two full contraction windows plus a partial one: each element's chain
  // must run unbroken from 0 through all M rows.
  const int64_t M = 2 * kernels::GemmTLhsWindowRows + 37;
  const int64_t Rows = 11; // columns of A = rows of C
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (int64_t N : {13, 61}) {
      const std::vector<float> A = randomFloats(M * Rows, 201);
      const std::vector<float> B = randomFloats(M * N, 202);
      std::vector<float> Got(static_cast<size_t>(Rows * N), 123.0f);
      Ops.GemmTLhsRowRange(A.data(), Rows, B.data(), N, Got.data(), N, M, N,
                           0, 6);
      Ops.GemmTLhsRowRange(A.data(), Rows, B.data(), N, Got.data(), N, M, N,
                           6, Rows);
      std::vector<float> Want(Got.size());
      for (int64_t R = 0; R < Rows; ++R)
        for (int64_t J = 0; J < N; ++J) {
          float Acc = 0.0f;
          for (int64_t I = 0; I < M; ++I)
            Acc = gemmStep(Level, A[I * Rows + R], B[I * N + J], Acc);
          Want[R * N + J] = Acc;
        }
      expectSameBits(Got, Want, "gemm_t_lhs N=" + std::to_string(N));
    }
  }
}

TEST(ReductionOrder, SpmmRowRangeIsOneChainPerElement) {
  const SparseFixture A(40, 50, 301);
  // Row widths: under one vector, several vectors plus a tail, and more
  // than one register chunk plus a tail.
  const int64_t Widths[] = {13, 29, 141};
  const float Sentinel = -7.25f;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (const int64_t Width : Widths) {
      const int64_t Ldb = Width + 3, LdDst = Width + 2;
      const std::vector<float> B = randomFloats(50 * Ldb, 302);
      for (bool Weighted : {false, true})
        for (bool Indexed : {false, true}) {
          const float *Vals = Weighted ? A.Vals.data() : nullptr;
          const int64_t *ValIdx = Indexed ? A.ValIdx.data() : nullptr;
          std::vector<float> Got(static_cast<size_t>(A.rows() * LdDst),
                                 Sentinel);
          for (auto [RowBegin, RowEnd] :
               {std::pair<int64_t, int64_t>{0, 17}, {17, A.rows()}})
            Ops.SpmmRowRange(A.Offsets.data(), A.Cols.data(), Vals, ValIdx,
                             B.data(), Ldb, Got.data(), LdDst, Width,
                             RowBegin, RowEnd, nullptr);
          std::vector<float> Want(Got.size(), Sentinel);
          for (int64_t R = 0; R < A.rows(); ++R)
            for (int64_t J = 0; J < Width; ++J) {
              float Acc = 0.0f;
              for (int64_t K = A.Offsets[R]; K < A.Offsets[R + 1]; ++K) {
                const float Edge = Vals ? Vals[ValIdx ? ValIdx[K] : K] : 1.0f;
                Acc = spmmStep(Level, Weighted, Edge, B[A.Cols[K] * Ldb + J],
                               Acc);
              }
              Want[R * LdDst + J] = Acc;
            }
          expectSameBits(Got, Want,
                         std::string(Weighted ? "weighted" : "unweighted") +
                             (Indexed ? " indexed" : "") + " width " +
                             std::to_string(Width));
        }
    }
  }
}

TEST(ReductionOrder, CscTransposedSpmmMatchesSpmmOfTranspose) {
  // The backward-pass SpMM reads values through the CSC->CSR index and
  // must equal the explicit transpose-then-SpMM bit for bit.
  IsaLevelGuard Guard;
  const CsrMatrix Weighted = randomSparse(70, 50, 400, 71, /*Weighted=*/true);
  const CsrMatrix Unweighted =
      randomSparse(70, 50, 400, 72, /*Weighted=*/false);
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    for (int64_t Width : {13, 141}) {
      const DenseMatrix B = randomDense(70, Width, 73);
      for (const CsrMatrix *A : {&Weighted, &Unweighted}) {
        const CscMatrix Csc = CscMatrix::fromCsr(*A);
        const CsrMatrix At = A->transposed();
        for (bool ReadValues : {true, false}) {
          DenseMatrix Got(50, Width);
          kernels::spmmCscTransposedInto(
              Csc, ReadValues ? A->values() : std::span<const float>(), B,
              Got);
          DenseMatrix Want(50, Width);
          kernels::spmmInto(
              At, ReadValues ? At.values() : std::span<const float>(), B,
              Want);
          expectSameBits(
              std::vector<float>(Got.data(), Got.data() + 50 * Width),
              std::vector<float>(Want.data(), Want.data() + 50 * Width),
              std::string(A == &Weighted ? "weighted" : "unweighted") +
                  (ReadValues ? " values" : " no values") + " width " +
                  std::to_string(Width));
        }
      }
    }
  }
}

namespace {

/// The horizontal-sum tree of \p Level over the lanes of \p V (8 lanes at
/// AVX2, 16 at AVX-512): halves fold pairwise down to one lane, the upper
/// half first as an operand at AVX-512 (_mm512_reduce_add_ps), the lower
/// one at AVX2 (the table's own tree).
float hsumTree(IsaLevel Level, std::vector<float> V) {
  const bool HiFirst = Level == IsaLevel::Avx512;
  while (V.size() > 1) {
    const size_t Half = V.size() / 2;
    for (size_t I = 0; I < Half; ++I)
      V[I] = HiFirst && V.size() > 4 ? V[I + Half] + V[I] : V[I] + V[I + Half];
    V.resize(Half);
  }
  return V[0];
}

/// One tail step of a dot product at \p Level: the SIMD levels' scalar
/// tails contract to FMA, the scalar level multiplies then adds.
float dotTailStep(IsaLevel Level, float X, float Y, float Acc) {
  return Level == IsaLevel::Scalar ? Acc + X * Y : std::fma(X, Y, Acc);
}

/// One element of C = A * B^T at \p Level, written as its chain: two
/// vector FMA chains over alternate vectors, their sum, the level's
/// horizontal-sum tree, then the tail.
float gemmTRhsElement(IsaLevel Level, const float *X, const float *Y,
                      int64_t K) {
  if (Level == IsaLevel::Scalar) {
    float Acc = 0.0f;
    for (int64_t KK = 0; KK < K; ++KK)
      Acc = Acc + X[KK] * Y[KK];
    return Acc;
  }
  const int64_t W = Level == IsaLevel::Avx512 ? 16 : 8;
  std::vector<float> Acc0(static_cast<size_t>(W), 0.0f), Acc1 = Acc0;
  int64_t KK = 0;
  for (; KK + 2 * W <= K; KK += 2 * W)
    for (int64_t L = 0; L < W; ++L) {
      Acc0[L] = std::fma(X[KK + L], Y[KK + L], Acc0[L]);
      Acc1[L] = std::fma(X[KK + W + L], Y[KK + W + L], Acc1[L]);
    }
  for (; KK + W <= K; KK += W)
    for (int64_t L = 0; L < W; ++L)
      Acc0[L] = std::fma(X[KK + L], Y[KK + L], Acc0[L]);
  for (int64_t L = 0; L < W; ++L)
    Acc0[L] = Acc0[L] + Acc1[L];
  float Sum = hsumTree(Level, Acc0);
  for (; KK < K; ++KK)
    Sum = dotTailStep(Level, X[KK], Y[KK], Sum);
  return Sum;
}

/// One edge's SDDMM dot product at \p Level: groups of 8 products, each
/// reduced by the AVX2 tree and added to the scalar accumulator, then the
/// tail (the scalar level is one mul-then-add chain).
float sddmmEdge(IsaLevel Level, const float *U, const float *V,
                int64_t Width) {
  float Acc = 0.0f;
  int64_t J = 0;
  if (Level != IsaLevel::Scalar)
    for (; J + 8 <= Width; J += 8) {
      std::vector<float> Products(8);
      for (int64_t L = 0; L < 8; ++L)
        Products[L] = U[J + L] * V[J + L];
      Acc = Acc + hsumTree(IsaLevel::Avx2, Products);
    }
  for (; J < Width; ++J)
    Acc = dotTailStep(Level, U[J], V[J], Acc);
  return Acc;
}

} // namespace

TEST(ReductionOrder, GemmTRhsRowRangeRunsEachElementsChain) {
  // Padded leading dimensions, contraction lengths with and without vector
  // tails, output widths that leave partial blocks of side-by-side
  // elements, and a row split.
  const int64_t M = 9;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (int64_t K : {13, 45, 128, 141})
      for (int64_t NOut : {1, 7, 13, 64}) {
        const int64_t Lda = K + 3, Ldb = K + 5, Ldc = NOut + 2;
        const std::vector<float> A = randomFloats(M * Lda, 601);
        const std::vector<float> B = randomFloats(NOut * Ldb, 602);
        std::vector<float> Got(static_cast<size_t>(M * Ldc), 7.0f);
        Ops.GemmTRhsRowRange(A.data(), Lda, B.data(), Ldb, Got.data(), Ldc, K,
                             NOut, 0, 4);
        Ops.GemmTRhsRowRange(A.data(), Lda, B.data(), Ldb, Got.data(), Ldc, K,
                             NOut, 4, M);
        std::vector<float> Want(Got.size(), 7.0f);
        for (int64_t I = 0; I < M; ++I)
          for (int64_t J = 0; J < NOut; ++J)
            Want[I * Ldc + J] =
                gemmTRhsElement(Level, &A[I * Lda], &B[J * Ldb], K);
        expectSameBits(Got, Want,
                       "gemm_t_rhs K=" + std::to_string(K) +
                           " NOut=" + std::to_string(NOut));
      }
  }
}

TEST(ReductionOrder, SddmmDotRowRangeRunsEachEdgesChain) {
  // Rows of 0 to 17 edges: runs of eight edges, of four, and lone edges in
  // every combination; every width from 1 to 67 (under, at and across the
  // 8-feature group, with every tail length); a row split.
  std::vector<int64_t> Offsets{0};
  std::vector<int32_t> Cols;
  Rng R(701);
  const int64_t Rows = 36, SrcRows = 40;
  for (int64_t Row = 0; Row < Rows; ++Row) {
    const int64_t Len = Row % 18;
    for (int64_t K = 0; K < Len; ++K)
      Cols.push_back(static_cast<int32_t>(
          R.nextBelow(static_cast<uint64_t>(SrcRows))));
    Offsets.push_back(static_cast<int64_t>(Cols.size()));
  }
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (int64_t Width = 1; Width <= 67; ++Width) {
      const int64_t Ldu = Width + 3, Ldv = Width + 1;
      const std::vector<float> U = randomFloats(Rows * Ldu, 702);
      const std::vector<float> V = randomFloats(SrcRows * Ldv, 703);
      std::vector<float> Got(Cols.size(), 9.0f);
      Ops.SddmmDotRowRange(Offsets.data(), Cols.data(), U.data(), Ldu,
                           V.data(), Ldv, Got.data(), Width, 0, 13);
      Ops.SddmmDotRowRange(Offsets.data(), Cols.data(), U.data(), Ldu,
                           V.data(), Ldv, Got.data(), Width, 13, Rows);
      std::vector<float> Want(Cols.size());
      for (int64_t Row = 0; Row < Rows; ++Row)
        for (int64_t K = Offsets[Row]; K < Offsets[Row + 1]; ++K)
          Want[K] = sddmmEdge(Level, &U[Row * Ldu], &V[Cols[K] * Ldv], Width);
      expectSameBits(Got, Want, "sddmm width " + std::to_string(Width));
    }
  }
}

TEST(ReductionOrder, ReluBackwardRangeIsAnExactSelect) {
  // Signed zeros, NaNs, infinities and subnormals in both operands, mixed
  // signs, and a length with a tail at every width.
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const float Inf = std::numeric_limits<float>::infinity();
  const float Tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> Specials = {0.0f,  -0.0f, Nan,   -Nan, Inf,
                                       -Inf,  Tiny,  -Tiny, 1.5f, -2.5f};
  std::vector<float> Pre, Grad;
  for (float P : Specials)
    for (float G : Specials) {
      Pre.push_back(P);
      Grad.push_back(G);
    }
  const std::vector<float> Mixed = randomFloats(77, 801);
  const std::vector<float> MixedGrad = randomFloats(77, 802);
  Pre.insert(Pre.end(), Mixed.begin(), Mixed.end());
  Grad.insert(Grad.end(), MixedGrad.begin(), MixedGrad.end());
  std::vector<float> Want(Pre.size());
  for (size_t I = 0; I < Pre.size(); ++I)
    Want[I] = Pre[I] > 0.0f ? Grad[I] : 0.0f;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    std::vector<float> Got(Pre.size(), 3.0f);
    Ops.ReluBackwardRange(Pre.data(), Grad.data(), Got.data(),
                          static_cast<int64_t>(Pre.size()));
    expectSameBits(Got, Want, "relu backward");
  }
}

TEST(ReductionOrder, LeakyReluRangeIsAnExactSelect) {
  // The scalar level's `x > 0 ? x : slope * x` at every level, lane for
  // lane: NaNs of both signs, signed zeros, infinities and subnormals (whose
  // product with the slope underflows), with a tail at every width.
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const float Inf = std::numeric_limits<float>::infinity();
  const float Tiny = std::numeric_limits<float>::denorm_min();
  std::vector<float> X = {0.0f,  -0.0f, Nan,          -Nan,
                          Inf,   -Inf,  Tiny,         -Tiny,
                          1.5f,  -2.5f, -3 * Tiny,    std::ldexp(-1.0f, -127)};
  const std::vector<float> Mixed = randomFloats(77, 811);
  X.insert(X.end(), Mixed.begin(), Mixed.end());
  const kernels::SimdOps &Scalar = *kernels::simdOpsFor(IsaLevel::Scalar);
  for (float Slope : {0.2f, 0.01f, -0.5f}) {
    std::vector<float> Want(X.size());
    for (size_t I = 0; I < X.size(); ++I)
      Want[I] = X[I] > 0.0f ? X[I] : Slope * X[I];
    std::vector<float> FromScalar(X.size(), 3.0f);
    Scalar.LeakyReluRange(Slope, X.data(), FromScalar.data(),
                          static_cast<int64_t>(X.size()));
    expectSameBits(FromScalar, Want, "scalar leaky relu");
    for (IsaLevel Level : kernels::supportedIsaLevels()) {
      SCOPED_TRACE(kernels::isaLevelName(Level));
      const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
      for (size_t Len : {X.size(), size_t{5}, size_t{21}}) {
        std::vector<float> Got(Len, 3.0f);
        Ops.LeakyReluRange(Slope, X.data(), Got.data(),
                           static_cast<int64_t>(Len));
        expectSameBits(Got, std::vector<float>(FromScalar.begin(),
                                               FromScalar.begin() + Len),
                       "leaky relu slope " + std::to_string(Slope) +
                           " length " + std::to_string(Len));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Rounded-product routines: GEMV, attention gradients, leaky ReLU gradient
//===----------------------------------------------------------------------===//
//
// These entries reproduce the scalar loops at every level: each product is
// rounded to float, then added, in the scalar loop's order. The references
// below are those loops (this file is compiled without FMA contraction).
// Operands mix ordinary values with signed zeros, infinities, NaNs and
// subnormals; a NaN result may carry either operand's payload, so NaNs
// compare as NaNs.

namespace {

/// Floats in [-1, 1) with every 11th a special: +-0, +-inf, NaN, the
/// smallest subnormals and a product-underflowing tiny normal.
std::vector<float> floatsWithSpecials(size_t Count, uint64_t Seed) {
  const float Specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -3 * std::numeric_limits<float>::denorm_min(),
                            std::ldexp(1.0f, -120)};
  std::vector<float> Out = randomFloats(Count, Seed);
  for (size_t I = 5; I < Count; I += 11)
    Out[I] = Specials[(I / 11) % std::size(Specials)];
  return Out;
}

/// expectSameBits, with any NaN matching any NaN.
void expectSameBitsOrNan(const std::vector<float> &Got,
                         const std::vector<float> &Want,
                         const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  size_t Mismatches = 0, First = 0;
  for (size_t I = 0; I < Want.size(); ++I) {
    const bool Same =
        std::bit_cast<uint32_t>(Got[I]) == std::bit_cast<uint32_t>(Want[I]) ||
        (std::isnan(Got[I]) && std::isnan(Want[I]));
    if (!Same && Mismatches++ == 0)
      First = I;
  }
  EXPECT_EQ(Mismatches, 0u) << What << ": first mismatch at flat index "
                            << First << " (got " << Got[First] << ", want "
                            << Want[First] << ")";
}

} // namespace

TEST(ReductionOrder, GemvRowRangeRunsEachRowsChain) {
  // 27 rows split at 3 and 14 (blocks of eight rows cut short at both ends
  // of a range, and lane-count remainders), every contraction length from 1
  // to 130, a padded leading dimension, specials in both operands.
  const int64_t M = 27;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (int64_t K = 1; K <= 130; ++K) {
      const int64_t Lda = K + 3;
      const std::vector<float> A =
          floatsWithSpecials(static_cast<size_t>(M * Lda), 901 + K);
      const std::vector<float> X = floatsWithSpecials(
          static_cast<size_t>(K), 902 + K);
      std::vector<float> Got(static_cast<size_t>(M) + 2, 5.0f);
      for (auto [B, E] : {std::pair<int64_t, int64_t>{0, 3}, {3, 14}, {14, M}})
        Ops.GemvRowRange(A.data(), Lda, X.data(), Got.data(), K, B, E);
      std::vector<float> Want(Got.size(), 5.0f);
      for (int64_t I = 0; I < M; ++I) {
        float Acc = 0.0f;
        for (int64_t J = 0; J < K; ++J)
          Acc = Acc + A[I * Lda + J] * X[J];
        Want[I] = Acc;
      }
      expectSameBitsOrNan(Got, Want, "gemv K=" + std::to_string(K));
    }
  }
}

TEST(ReductionOrder, AttnThetaGradRowsRoundsEachProduct) {
  // Rows whose gradient is zero (skipped, or zero-filled when first), -0
  // and special gradients, row widths 1 to 130 with vector tails, a padded
  // leading dimension, first and accumulating contributions.
  const int64_t Rows = 13;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (int64_t Cols = 1; Cols <= 130; ++Cols) {
      const int64_t Ld = Cols + 2;
      std::vector<float> Grad = floatsWithSpecials(Rows, 911 + Cols);
      Grad[2] = 0.0f;
      Grad[7] = -0.0f;
      const std::vector<float> AVec =
          floatsWithSpecials(static_cast<size_t>(Cols), 912 + Cols);
      const std::vector<float> Init =
          floatsWithSpecials(static_cast<size_t>(Rows * Ld), 913 + Cols);
      for (bool First : {true, false}) {
        std::vector<float> Got = Init;
        Ops.AttnThetaGradRows(Grad.data(), AVec.data(), Got.data(), Ld, Cols,
                              0, 5, First);
        Ops.AttnThetaGradRows(Grad.data(), AVec.data(), Got.data(), Ld, Cols,
                              5, Rows, First);
        std::vector<float> Want = Init;
        for (int64_t R = 0; R < Rows; ++R)
          for (int64_t C = 0; C < Cols; ++C) {
            float &Out = Want[R * Ld + C];
            if (Grad[R] == 0.0f)
              Out = First ? 0.0f : Out;
            else
              Out = (First ? 0.0f : Out) + Grad[R] * AVec[C];
          }
        expectSameBitsOrNan(Got, Want,
                            "attn theta grad cols=" + std::to_string(Cols) +
                                (First ? " first" : " accumulate"));
      }
    }
  }
}

TEST(ReductionOrder, AttnVecGradColsRunsEachColumnsChain) {
  // Column ranges of every width from 1 to 130, split where a pass of
  // vectors, a partial pass and a scalar tail meet; 41 rows with special
  // gradients and elements; first and accumulating contributions.
  const int64_t Rows = 41;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (int64_t Cols = 1; Cols <= 130; ++Cols) {
      const int64_t Ld = Cols + 1;
      const std::vector<float> Theta =
          floatsWithSpecials(static_cast<size_t>(Rows * Ld), 921 + Cols);
      const std::vector<float> Grad = floatsWithSpecials(Rows, 922 + Cols);
      const std::vector<float> Init =
          floatsWithSpecials(static_cast<size_t>(Cols), 923 + Cols);
      const int64_t Split = std::min<int64_t>(Cols, 16);
      for (bool First : {true, false}) {
        std::vector<float> Got = Init;
        Ops.AttnVecGradCols(Theta.data(), Ld, Rows, Grad.data(), Got.data(),
                            0, Split, First);
        Ops.AttnVecGradCols(Theta.data(), Ld, Rows, Grad.data(), Got.data(),
                            Split, Cols, First);
        std::vector<float> Want = Init;
        for (int64_t C = 0; C < Cols; ++C) {
          float Acc = First ? 0.0f : Want[C];
          for (int64_t R = 0; R < Rows; ++R)
            Acc = Acc + Grad[R] * Theta[R * Ld + C];
          Want[C] = Acc;
        }
        expectSameBitsOrNan(Got, Want,
                            "attn vec grad cols=" + std::to_string(Cols) +
                                (First ? " first" : " accumulate"));
      }
    }
  }
}

TEST(ReductionOrder, LeakyReluBackwardRangeIsTheScalarLoop) {
  // Every pairing of special inputs and gradients, the selection at NaN and
  // +-0, lengths with a tail at every width, first and accumulating.
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const float Inf = std::numeric_limits<float>::infinity();
  const float Tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> Specials = {0.0f, -0.0f, Nan,  Inf,  -Inf,
                                       Tiny, -Tiny, 1.5f, -2.5f};
  std::vector<float> Pre, Grad;
  for (float P : Specials)
    for (float G : Specials) {
      Pre.push_back(P);
      Grad.push_back(G);
    }
  const std::vector<float> MixedPre = randomFloats(77, 931);
  const std::vector<float> MixedGrad = randomFloats(77, 932);
  Pre.insert(Pre.end(), MixedPre.begin(), MixedPre.end());
  Grad.insert(Grad.end(), MixedGrad.begin(), MixedGrad.end());
  const std::vector<float> Init = floatsWithSpecials(Pre.size(), 933);
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    for (float Slope : {0.2f, -0.5f})
      for (bool First : {true, false})
        for (size_t Len : {Pre.size(), size_t{5}, size_t{21}}) {
          std::vector<float> Got(Init.begin(), Init.begin() + Len);
          Ops.LeakyReluBackwardRange(Slope, Pre.data(), Grad.data(),
                                     Got.data(), static_cast<int64_t>(Len),
                                     First);
          std::vector<float> Want(Init.begin(), Init.begin() + Len);
          for (size_t I = 0; I < Len; ++I) {
            const float Sel = Pre[I] > 0.0f ? 1.0f : Slope;
            Want[I] = (First ? 0.0f : Want[I]) + Grad[I] * Sel;
          }
          expectSameBitsOrNan(Got, Want,
                              "leaky relu backward slope " +
                                  std::to_string(Slope) + " length " +
                                  std::to_string(Len) +
                                  (First ? " first" : " accumulate"));
        }
  }
}

TEST(Dispatch, IsaUnitsRoundProductsBeforeAdding) {
  // Operands whose product is not a float: 1 + 2^-12 squared needs 2^-24,
  // half an ulp of 1. Rounded first, it ties to 1 + 2^-11, and adding -1
  // leaves 2^-11; an FMA keeps the 2^-24. Each entry that adds a product
  // must give the rounded answer at every level, which fails if the ISA
  // units are compiled with multiply-add contraction.
  const float A = 1.0f + std::ldexp(1.0f, -12);
  const float Rounded = std::ldexp(1.0f, -11);
  ASSERT_NE(std::fma(A, A, -1.0f), Rounded);
  ASSERT_EQ(A * A + -1.0f, Rounded);
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    const kernels::SimdOps &Ops = *kernels::simdOpsFor(Level);
    // 37 elements: full vectors at every width plus scalar tails.
    const size_t N = 37;
    const std::vector<float> As(N, A);
    {
      // Each row's chain: 0 + (-1) * 1, then + A * A.
      std::vector<float> Rows;
      for (size_t I = 0; I < N; ++I)
        Rows.insert(Rows.end(), {-1.0f, A});
      const std::vector<float> X = {1.0f, A};
      std::vector<float> Y(N);
      Ops.GemvRowRange(Rows.data(), 2, X.data(), Y.data(), 2, 0,
                       static_cast<int64_t>(N));
      for (float V : Y)
        EXPECT_EQ(V, Rounded) << "gemv";
    }
    {
      std::vector<float> DTheta(N, -1.0f);
      const std::vector<float> Grad = {A};
      Ops.AttnThetaGradRows(Grad.data(), As.data(), DTheta.data(),
                            static_cast<int64_t>(N), static_cast<int64_t>(N),
                            0, 1, /*First=*/false);
      for (float V : DTheta)
        EXPECT_EQ(V, Rounded) << "attention weight gradient";
    }
    {
      std::vector<float> DA(N, -1.0f);
      const std::vector<float> Grad = {A};
      Ops.AttnVecGradCols(As.data(), static_cast<int64_t>(N), 1, Grad.data(),
                          DA.data(), 0, static_cast<int64_t>(N),
                          /*First=*/false);
      for (float V : DA)
        EXPECT_EQ(V, Rounded) << "attention vector gradient";
    }
    {
      std::vector<float> DIn(N, -1.0f);
      const std::vector<float> Pre(N, -1.0f);
      Ops.LeakyReluBackwardRange(A, Pre.data(), As.data(), DIn.data(),
                                 static_cast<int64_t>(N), /*First=*/false);
      for (float V : DIn)
        EXPECT_EQ(V, Rounded) << "leaky relu gradient";
    }
  }
}

//===----------------------------------------------------------------------===//
// Fused row epilogues
//===----------------------------------------------------------------------===//
//
// A GEMM or SpMM given a row epilogue must write, bit for bit, what the
// unfused sequence writes: the producer, then one rowBroadcastMulInto or
// reluInto per step. The fixtures put zero-degree rows (scale 0), negative
// and -0 scales (so -0 reaches a second scale or the ReLU), NaN accumulators
// and widths with vector tails in front of every epilogue.

namespace {

enum class EpiStep { ScaleD1, ScaleD2, Relu };

struct EpilogueCase {
  const char *Name;
  std::vector<EpiStep> Steps;
};

const std::vector<EpilogueCase> &epilogueCases() {
  static const std::vector<EpilogueCase> Cases = {
      {"scale", {EpiStep::ScaleD1}},
      {"scale,scale", {EpiStep::ScaleD1, EpiStep::ScaleD2}},
      {"relu", {EpiStep::Relu}},
      {"scale,relu", {EpiStep::ScaleD1, EpiStep::Relu}},
  };
  return Cases;
}

/// Row scales over \p Rows rows: every 5th 0 (an isolated node), every 7th
/// -0, the rest in [-1, 1).
std::vector<float> epilogueScales(int64_t Rows, uint64_t Seed) {
  std::vector<float> D = randomFloats(static_cast<size_t>(Rows), Seed);
  for (size_t I = 0; I < D.size(); ++I)
    D[I] = I % 5 == 2 ? 0.0f : I % 7 == 4 ? -0.0f : D[I];
  return D;
}

kernels::RowEpilogue makeEpilogue(const EpilogueCase &Case,
                                  const std::vector<float> &D1,
                                  const std::vector<float> &D2) {
  kernels::RowEpilogue Epi;
  for (EpiStep S : Case.Steps)
    Epi.push(S == EpiStep::Relu ? kernels::RowEpilogue::OpKind::Relu
                                : kernels::RowEpilogue::OpKind::Scale,
             S == EpiStep::ScaleD1   ? std::span<const float>(D1)
             : S == EpiStep::ScaleD2 ? std::span<const float>(D2)
                                     : std::span<const float>());
  return Epi;
}

/// The unfused sequence: \p X through one element-wise kernel per step.
std::vector<float> unfusedEpilogue(DenseMatrix X, const EpilogueCase &Case,
                                   const std::vector<float> &D1,
                                   const std::vector<float> &D2) {
  DenseMatrix Next(X.rows(), X.cols());
  for (EpiStep S : Case.Steps) {
    if (S == EpiStep::Relu)
      kernels::reluInto(X, Next);
    else
      kernels::rowBroadcastMulInto(S == EpiStep::ScaleD1 ? D1 : D2, X, Next);
    std::swap(X, Next);
  }
  return std::vector<float>(X.data(), X.data() + X.size());
}

std::vector<float> flat(const DenseMatrix &M) {
  return std::vector<float>(M.data(), M.data() + M.size());
}

} // namespace

TEST(FusedEpilogue, GemmMatchesTheUnfusedSequence) {
  IsaLevelGuard Guard;
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  // 11 rows: two 4-row register blocks and a remainder. Row 3 of A carries
  // a NaN (a NaN accumulator row), row 7 is all zeros (+0 accumulators).
  const int64_t M = 11, K = 45;
  DenseMatrix A = randomDense(M, K, 901);
  A.at(3, 17) = Nan;
  for (int64_t KK = 0; KK < K; ++KK)
    A.at(7, KK) = 0.0f;
  const std::vector<float> D1 = epilogueScales(M, 902);
  const std::vector<float> D2 = epilogueScales(M, 903);
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    for (int64_t N : {13, 29, 61, 141}) {
      DenseMatrix B = randomDense(K, N, 904);
      DenseMatrix Plain(M, N);
      kernels::gemmInto(A, B, Plain);
      for (const EpilogueCase &Case : epilogueCases()) {
        const kernels::RowEpilogue Epi = makeEpilogue(Case, D1, D2);
        DenseMatrix Fused(M, N);
        Fused.fill(5.0f); // stale contents must not leak
        kernels::gemmInto(A, B, Fused, &Epi);
        expectSameBits(flat(Fused), unfusedEpilogue(Plain, Case, D1, D2),
                       std::string("gemm +") + Case.Name + " N=" +
                           std::to_string(N));
      }
    }
  }
}

TEST(FusedEpilogue, SpmmMatchesTheUnfusedSequence) {
  IsaLevelGuard Guard;
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  // 40 rows over 50 sources; every 5th row has no nonzero (an isolated
  // node, whose scale is 0 too), source row 9 carries a NaN.
  const int64_t Rows = 40, SrcRows = 50;
  Rng R(911);
  CooMatrix Coo(Rows, SrcRows);
  for (int64_t Row = 0; Row < Rows; ++Row)
    if (Row % 5 != 2)
      for (uint64_t E = 0, Len = 1 + R.nextBelow(20); E < Len; ++E)
        Coo.add(Row,
                static_cast<int64_t>(
                    R.nextBelow(static_cast<uint64_t>(SrcRows))),
                R.nextFloat(-1.0f, 1.0f));
  const CsrMatrix Adj = Coo.toCsr(/*Unweighted=*/false);
  const std::vector<float> D1 = epilogueScales(Rows, 912);
  const std::vector<float> D2 = epilogueScales(Rows, 913);
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    for (int64_t Width : {13, 29, 141}) {
      DenseMatrix B = randomDense(SrcRows, Width, 914);
      B.at(9, Width / 2) = Nan;
      for (bool Weighted : {false, true}) {
        const std::span<const float> Vals =
            Weighted ? Adj.values() : std::span<const float>();
        DenseMatrix Plain(Rows, Width);
        kernels::spmmInto(Adj, Vals, B, Plain);
        for (const EpilogueCase &Case : epilogueCases()) {
          const kernels::RowEpilogue Epi = makeEpilogue(Case, D1, D2);
          DenseMatrix Fused(Rows, Width);
          Fused.fill(5.0f);
          kernels::spmmInto(Adj, Vals, B, Fused, &Epi);
          expectSameBits(flat(Fused), unfusedEpilogue(Plain, Case, D1, D2),
                         std::string(Weighted ? "spmm_w +" : "spmm_u +") +
                             Case.Name + " width " + std::to_string(Width));
        }
      }
    }
  }
}
