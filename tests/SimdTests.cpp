//===- SimdTests.cpp - Runtime ISA dispatch and SIMD kernel tests -----------===//
//
// Covers the kernel dispatch layer (src/kernels/Dispatch.h): level parsing
// and naming, CPUID-bounded level enumeration, the setIsaLevel override,
// table completeness, the 64-byte alignment contract of the tensor storage,
// cross-ISA agreement of every dispatched kernel family on fixtures whose
// shapes exercise both the vector bodies and the scalar tails, and the
// exact per-element reduction order of the GEMM and SpMM row routines.
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
  DenseMatrix RefGemm = kernels::gemm(A, B);
  DenseMatrix RefTLhs = kernels::gemmTransposedLhs(At, B);
  DenseMatrix RefTRhs = kernels::gemmTransposedRhs(A, Bt);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    expectApproxEqual(kernels::gemm(A, B), RefGemm, 1e-5f, "gemm");
    expectApproxEqual(kernels::gemmTransposedLhs(At, B), RefTLhs, 1e-5f,
                      "gemmTransposedLhs");
    expectApproxEqual(kernels::gemmTransposedRhs(A, Bt), RefTRhs, 1e-5f,
                      "gemmTransposedRhs");
  }
}

TEST(CrossIsa, SpmmAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  CsrMatrix Weighted = randomSparse(60, 60, 320, 21, /*Weighted=*/true);
  CsrMatrix Unweighted = randomSparse(60, 60, 320, 22, /*Weighted=*/false);
  DenseMatrix B = randomDense(60, 33, 23);

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefW = kernels::spmm(Weighted, B, Semiring::plusTimes());
  DenseMatrix RefU = kernels::spmm(Unweighted, B, Semiring::plusCopy());

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    expectApproxEqual(kernels::spmm(Weighted, B, Semiring::plusTimes()),
                      RefW, 1e-5f, "weighted spmm");
    expectApproxEqual(kernels::spmm(Unweighted, B, Semiring::plusCopy()),
                      RefU, 1e-5f, "unweighted spmm");
  }
}

TEST(CrossIsa, SddmmAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  CsrMatrix Mask = randomSparse(40, 40, 260, 31, /*Weighted=*/false);
  DenseMatrix U = randomDense(40, 21, 32);
  DenseMatrix V = randomDense(40, 21, 33);

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  std::vector<float> Ref = kernels::sddmm(Mask, U, V);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    std::vector<float> Got = kernels::sddmm(Mask, U, V);
    ASSERT_EQ(Got.size(), Ref.size());
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
  DenseMatrix RefRelu = kernels::relu(A);
  DenseMatrix RefAdd = kernels::addMatrices(A, B);
  DenseMatrix RefScale = kernels::scaleMatrix(A, 0.37f);
  DenseMatrix RefRowMul = kernels::rowBroadcastMul(D, A);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    expectBitwiseEqual(kernels::relu(A), RefRelu, "relu");
    expectBitwiseEqual(kernels::addMatrices(A, B), RefAdd, "addMatrices");
    expectBitwiseEqual(kernels::scaleMatrix(A, 0.37f), RefScale,
                       "scaleMatrix");
    expectBitwiseEqual(kernels::rowBroadcastMul(D, A), RefRowMul,
                       "rowBroadcastMul");
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
    ThreadPool::get().setNumThreads(1);
    DenseMatrix One = kernels::spmm(A, H, Semiring::plusTimes());
    ThreadPool::get().setNumThreads(4);
    DenseMatrix Four = kernels::spmm(A, H, Semiring::plusTimes());
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

using kernels::SpmmCombine;

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

/// One nonzero's step of the fused SpMM at \p Level.
float spmmStep(IsaLevel Level, SpmmCombine Combine, bool Weighted, float Edge,
               float Src, float Acc) {
  if (Level == IsaLevel::Scalar) {
    if (Combine == SpmmCombine::CopyRhs)
      return Acc + Src;
    if (Combine == SpmmCombine::Mul)
      return Acc + Edge * Src;
    return Acc + (Edge + Src);
  }
  if (Combine == SpmmCombine::CopyRhs ||
      (Combine == SpmmCombine::Mul && !Weighted))
    return Acc + Src;
  if (Combine == SpmmCombine::Mul)
    return std::fma(Edge, Src, Acc);
  return (Edge + Src) + Acc;
}

float meanStep(IsaLevel Level, float Inv, float Acc) {
  return Level == IsaLevel::Scalar ? Acc * Inv : Inv * Acc;
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
      const std::vector<float> Init = randomFloats(M * Ldc, 103);
      for (bool Accumulate : {false, true}) {
        std::vector<float> Got = Init;
        Ops.GemmRowRange(A.data(), Lda, B.data(), Ldb, Got.data(), Ldc, K, N,
                         0, 6, Accumulate);
        Ops.GemmRowRange(A.data(), Lda, B.data(), Ldb, Got.data(), Ldc, K, N,
                         6, M, Accumulate);
        std::vector<float> Want = Init;
        for (int64_t I = 0; I < M; ++I)
          for (int64_t J = 0; J < N; ++J) {
            float Acc = Accumulate ? Init[I * Ldc + J] : 0.0f;
            for (int64_t KK = 0; KK < K; ++KK)
              Acc = gemmStep(Level, A[I * Lda + KK], B[KK * Ldb + J], Acc);
            Want[I * Ldc + J] = Acc;
          }
        expectSameBits(Got, Want,
                       "gemm N=" + std::to_string(N) +
                           (Accumulate ? " accumulate" : " overwrite"));
      }
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
  struct Case {
    SpmmCombine Combine;
    bool Weighted;
    const char *Name;
  };
  const Case Cases[] = {{SpmmCombine::CopyRhs, false, "copy_rhs"},
                        {SpmmCombine::Mul, true, "mul"},
                        {SpmmCombine::Mul, false, "mul unweighted"},
                        {SpmmCombine::Add, true, "add"},
                        {SpmmCombine::Add, false, "add unweighted"}};
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
      for (const Case &C : Cases)
        for (bool Mean : {false, true})
          for (bool Indexed : {false, true}) {
            const float *Vals = C.Weighted ? A.Vals.data() : nullptr;
            const int64_t *ValIdx = Indexed ? A.ValIdx.data() : nullptr;
            std::vector<float> Got(static_cast<size_t>(A.rows() * LdDst),
                                   Sentinel);
            for (auto [RowBegin, RowEnd] :
                 {std::pair<int64_t, int64_t>{0, 17}, {17, A.rows()}})
              Ops.SpmmRowRange(A.Offsets.data(), A.Cols.data(), Vals, ValIdx,
                               B.data(), Ldb, Got.data(), LdDst, Width,
                               C.Combine, Mean, RowBegin, RowEnd);
            std::vector<float> Want(Got.size(), Sentinel);
            for (int64_t R = 0; R < A.rows(); ++R) {
              const int64_t Begin = A.Offsets[R], End = A.Offsets[R + 1];
              for (int64_t J = 0; J < Width; ++J) {
                float Acc = 0.0f;
                for (int64_t K = Begin; K < End; ++K) {
                  const float Edge =
                      Vals ? Vals[ValIdx ? ValIdx[K] : K] : 1.0f;
                  Acc = spmmStep(Level, C.Combine, C.Weighted, Edge,
                                 B[A.Cols[K] * Ldb + J], Acc);
                }
                if (Mean && End > Begin)
                  Acc = meanStep(Level, 1.0f / static_cast<float>(End - Begin),
                                 Acc);
                Want[R * LdDst + J] = Acc;
              }
            }
            expectSameBits(Got, Want,
                           std::string(C.Name) + (Mean ? " mean" : " sum") +
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
  const Semiring Mean{ReduceOpKind::Mean, CombineOpKind::Mul};
  const Semiring PlusAdd{ReduceOpKind::Sum, CombineOpKind::Add};
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    for (int64_t Width : {13, 141}) {
      const DenseMatrix B = randomDense(70, Width, 73);
      for (const CsrMatrix *A : {&Weighted, &Unweighted}) {
        const CscMatrix Csc = CscMatrix::fromCsr(*A);
        const CsrMatrix At = A->transposed();
        for (const Semiring &S : {Semiring::plusTimes(), Semiring::plusCopy(),
                                  Semiring::meanCopy(), Mean, PlusAdd}) {
          DenseMatrix Got(50, Width);
          kernels::spmmCscTransposedInto(Csc, A->values(), B, S, Got);
          const DenseMatrix Want = kernels::spmm(At, B, S);
          expectSameBits(
              std::vector<float>(Got.data(), Got.data() + 50 * Width),
              std::vector<float>(Want.data(), Want.data() + 50 * Width),
              std::string(A == &Weighted ? "weighted" : "unweighted") +
                  " width " + std::to_string(Width));
        }
      }
    }
  }
}
