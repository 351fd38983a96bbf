//===- TensorTests.cpp - Tests for dense/sparse matrix types ----------------===//

#include "support/Rng.h"
#include "tensor/CooMatrix.h"
#include "tensor/CscMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"
#include "tensor/Semiring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

using namespace granii;

TEST(DenseMatrix, ZeroInitialized) {
  DenseMatrix M(3, 4);
  for (int64_t R = 0; R < 3; ++R)
    for (int64_t C = 0; C < 4; ++C)
      EXPECT_EQ(M.at(R, C), 0.0f);
}

TEST(DenseMatrix, FillAndSum) {
  DenseMatrix M(2, 5);
  M.fill(2.0f);
  EXPECT_DOUBLE_EQ(M.sum(), 20.0);
}

TEST(DenseMatrix, TransposeRoundTrip) {
  Rng R(3);
  DenseMatrix M(4, 7);
  M.fillRandom(R);
  DenseMatrix Back = M.transposed().transposed();
  EXPECT_TRUE(Back.approxEquals(M, 0.0f, 0.0f));
}

TEST(DenseMatrix, TransposeElementMapping) {
  DenseMatrix M(2, 3);
  M.at(0, 2) = 5.0f;
  DenseMatrix T = M.transposed();
  EXPECT_EQ(T.rows(), 3);
  EXPECT_EQ(T.cols(), 2);
  EXPECT_EQ(T.at(2, 0), 5.0f);
}

TEST(DenseMatrix, ApproxEqualsShapeMismatch) {
  EXPECT_FALSE(DenseMatrix(2, 2).approxEquals(DenseMatrix(2, 3)));
}

TEST(DenseMatrix, MaxAbsDiff) {
  DenseMatrix A(2, 2), B(2, 2);
  B.at(1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(A.maxAbsDiff(B), 3.0f);
}

TEST(DenseMatrix, FrobeniusNorm) {
  DenseMatrix M(1, 2);
  M.at(0, 0) = 3.0f;
  M.at(0, 1) = 4.0f;
  EXPECT_NEAR(M.frobeniusNorm(), 5.0, 1e-9);
}

TEST(CooMatrix, MergesDuplicates) {
  CooMatrix Coo(3, 3);
  Coo.add(0, 1, 1.0f);
  Coo.add(0, 1, 2.0f);
  Coo.add(2, 2, 1.0f);
  CsrMatrix Csr = Coo.toCsr(/*Unweighted=*/false);
  EXPECT_EQ(Csr.nnz(), 2);
  EXPECT_FLOAT_EQ(Csr.values()[0], 3.0f);
}

TEST(CooMatrix, SymmetricAddsBothDirections) {
  CooMatrix Coo(4, 4);
  Coo.addSymmetric(1, 2);
  CsrMatrix Csr = Coo.toCsr();
  EXPECT_EQ(Csr.nnz(), 2);
  EXPECT_EQ(Csr.rowNnz(1), 1);
  EXPECT_EQ(Csr.rowNnz(2), 1);
}

TEST(CooMatrix, SymmetricDiagonalAddedOnce) {
  CooMatrix Coo(3, 3);
  Coo.addSymmetric(1, 1);
  EXPECT_EQ(Coo.toCsr().nnz(), 1);
}

TEST(CooMatrix, SortedColumnsWithinRows) {
  CooMatrix Coo(2, 5);
  Coo.add(0, 4);
  Coo.add(0, 1);
  Coo.add(0, 3);
  CsrMatrix Csr = Coo.toCsr();
  Csr.verify(); // Verifies strictly increasing columns.
  EXPECT_EQ(Csr.colIndices()[0], 1);
  EXPECT_EQ(Csr.colIndices()[2], 4);
}

TEST(CooMatrix, ToCsrMatchesMapReference) {
  // Seeded random triplets: duplicates, empty rows (rows outnumber the
  // draws' reach), rectangular shapes, rows arriving out of order.
  struct Shape {
    int64_t Rows, Cols, Entries;
  };
  for (Shape S : {Shape{7, 5, 60}, Shape{40, 9, 50}, Shape{5, 300, 400},
                  Shape{1, 1, 4}, Shape{30, 30, 0}}) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      Rng R(Seed);
      CooMatrix Coo(S.Rows, S.Cols);
      // (row, col) -> value summed in insertion order, as toCsr promises.
      std::map<std::pair<int64_t, int64_t>, float> Want;
      // Rows draw from the first two thirds only, so the rest stay empty.
      int64_t RowReach = std::max<int64_t>(1, 2 * S.Rows / 3);
      for (int64_t I = 0; I < S.Entries; ++I) {
        int64_t Row = static_cast<int64_t>(R.nextBelow(RowReach));
        int64_t Col = static_cast<int64_t>(R.nextBelow(S.Cols));
        float V = R.nextFloat(-4.0f, 4.0f);
        Coo.add(Row, Col, V);
        auto [It, Fresh] = Want.try_emplace({Row, Col}, V);
        if (!Fresh)
          It->second += V;
      }
      for (bool Unweighted : {true, false}) {
        SCOPED_TRACE(std::to_string(S.Rows) + "x" + std::to_string(S.Cols) +
                     " seed " + std::to_string(Seed) +
                     (Unweighted ? " unweighted" : " weighted"));
        CsrMatrix Csr = Coo.toCsr(Unweighted);
        Csr.verify();
        ASSERT_EQ(Csr.rows(), S.Rows);
        ASSERT_EQ(Csr.cols(), S.Cols);
        ASSERT_EQ(Csr.nnz(), static_cast<int64_t>(Want.size()));
        EXPECT_EQ(Csr.isWeighted(), !Unweighted && !Want.empty());
        std::vector<int64_t> WantOffsets(static_cast<size_t>(S.Rows) + 1, 0);
        size_t K = 0;
        for (const auto &[Key, V] : Want) {
          ++WantOffsets[static_cast<size_t>(Key.first) + 1];
          EXPECT_EQ(Csr.colIndices()[K], Key.second);
          if (!Unweighted) { // bitwise: same additions in the same order
            EXPECT_EQ(std::bit_cast<uint32_t>(Csr.values()[K]),
                      std::bit_cast<uint32_t>(V));
          }
          ++K;
        }
        for (size_t Row = 0; Row < static_cast<size_t>(S.Rows); ++Row)
          WantOffsets[Row + 1] += WantOffsets[Row];
        EXPECT_TRUE(std::equal(WantOffsets.begin(), WantOffsets.end(),
                               Csr.rowOffsets().begin(),
                               Csr.rowOffsets().end()));
      }
    }
  }
}

TEST(CooMatrix, DuplicatesSumInInsertionOrder) {
  // (1e8 + 1) rounds back to 1e8 in float, so only insertion order gives 0;
  // summing the two large values first would give 1.
  CooMatrix Coo(2, 2);
  Coo.add(1, 0, 1e8f);
  Coo.add(0, 1, 5.0f);
  Coo.add(1, 0, 1.0f);
  Coo.add(1, 0, -1e8f);
  CsrMatrix Csr = Coo.toCsr(/*Unweighted=*/false);
  ASSERT_EQ(Csr.nnz(), 2);
  EXPECT_EQ(Csr.colIndices()[1], 0);
  EXPECT_EQ(Csr.values()[1], 0.0f);
}

TEST(CsrMatrix, UnweightedValueIsOne) {
  CooMatrix Coo(2, 2);
  Coo.add(0, 1);
  CsrMatrix Csr = Coo.toCsr();
  EXPECT_FALSE(Csr.isWeighted());
  EXPECT_FLOAT_EQ(Csr.valueAt(0), 1.0f);
}

TEST(CsrMatrix, SetValuesMakesWeighted) {
  CooMatrix Coo(2, 2);
  Coo.add(0, 1);
  Coo.add(1, 0);
  CsrMatrix Csr = Coo.toCsr();
  Csr.setValues({2.0f, 3.0f});
  EXPECT_TRUE(Csr.isWeighted());
  EXPECT_FLOAT_EQ(Csr.valueAt(1), 3.0f);
  Csr.clearValues();
  EXPECT_FALSE(Csr.isWeighted());
}

TEST(CsrMatrix, ToDenseMatchesEntries) {
  CooMatrix Coo(2, 3);
  Coo.add(0, 2, 4.0f);
  Coo.add(1, 0, -1.0f);
  DenseMatrix D = Coo.toCsr(/*Unweighted=*/false).toDense();
  EXPECT_FLOAT_EQ(D.at(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(D.at(1, 0), -1.0f);
  EXPECT_FLOAT_EQ(D.at(0, 0), 0.0f);
}

TEST(CsrMatrix, TransposeMatchesDenseTranspose) {
  Rng R(17);
  CooMatrix Coo(6, 6);
  for (int I = 0; I < 12; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(6)),
            static_cast<int64_t>(R.nextBelow(6)), R.nextFloat(0.f, 1.f));
  CsrMatrix Csr = Coo.toCsr(/*Unweighted=*/false);
  DenseMatrix Expected = Csr.toDense().transposed();
  DenseMatrix Actual = Csr.transposed().toDense();
  EXPECT_TRUE(Actual.approxEquals(Expected, 1e-6f, 1e-6f));
}

TEST(CsrMatrix, TransposePreservesNnzAndUnweightedness) {
  CooMatrix Coo(3, 5);
  Coo.add(0, 4);
  Coo.add(2, 1);
  CsrMatrix T = Coo.toCsr().transposed();
  EXPECT_EQ(T.rows(), 5);
  EXPECT_EQ(T.cols(), 3);
  EXPECT_EQ(T.nnz(), 2);
  EXPECT_FALSE(T.isWeighted());
}

TEST(CsrMatrix, EmptyMatrixIsValid) {
  CsrMatrix Empty;
  EXPECT_EQ(Empty.rows(), 0);
  EXPECT_EQ(Empty.nnz(), 0);
  Empty.verify();
}

// The content version: every edit takes a fresh value, copies keep it.
TEST(CsrMatrix, VersionChangesOnEveryEditAndCopiesKeepIt) {
  CooMatrix Coo(3, 3);
  Coo.add(0, 1, 1.0f);
  Coo.add(2, 0, 2.0f);
  CsrMatrix A = Coo.toCsr(/*Unweighted=*/false);
  EXPECT_NE(A.version(), CsrMatrix().version());
  CsrMatrix Copy = A;
  EXPECT_EQ(Copy.version(), A.version());

  uint64_t Last = A.version();
  auto ExpectFresh = [&](const char *Edit) {
    EXPECT_NE(A.version(), Last) << Edit;
    EXPECT_NE(A.version(), Copy.version()) << Edit;
    Last = A.version();
  };
  A.mutableValues()[0] = 3.0f;
  ExpectFresh("mutableValues");
  A.setValues({4.0f, 5.0f});
  ExpectFresh("setValues");
  A.clearValues();
  ExpectFresh("clearValues");
  A.assignPattern(Copy.rows(), Copy.cols(), Copy.rowOffsets(),
                  Copy.colIndices());
  ExpectFresh("assignPattern");
  EXPECT_NE(Copy.withValues(Copy.values()).version(), Copy.version());
  EXPECT_EQ(Copy.version(), CsrMatrix(Copy).version());
}

//===----------------------------------------------------------------------===//
// CscMatrix: the backward pass's column view of a CSR pattern
//===----------------------------------------------------------------------===//

namespace {

/// Structural + value equality of two CSR matrices (bitwise on values).
void expectCsrEqual(const CsrMatrix &A, const CsrMatrix &B) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  ASSERT_EQ(A.nnz(), B.nnz());
  EXPECT_TRUE(std::equal(A.rowOffsets().begin(), A.rowOffsets().end(),
                         B.rowOffsets().begin()));
  EXPECT_TRUE(std::equal(A.colIndices().begin(), A.colIndices().end(),
                         B.colIndices().begin()));
  ASSERT_EQ(A.values().size(), B.values().size());
  EXPECT_TRUE(
      std::equal(A.values().begin(), A.values().end(), B.values().begin()));
}

struct CscFixture {
  std::string Name;
  CsrMatrix A;
};

/// Empty, diagonal, one dense row, a skewed hub-plus-ring and a random
/// structure.
std::vector<CscFixture> makeCscFixtures() {
  std::vector<CscFixture> Out;
  Out.push_back({"empty-0x0", CsrMatrix()});
  {
    CooMatrix Coo(5, 7); // rectangular, no entries at all
    Out.push_back({"empty-5x7", Coo.toCsr()});
  }
  {
    CooMatrix Coo(6, 6);
    for (int64_t I = 0; I < 6; ++I)
      Coo.add(I, I, 0.5f + static_cast<float>(I));
    Out.push_back({"diagonal", Coo.toCsr(/*Unweighted=*/false)});
  }
  {
    CooMatrix Coo(8, 8); // row 3 is fully dense, everything else empty
    for (int64_t J = 0; J < 8; ++J)
      Coo.add(3, J, static_cast<float>(J + 1));
    Out.push_back({"dense-row", Coo.toCsr(/*Unweighted=*/false)});
  }
  {
    CooMatrix Coo(16, 16); // hub row 0 touches everyone, plus a ring
    for (int64_t J = 1; J < 16; ++J)
      Coo.add(0, J, 1.0f / static_cast<float>(J));
    for (int64_t I = 1; I < 16; ++I)
      Coo.add(I, (I + 1) % 16, 2.0f);
    Out.push_back({"skewed-hub", Coo.toCsr(/*Unweighted=*/false)});
  }
  {
    Rng R(321);
    CooMatrix Coo(100, 100);
    for (int64_t I = 0; I < 700; ++I)
      Coo.add(static_cast<int64_t>(R.nextBelow(100)),
              static_cast<int64_t>(R.nextBelow(100)),
              R.nextFloat(0.1f, 1.0f));
    Out.push_back({"random-100", Coo.toCsr(/*Unweighted=*/false)});
  }
  return Out;
}

} // namespace

TEST(CscMatrix, RoundTripIsExact) {
  for (const CscFixture &F : makeCscFixtures()) {
    SCOPED_TRACE(F.Name);
    CscMatrix C = CscMatrix::fromCsr(F.A);
    C.verify();
    EXPECT_EQ(C.nnz(), F.A.nnz());
    expectCsrEqual(C.toCsr(F.A.values()), F.A);
  }
}

TEST(CscMatrix, UnweightedStaysUnweighted) {
  CooMatrix Coo(10, 10);
  Rng R(11);
  for (int64_t I = 0; I < 40; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(10)),
            static_cast<int64_t>(R.nextBelow(10)));
  CsrMatrix A = Coo.toCsr(); // structural: values() is empty
  ASSERT_TRUE(A.values().empty());
  expectCsrEqual(CscMatrix::fromCsr(A).toCsr(), A);
}

TEST(CscMatrix, ColumnsMatchTransposedCsr) {
  Rng R(77);
  CooMatrix Coo(30, 30);
  for (int64_t I = 0; I < 150; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(30)),
            static_cast<int64_t>(R.nextBelow(30)), R.nextFloat(0.1f, 1.0f));
  CsrMatrix A = Coo.toCsr(/*Unweighted=*/false);
  CscMatrix C = CscMatrix::fromCsr(A);
  CsrMatrix T = A.transposed();
  // Column c of the CSC view is row c of A^T, in the same entry order.
  ASSERT_TRUE(
      std::equal(C.colOffsets().begin(), C.colOffsets().end(),
                 T.rowOffsets().begin()));
  EXPECT_TRUE(std::equal(C.rowIndices().begin(), C.rowIndices().end(),
                         T.colIndices().begin()));
  for (int64_t K = 0; K < C.nnz(); ++K)
    EXPECT_EQ(A.values()[static_cast<size_t>(C.csrIndices()[K])],
              T.values()[static_cast<size_t>(K)]);
}

TEST(CscMatrixDeathTest, ToCsrRejectsWrongValueCount) {
  CsrMatrix A = makeCscFixtures()[4].A; // skewed-hub
  std::vector<float> Short(static_cast<size_t>(A.nnz() - 1), 1.0f);
  EXPECT_DEATH(CscMatrix::fromCsr(A).toCsr(Short),
               "csc->csr value count mismatch");
}

TEST(Semiring, PlusTimesIdentity) {
  Semiring S = Semiring::plusTimes();
  EXPECT_EQ(S.reduceIdentity(), 0.0f);
  EXPECT_EQ(S.combine(2.0f, 3.0f), 6.0f);
  EXPECT_EQ(S.reduce(1.0f, 5.0f), 6.0f);
}

TEST(Semiring, CopyRhsIgnoresEdgeValue) {
  Semiring S = Semiring::plusCopy();
  EXPECT_EQ(S.combine(99.0f, 3.0f), 3.0f);
}

TEST(Semiring, MaxReduceIdentityIsNegInf) {
  Semiring S = Semiring::maxCopy();
  EXPECT_LT(S.reduceIdentity(), -1e30f);
  EXPECT_EQ(S.reduce(1.0f, 5.0f), 5.0f);
  EXPECT_EQ(S.reduce(7.0f, 5.0f), 7.0f);
}

TEST(Semiring, Names) {
  EXPECT_EQ(semiringName(Semiring::plusTimes()), "sum.mul");
  EXPECT_EQ(semiringName(Semiring::maxCopy()), "max.copy");
  EXPECT_EQ(semiringName(Semiring::meanCopy()), "mean.copy");
}
