//===- SimdKernelsImpl.h - Shared vector kernel bodies ----------*- C++ -*-===//
///
/// \file
/// Template implementations of the dispatched kernel routines, parameterized
/// over a vector-traits struct (see KernelsAvx2.cpp / KernelsAvx512.cpp for
/// the trait definitions). Only the per-ISA translation units include this
/// header; each instantiates makeSimdOps<Traits>() under its own `-m` target
/// flags. The scalar table does not use these templates — it reproduces the
/// original scalar loops verbatim (KernelsScalar.cpp) so GRANII_ISA=scalar
/// stays bitwise-identical to the pre-SIMD library.
///
/// Determinism within an ISA level: each output element's reduction is a
/// single serial chain over the contraction dimension, identical in the
/// register-blocked, single-row, and scalar-tail code paths — tail elements
/// use std::fma, which (compiled under the same -mfma flags) rounds exactly
/// like a vector FMA lane. Row/element partitions therefore cannot change
/// any result bit, preserving the 1-vs-N-thread contract. The sddmm dot
/// product folds features into its scalar accumulator in groups of
/// Traits::DotGroup, always from feature 0, so every edge's reduction is
/// the same chain wherever it runs.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_SIMDKERNELSIMPL_H
#define GRANII_KERNELS_SIMDKERNELSIMPL_H

#include "kernels/Dispatch.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

namespace granii {
namespace kernels {
namespace simd_impl {

/// Rows per register block in the packed GEMM routines: 4 output rows x 2
/// vectors of accumulators stays within 16 architectural vector registers
/// (with B-row and broadcast temporaries) on AVX2.
constexpr int GemmRowBlock = 4;

/// The row (or vector) indices 0..N-1 of a register block as a template
/// pack. The kernels expand their per-row statements over it with fold
/// expressions, so the block is straight-line code in which every
/// accumulator subscript is a compile-time constant and the accumulator
/// arrays live in registers. A runtime-bounded `for (R < MR)` loop over the
/// same arrays left them on the stack under GCC -O2: one load and one store
/// around every FMA.
template <int N> using IndexPack = std::make_integer_sequence<int, N>;

//===----------------------------------------------------------------------===//
// Packed GEMM: C = A * B
//===----------------------------------------------------------------------===//

/// Row epilogues (Dispatch.h): the vector and scalar forms of each step are
/// the per-lane operations of scaleRange and reluRange below, so an element
/// gets the same bits whichever path covers its column.
template <class T>
typename T::Vec epilogueVec(const RowEpilogue &Epi, int64_t Row,
                            typename T::Vec X) {
  for (int O = 0; O < Epi.Count; ++O)
    X = Epi.Ops[O].Kind == RowEpilogue::OpKind::Scale
            ? T::mul(T::set1(Epi.Ops[O].Scale[static_cast<size_t>(Row)]), X)
            : T::max(X, T::zero());
  return X;
}

template <class T>
float epilogueScalar(const RowEpilogue &Epi, int64_t Row, float X) {
  for (int O = 0; O < Epi.Count; ++O)
    X = Epi.Ops[O].Kind == RowEpilogue::OpKind::Scale
            ? Epi.Ops[O].Scale[static_cast<size_t>(Row)] * X
            : (X > 0.0f ? X : 0.0f);
  return X;
}

/// One block of MR = sizeof...(R) consecutive C rows starting at \p I.
/// Accumulators live in registers across the whole K loop; every (row,
/// column) element accumulates over K in ascending order through FMA
/// regardless of which j-path (2-vector, 1-vector, scalar tail) covers its
/// column, so results are independent of N's split into paths and of MR.
/// With \p HasEpi, \p Epi is applied to the accumulators before each store.
template <class T, bool HasEpi, int... R>
void gemmBlock(const float *A, int64_t Lda, const float *B, int64_t Ldb,
               float *C, int64_t Ldc, int64_t K, int64_t N, int64_t I,
               const RowEpilogue *Epi, std::integer_sequence<int, R...>) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  constexpr int MR = sizeof...(R);
  const float *ARow[MR] = {A + (I + R) * Lda...};
  float *CRow[MR] = {C + (I + R) * Ldc...};
  int64_t J = 0;
  for (; J + 2 * W <= N; J += 2 * W) {
    Vec Acc0[MR] = {(static_cast<void>(R), T::zero())...};
    Vec Acc1[MR] = {(static_cast<void>(R), T::zero())...};
    for (int64_t KK = 0; KK < K; ++KK) {
      const Vec B0 = T::load(B + KK * Ldb + J);
      const Vec B1 = T::load(B + KK * Ldb + J + W);
      (..., (Acc0[R] = T::fma(T::set1(ARow[R][KK]), B0, Acc0[R]),
             Acc1[R] = T::fma(T::set1(ARow[R][KK]), B1, Acc1[R])));
    }
    if constexpr (HasEpi)
      (..., (Acc0[R] = epilogueVec<T>(*Epi, I + R, Acc0[R]),
             Acc1[R] = epilogueVec<T>(*Epi, I + R, Acc1[R])));
    (..., (T::store(CRow[R] + J, Acc0[R]), T::store(CRow[R] + J + W, Acc1[R])));
  }
  for (; J + W <= N; J += W) {
    Vec Acc[MR] = {(static_cast<void>(R), T::zero())...};
    for (int64_t KK = 0; KK < K; ++KK) {
      const Vec BV = T::load(B + KK * Ldb + J);
      (..., (Acc[R] = T::fma(T::set1(ARow[R][KK]), BV, Acc[R])));
    }
    if constexpr (HasEpi)
      (..., (Acc[R] = epilogueVec<T>(*Epi, I + R, Acc[R])));
    (..., T::store(CRow[R] + J, Acc[R]));
  }
  for (; J < N; ++J) {
    float Acc[MR] = {(static_cast<void>(R), 0.0f)...};
    for (int64_t KK = 0; KK < K; ++KK)
      (..., (Acc[R] = std::fma(ARow[R][KK], B[KK * Ldb + J], Acc[R])));
    if constexpr (HasEpi)
      (..., (Acc[R] = epilogueScalar<T>(*Epi, I + R, Acc[R])));
    (..., (CRow[R][J] = Acc[R]));
  }
}

template <class T, bool HasEpi>
void gemmRows(const float *A, int64_t Lda, const float *B, int64_t Ldb,
              float *C, int64_t Ldc, int64_t K, int64_t N, int64_t RowBegin,
              int64_t RowEnd, const RowEpilogue *Epi) {
  int64_t I = RowBegin;
  for (; I + GemmRowBlock <= RowEnd; I += GemmRowBlock)
    gemmBlock<T, HasEpi>(A, Lda, B, Ldb, C, Ldc, K, N, I, Epi,
                         IndexPack<GemmRowBlock>{});
  for (; I < RowEnd; ++I)
    gemmBlock<T, HasEpi>(A, Lda, B, Ldb, C, Ldc, K, N, I, Epi, IndexPack<1>{});
}

template <class T>
void gemmRowRange(const float *A, int64_t Lda, const float *B, int64_t Ldb,
                  float *C, int64_t Ldc, int64_t K, int64_t N,
                  int64_t RowBegin, int64_t RowEnd, const RowEpilogue *Epi) {
  if (Epi)
    gemmRows<T, true>(A, Lda, B, Ldb, C, Ldc, K, N, RowBegin, RowEnd, Epi);
  else
    gemmRows<T, false>(A, Lda, B, Ldb, C, Ldc, K, N, RowBegin, RowEnd, Epi);
}

//===----------------------------------------------------------------------===//
// C = A^T * B over C's rows (columns of A)
//===----------------------------------------------------------------------===//

/// Contraction rows [I0, I1) of one block of MR = sizeof...(R) C rows
/// starting at \p R0. The first window (I0 == 0) starts every accumulator
/// at zero; later windows resume from the partial sum the previous window
/// stored in C. A float store and reload is exact, so each element's FMA
/// chain over I is the same single ascending chain as an unwindowed pass.
template <class T, int... R>
void gemmTLhsBlock(const float *A, int64_t Lda, const float *B, int64_t Ldb,
                   float *C, int64_t Ldc, int64_t I0, int64_t I1, int64_t N,
                   int64_t R0, std::integer_sequence<int, R...>) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  constexpr int MR = sizeof...(R);
  const bool Resume = I0 > 0;
  float *CRow[MR] = {C + (R0 + R) * Ldc...};
  int64_t J = 0;
  for (; J + 2 * W <= N; J += 2 * W) {
    Vec Acc0[MR] = {(Resume ? T::load(CRow[R] + J) : T::zero())...};
    Vec Acc1[MR] = {(Resume ? T::load(CRow[R] + J + W) : T::zero())...};
    for (int64_t I = I0; I < I1; ++I) {
      const Vec B0 = T::load(B + I * Ldb + J);
      const Vec B1 = T::load(B + I * Ldb + J + W);
      const float *ACol = A + I * Lda + R0;
      (..., (Acc0[R] = T::fma(T::set1(ACol[R]), B0, Acc0[R]),
             Acc1[R] = T::fma(T::set1(ACol[R]), B1, Acc1[R])));
    }
    (..., (T::store(CRow[R] + J, Acc0[R]), T::store(CRow[R] + J + W, Acc1[R])));
  }
  for (; J + W <= N; J += W) {
    Vec Acc[MR] = {(Resume ? T::load(CRow[R] + J) : T::zero())...};
    for (int64_t I = I0; I < I1; ++I) {
      const Vec BV = T::load(B + I * Ldb + J);
      const float *ACol = A + I * Lda + R0;
      (..., (Acc[R] = T::fma(T::set1(ACol[R]), BV, Acc[R])));
    }
    (..., T::store(CRow[R] + J, Acc[R]));
  }
  for (; J < N; ++J) {
    float Acc[MR] = {(Resume ? CRow[R][J] : 0.0f)...};
    for (int64_t I = I0; I < I1; ++I)
      (..., (Acc[R] = std::fma(A[I * Lda + R0 + R], B[I * Ldb + J], Acc[R])));
    (..., (CRow[R][J] = Acc[R]));
  }
}

/// The contraction runs in windows of GemmTLhsWindowRows rows of A and B,
/// each swept by every register block of the range before the next window
/// starts: the window's B rows (512 KiB at N = 128) and A's columns of the
/// range are then read from L2 once per block instead of from memory.
template <class T>
void gemmTLhsRowRange(const float *A, int64_t Lda, const float *B,
                      int64_t Ldb, float *C, int64_t Ldc, int64_t M,
                      int64_t N, int64_t RowBegin, int64_t RowEnd) {
  // At least one window, so an empty contraction (M == 0) still zeroes C.
  int64_t I0 = 0;
  do {
    const int64_t I1 = std::min(I0 + GemmTLhsWindowRows, M);
    int64_t R = RowBegin;
    for (; R + GemmRowBlock <= RowEnd; R += GemmRowBlock)
      gemmTLhsBlock<T>(A, Lda, B, Ldb, C, Ldc, I0, I1, N, R,
                       IndexPack<GemmRowBlock>{});
    for (; R < RowEnd; ++R)
      gemmTLhsBlock<T>(A, Lda, B, Ldb, C, Ldc, I0, I1, N, R, IndexPack<1>{});
    I0 = I1;
  } while (I0 < M);
}

//===----------------------------------------------------------------------===//
// C = A * B^T (per-element dot products over the full contraction length)
//===----------------------------------------------------------------------===//

/// Every element of C = A * B^T is a dot product over the whole [0, K)
/// range: two vector FMA chains (alternate vectors of the contraction),
/// their lane-wise sum reduced by the level's horizontal-sum tree, then a
/// std::fma chain over the tail. The sequence is the same for every element
/// and any partition of the output. A block of GemmTRhsCols consecutive
/// elements of one C row shares the loads of the A row and keeps its
/// 2 x GemmTRhsCols chains in flight together; each of its elements runs
/// exactly a lone element's sequence.
constexpr int GemmTRhsCols = 4;

/// The MC = sizeof...(J) elements C[J0 + J] = dot(X, B row J0 + J).
template <class T, int... J>
void dotBlock(const float *X, const float *B, int64_t Ldb, float *C,
              int64_t K, int64_t J0, std::integer_sequence<int, J...>) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  constexpr int MC = sizeof...(J);
  const float *Y[MC] = {B + (J0 + J) * Ldb...};
  Vec Acc0[MC] = {(static_cast<void>(J), T::zero())...};
  Vec Acc1[MC] = {(static_cast<void>(J), T::zero())...};
  int64_t KK = 0;
  for (; KK + 2 * W <= K; KK += 2 * W) {
    const Vec X0 = T::load(X + KK);
    const Vec X1 = T::load(X + KK + W);
    (..., (Acc0[J] = T::fma(X0, T::load(Y[J] + KK), Acc0[J]),
           Acc1[J] = T::fma(X1, T::load(Y[J] + KK + W), Acc1[J])));
  }
  for (; KK + W <= K; KK += W) {
    const Vec X0 = T::load(X + KK);
    (..., (Acc0[J] = T::fma(X0, T::load(Y[J] + KK), Acc0[J])));
  }
  float Sum[MC] = {T::hsum(T::add(Acc0[J], Acc1[J]))...};
  for (; KK < K; ++KK)
    (..., (Sum[J] = std::fma(X[KK], Y[J][KK], Sum[J])));
  (..., (C[J0 + J] = Sum[J]));
}

template <class T>
void gemmTRhsRowRange(const float *A, int64_t Lda, const float *B,
                      int64_t Ldb, float *C, int64_t Ldc, int64_t K,
                      int64_t NOut, int64_t RowBegin, int64_t RowEnd) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    const float *ARow = A + I * Lda;
    float *CRow = C + I * Ldc;
    int64_t J = 0;
    for (; J + GemmTRhsCols <= NOut; J += GemmTRhsCols)
      dotBlock<T>(ARow, B, Ldb, CRow, K, J, IndexPack<GemmTRhsCols>{});
    for (; J < NOut; ++J)
      dotBlock<T>(ARow, B, Ldb, CRow, K, J, IndexPack<1>{});
  }
}

//===----------------------------------------------------------------------===//
// SpMM, weighted or unweighted
//===----------------------------------------------------------------------===//

/// Vector registers one output row accumulates in at a time.
constexpr int SpmmRowVectors = 8;

/// The value of nonzero \p K of a weighted SpMM: through the value index
/// when there is one.
inline float spmmEdgeValue(const float *Vals, const int64_t *ValIdx,
                           int64_t K) {
  return Vals[ValIdx ? ValIdx[K] : K];
}

/// Columns [0, NV * W) of one output row (\p B and \p Out already offset
/// to the first column), NV = sizeof...(V): NV vector accumulators start at
/// zero, take every nonzero [Begin, End) of the row in order (an FMA by the
/// edge value when \p Weighted, else a plain add), take \p Epi's steps for
/// row \p Row when \p HasEpi, and are stored once.
template <class T, bool Weighted, bool HasEpi, int... V>
void spmmRowVectors(const int32_t *Cols, const float *Vals,
                    const int64_t *ValIdx, const float *B, int64_t Ldb,
                    float *Out, int64_t Begin, int64_t End,
                    const RowEpilogue *Epi, int64_t Row,
                    std::integer_sequence<int, V...>) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  Vec Acc[sizeof...(V)] = {(static_cast<void>(V), T::zero())...};
  for (int64_t K = Begin; K < End; ++K) {
    const float *Src = B + static_cast<int64_t>(Cols[K]) * Ldb;
    if constexpr (Weighted) {
      const Vec EdgeV = T::set1(spmmEdgeValue(Vals, ValIdx, K));
      (..., (Acc[V] = T::fma(EdgeV, T::load(Src + V * W), Acc[V])));
    } else {
      (..., (Acc[V] = T::add(Acc[V], T::load(Src + V * W))));
    }
  }
  if constexpr (HasEpi)
    (..., (Acc[V] = epilogueVec<T>(*Epi, Row, Acc[V])));
  (..., T::store(Out + V * W, Acc[V]));
}

/// Calls \p Fn with IndexPack<Count> for a runtime Count in [1, NV].
template <int NV, class Fn> void withIndexPack(int64_t Count, Fn &&F) {
  if constexpr (NV > 0) {
    if (Count == NV)
      return F(IndexPack<NV>{});
    withIndexPack<NV - 1>(Count, F);
  }
}

template <class T, bool Weighted, bool HasEpi>
void spmmRows(const int64_t *Offsets, const int32_t *Cols, const float *Vals,
              const int64_t *ValIdx, const float *B, int64_t Ldb, float *Dst,
              int64_t LdDst, int64_t N, int64_t RowBegin, int64_t RowEnd,
              const RowEpilogue *Epi) {
  constexpr int64_t W = T::Width;
  constexpr int64_t Chunk = SpmmRowVectors * W;
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float *Out = Dst + R * LdDst;
    const int64_t Begin = Offsets[R];
    const int64_t End = Offsets[R + 1];
    auto Vectors = [&](int64_t J, auto Pack) {
      spmmRowVectors<T, Weighted, HasEpi>(Cols, Vals, ValIdx, B + J, Ldb,
                                          Out + J, Begin, End, Epi, R, Pack);
    };
    int64_t J = 0;
    for (; J + Chunk <= N; J += Chunk)
      Vectors(J, IndexPack<SpmmRowVectors>{});
    const int64_t Rest = (N - J) / W;
    withIndexPack<SpmmRowVectors - 1>(Rest,
                                      [&](auto Pack) { Vectors(J, Pack); });
    J += Rest * W;
    if (J == N)
      continue;
    // Fewer than W columns remain: the same per-element chains, kept in
    // the output row (std::fma rounds exactly like a vector FMA lane).
    std::fill(Out + J, Out + N, 0.0f);
    for (int64_t K = Begin; K < End; ++K) {
      const float *Src = B + static_cast<int64_t>(Cols[K]) * Ldb;
      if constexpr (Weighted) {
        const float Edge = spmmEdgeValue(Vals, ValIdx, K);
        for (int64_t JJ = J; JJ < N; ++JJ)
          Out[JJ] = std::fma(Edge, Src[JJ], Out[JJ]);
      } else {
        for (int64_t JJ = J; JJ < N; ++JJ)
          Out[JJ] += Src[JJ];
      }
    }
    if constexpr (HasEpi)
      for (int64_t JJ = J; JJ < N; ++JJ)
        Out[JJ] = epilogueScalar<T>(*Epi, R, Out[JJ]);
  }
}

/// Every column's accumulation is per-element exact (add/fma lanes match
/// their scalar-tail counterparts bit for bit), so an element's value does
/// not depend on which path covers its column.
template <class T>
void spmmRowRange(const int64_t *Offsets, const int32_t *Cols,
                  const float *Vals, const int64_t *ValIdx, const float *B,
                  int64_t Ldb, float *Dst, int64_t LdDst, int64_t N,
                  int64_t RowBegin, int64_t RowEnd, const RowEpilogue *Epi) {
  auto Run = [&](auto Weighted, auto HasEpi) {
    spmmRows<T, decltype(Weighted)::value, decltype(HasEpi)::value>(
        Offsets, Cols, Vals, ValIdx, B, Ldb, Dst, LdDst, N, RowBegin, RowEnd,
        Epi);
  };
  using Yes = std::true_type;
  using No = std::false_type;
  if (Vals)
    Epi ? Run(Yes{}, Yes{}) : Run(Yes{}, No{});
  else
    Epi ? Run(No{}, Yes{}) : Run(No{}, No{});
}

//===----------------------------------------------------------------------===//
// SDDMM (per-edge dot products)
//===----------------------------------------------------------------------===//

/// Edges of one CSR row scored side by side. Each edge's dot product is a
/// scalar chain fed by one horizontal sum per feature group, so a lone edge
/// runs at the latency of that chain; SddmmEdges edges in flight overlap
/// their chains and their row gathers. Every edge still folds its groups
/// from feature 0 and then its tail one by one, the sequence of a lone edge.
constexpr int SddmmEdges = 4;

/// Edges [K0, K0 + sizeof...(E)) of the row whose U row is \p URow.
template <class T, int... E>
void sddmmEdges(const int32_t *Cols, const float *URow, const float *V,
                int64_t Ldv, float *Out, int64_t Width, int64_t K0,
                std::integer_sequence<int, E...>) {
  constexpr int64_t G = T::DotGroup;
  constexpr int NE = sizeof...(E);
  const float *VRow[NE] = {V + static_cast<int64_t>(Cols[K0 + E]) * Ldv...};
  float Acc[NE] = {(static_cast<void>(E), 0.0f)...};
  // Features fold into each scalar accumulator in groups of G, then the
  // tail one by one through std::fma, so unoptimized builds, which do not
  // contract a multiply-add, round like optimized ones.
  int64_t J = 0;
  for (; J + G <= Width; J += G)
    (..., (Acc[E] += T::dotGroup(URow + J, VRow[E] + J)));
  for (; J < Width; ++J)
    (..., (Acc[E] = std::fma(URow[J], VRow[E][J], Acc[E])));
  (..., (Out[K0 + E] = Acc[E]));
}

template <class T>
void sddmmDotRowRange(const int64_t *Offsets, const int32_t *Cols,
                      const float *U, int64_t Ldu, const float *V,
                      int64_t Ldv, float *Out, int64_t Width,
                      int64_t RowBegin, int64_t RowEnd) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    const float *URow = U + R * Ldu;
    int64_t K = Offsets[R];
    for (; K + SddmmEdges <= Offsets[R + 1]; K += SddmmEdges)
      sddmmEdges<T>(Cols, URow, V, Ldv, Out, Width, K,
                    IndexPack<SddmmEdges>{});
    for (; K < Offsets[R + 1]; ++K)
      sddmmEdges<T>(Cols, URow, V, Ldv, Out, Width, K, IndexPack<1>{});
  }
}

//===----------------------------------------------------------------------===//
// Elementwise map family
//===----------------------------------------------------------------------===//

template <class T>
void scaleRange(float Alpha, const float *X, float *Out, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec AlphaV = T::set1(Alpha);
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Out + I, T::mul(AlphaV, T::load(X + I)));
  for (; I < N; ++I)
    Out[I] = Alpha * X[I];
}

template <class T>
void mulRange(const float *X, const float *Y, float *Out, int64_t N) {
  constexpr int64_t W = T::Width;
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Out + I, T::mul(T::load(X + I), T::load(Y + I)));
  for (; I < N; ++I)
    Out[I] = X[I] * Y[I];
}

template <class T>
void addRange(const float *X, const float *Y, float *Out, int64_t N) {
  constexpr int64_t W = T::Width;
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Out + I, T::add(T::load(X + I), T::load(Y + I)));
  for (; I < N; ++I)
    Out[I] = X[I] + Y[I];
}

template <class T>
void axpyRange(float Alpha, const float *X, float *Y, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec AlphaV = T::set1(Alpha);
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Y + I, T::fma(AlphaV, T::load(X + I), T::load(Y + I)));
  for (; I < N; ++I)
    Y[I] = std::fma(Alpha, X[I], Y[I]);
}

template <class T>
void reluRange(const float *X, float *Out, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec Zero = T::zero();
  int64_t I = 0;
  // T::max(x, 0) returns the second operand for -0.0 and NaN inputs,
  // matching the scalar `x > 0 ? x : 0` below element for element.
  for (; I + W <= N; I += W)
    T::store(Out + I, T::max(T::load(X + I), Zero));
  for (; I < N; ++I)
    Out[I] = X[I] > 0.0f ? X[I] : 0.0f;
}

template <class T>
void reluBackwardRange(const float *Pre, const float *Grad, float *Out,
                       int64_t N) {
  constexpr int64_t W = T::Width;
  int64_t I = 0;
  // T::maskPositive keeps a Grad lane where Pre > 0 (ordered: false for
  // NaN) and writes +0 elsewhere, the scalar select below lane for lane.
  for (; I + W <= N; I += W)
    T::store(Out + I, T::maskPositive(T::load(Pre + I), T::load(Grad + I)));
  for (; I < N; ++I)
    Out[I] = Pre[I] > 0.0f ? Grad[I] : 0.0f;
}

template <class T>
void leakyReluRange(float Slope, const float *X, float *Out, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec SlopeV = T::set1(Slope);
  int64_t I = 0;
  // T::selectPositive keeps X where X > 0 (ordered: false for NaN) and the
  // product elsewhere, the scalar select below lane for lane.
  for (; I + W <= N; I += W) {
    const Vec XV = T::load(X + I);
    T::store(Out + I, T::selectPositive(XV, XV, T::mul(SlopeV, XV)));
  }
  for (; I < N; ++I)
    Out[I] = X[I] > 0.0f ? X[I] : Slope * X[I];
}

/// Builds the dispatch table for one trait set.
template <class T> SimdOps makeSimdOps(IsaLevel Level, const char *Name) {
  SimdOps Ops;
  Ops.Level = Level;
  Ops.Name = Name;
  Ops.GemmRowRange = &gemmRowRange<T>;
  Ops.GemmTLhsRowRange = &gemmTLhsRowRange<T>;
  Ops.GemmTRhsRowRange = &gemmTRhsRowRange<T>;
  Ops.SpmmRowRange = &spmmRowRange<T>;
  Ops.SddmmDotRowRange = &sddmmDotRowRange<T>;
  Ops.ScaleRange = &scaleRange<T>;
  Ops.MulRange = &mulRange<T>;
  Ops.AddRange = &addRange<T>;
  Ops.AxpyRange = &axpyRange<T>;
  Ops.ReluRange = &reluRange<T>;
  Ops.ReluBackwardRange = &reluBackwardRange<T>;
  Ops.LeakyReluRange = &leakyReluRange<T>;
  return Ops;
}

} // namespace simd_impl
} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_SIMDKERNELSIMPL_H
