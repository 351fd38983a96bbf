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
/// product folds features into its scalar accumulator in 256-bit groups,
/// always from feature 0, so every edge's reduction is the same chain
/// wherever it runs. The GEMV, attention-gradient and leaky-ReLU-gradient
/// routines round each product before adding it, as the scalar loops do.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_SIMDKERNELSIMPL_H
#define GRANII_KERNELS_SIMDKERNELSIMPL_H

#include "kernels/Dispatch.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include <immintrin.h>

namespace granii {
namespace kernels {
namespace simd_impl {

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
//
// Both SIMD levels reduce an edge's dot product in 256-bit groups of
// SddmmGroup features: the rounded products of a group are summed by the
// AVX2 horizontal-sum tree (lanes i + (i + 4), then 0 + 2 and 1 + 3, then
// 0 + 1), and the group's sum is added to the edge's scalar accumulator,
// groups in order from feature 0; the last Width % SddmmGroup features
// follow one by one through std::fma. Every path below runs exactly this
// chain for each edge, so no edge's bits depend on its neighbours in the
// row or on the row partition.
//
// The 256-bit helpers here and in the GEMV below take the traits as a
// template parameter they do not use: each ISA unit needs its own copy. A
// plain inline function would be one symbol for both units, and the linker
// would keep whichever copy came first, AVX-512 encodings included.

/// Features per dot group.
constexpr int64_t SddmmGroup = 8;

/// One edge's sum over the group at \p U and \p V.
template <class T> float sddmmGroupSum(const float *U, const float *V) {
  const __m256 Prod = _mm256_mul_ps(_mm256_loadu_ps(U), _mm256_loadu_ps(V));
  __m128 Sum = _mm_add_ps(_mm256_castps256_ps128(Prod),
                          _mm256_extractf128_ps(Prod, 1));
  Sum = _mm_add_ps(Sum, _mm_movehl_ps(Sum, Sum));
  Sum = _mm_add_ss(Sum, _mm_shuffle_ps(Sum, Sum, 0x55));
  return _mm_cvtss_f32(Sum);
}

/// [a's 128-bit halves summed | b's]: the tree's first step for two edges,
/// low half first.
template <class T> __m256 sddmmHalfSums(__m256 A, __m256 B) {
  return _mm256_add_ps(_mm256_permute2f128_ps(A, B, 0x20),
                       _mm256_permute2f128_ps(A, B, 0x31));
}

/// The tree's second step (lanes 0 + 2 and 1 + 3 of each edge's four), for
/// the edges of two sddmmHalfSums results: within each 128-bit half, the
/// first result's edge, then the second's.
template <class T> __m256 sddmmPairSums(__m256 A, __m256 B) {
  return _mm256_add_ps(_mm256_shuffle_ps(A, B, _MM_SHUFFLE(1, 0, 1, 0)),
                       _mm256_shuffle_ps(A, B, _MM_SHUFFLE(3, 2, 3, 2)));
}

/// The tree's last step (lanes 0 + 1 of each edge's two) for the edges of
/// two sddmmPairSums results.
template <class T> __m256 sddmmLaneSums(__m256 A, __m256 B) {
  return _mm256_add_ps(_mm256_shuffle_ps(A, B, _MM_SHUFFLE(2, 0, 2, 0)),
                       _mm256_shuffle_ps(A, B, _MM_SHUFFLE(3, 1, 3, 1)));
}

/// Edges [K0, K0 + 8) of the row whose U row is \p URow, E = 0..7: eight
/// chains in the lanes of one accumulator, edge E in lane E, then the tail
/// of each edge. Each group's sums come from the tree of sddmmGroupSum run
/// across the eight product vectors, each lane adding the same two partial
/// sums as the single-edge tree: permute2f128 pairs edges E and E + 4,
/// shuffle_ps edges E and E + 1 within each 128-bit half, and a last
/// shuffle_ps pair leaves the edges in order. Every subscript is a
/// compile-time constant, so the products and partial sums stay in
/// registers (arrays indexed in a loop stayed on the stack under GCC -O2).
template <class T, int... E>
void sddmmEdges8(const int32_t *Cols, const float *URow, const float *V,
                 int64_t Ldv, float *Out, int64_t Width, int64_t K0,
                 std::integer_sequence<int, E...>) {
  static_assert(sizeof...(E) == 8, "eight edges per run");
  const float *VRow[8] = {V + static_cast<int64_t>(Cols[K0 + E]) * Ldv...};
  __m256 Acc = _mm256_setzero_ps();
  int64_t J = 0;
  for (; J + SddmmGroup <= Width; J += SddmmGroup) {
    const __m256 UV = _mm256_loadu_ps(URow + J);
    const __m256 P[8] = {_mm256_mul_ps(UV, _mm256_loadu_ps(VRow[E] + J))...};
    const __m256 Sums = sddmmLaneSums<T>(
        sddmmPairSums<T>(sddmmHalfSums<T>(P[0], P[4]),
                         sddmmHalfSums<T>(P[1], P[5])),
        sddmmPairSums<T>(sddmmHalfSums<T>(P[2], P[6]),
                         sddmmHalfSums<T>(P[3], P[7])));
    Acc = _mm256_add_ps(Acc, Sums);
  }
  _mm256_storeu_ps(Out + K0, Acc);
  for (; J < Width; ++J)
    (..., (Out[K0 + E] = std::fma(URow[J], VRow[E][J], Out[K0 + E])));
}

/// Edges of one row scored side by side in the short paths: a lone edge
/// runs at the latency of its scalar chain, SddmmEdges of them overlap
/// their chains and their row gathers.
constexpr int SddmmEdges = 4;

/// Edges [K0, K0 + sizeof...(E)) of the row whose U row is \p URow.
template <class T, int... E>
void sddmmEdges(const int32_t *Cols, const float *URow, const float *V,
                int64_t Ldv, float *Out, int64_t Width, int64_t K0,
                std::integer_sequence<int, E...>) {
  constexpr int NE = sizeof...(E);
  const float *VRow[NE] = {V + static_cast<int64_t>(Cols[K0 + E]) * Ldv...};
  float Acc[NE] = {(static_cast<void>(E), 0.0f)...};
  int64_t J = 0;
  for (; J + SddmmGroup <= Width; J += SddmmGroup)
    (..., (Acc[E] += sddmmGroupSum<T>(URow + J, VRow[E] + J)));
  for (; J < Width; ++J)
    (..., (Acc[E] = std::fma(URow[J], VRow[E][J], Acc[E])));
  (..., (Out[K0 + E] = Acc[E]));
}

/// Each row's edges go eight at a time, then four, then one by one.
template <class T>
void sddmmDotRowRange(const int64_t *Offsets, const int32_t *Cols,
                      const float *U, int64_t Ldu, const float *V,
                      int64_t Ldv, float *Out, int64_t Width,
                      int64_t RowBegin, int64_t RowEnd) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    const float *URow = U + R * Ldu;
    const int64_t End = Offsets[R + 1];
    int64_t K = Offsets[R];
    for (; K + 8 <= End; K += 8)
      sddmmEdges8<T>(Cols, URow, V, Ldv, Out, Width, K, IndexPack<8>{});
    if (K + SddmmEdges <= End) {
      sddmmEdges<T>(Cols, URow, V, Ldv, Out, Width, K,
                    IndexPack<SddmmEdges>{});
      K += SddmmEdges;
    }
    for (; K < End; ++K)
      sddmmEdges<T>(Cols, URow, V, Ldv, Out, Width, K, IndexPack<1>{});
  }
}

//===----------------------------------------------------------------------===//
// GEMV, attention gradients, leaky ReLU gradient
//===----------------------------------------------------------------------===//
//
// These reproduce the scalar table's loops bit for bit: each product is
// rounded (T::mul) before it is added (T::add). The ISA units are compiled
// with -ffp-contract=off, so the pair is never fused into an FMA, and the
// scalar tails below round alike.

/// Columns J..J+3 of rows R and R + 4, R = 0..3, each in a 128-bit half:
/// [row R | row R + 4] in, column C's four rows of each half in Col[C] out.
template <class T>
void gemvTranspose4(__m256 R0, __m256 R1, __m256 R2, __m256 R3, __m256 &C0,
                    __m256 &C1, __m256 &C2, __m256 &C3) {
  const __m256 T0 = _mm256_unpacklo_ps(R0, R1);
  const __m256 T1 = _mm256_unpackhi_ps(R0, R1);
  const __m256 T2 = _mm256_unpacklo_ps(R2, R3);
  const __m256 T3 = _mm256_unpackhi_ps(R2, R3);
  C0 = _mm256_shuffle_ps(T0, T2, _MM_SHUFFLE(1, 0, 1, 0));
  C1 = _mm256_shuffle_ps(T0, T2, _MM_SHUFFLE(3, 2, 3, 2));
  C2 = _mm256_shuffle_ps(T1, T3, _MM_SHUFFLE(1, 0, 1, 0));
  C3 = _mm256_shuffle_ps(T1, T3, _MM_SHUFFLE(3, 2, 3, 2));
}

/// Y[I0 .. I0 + 8): one row's chain per lane of a 256-bit accumulator.
/// Each step loads an 8x8 tile of A as row halves paired across 128-bit
/// lanes and transposes it in registers, so vector C holds column J + C of
/// the eight rows, which then add their products in ascending J.
template <class T>
void gemvBlock8(const float *A, int64_t Lda, const float *X, float *Y,
                int64_t K, int64_t I0) {
  const float *R0 = A + I0 * Lda, *R1 = R0 + Lda, *R2 = R1 + Lda,
              *R3 = R2 + Lda, *R4 = R3 + Lda, *R5 = R4 + Lda, *R6 = R5 + Lda,
              *R7 = R6 + Lda;
  // [row Lo, columns J..J+3 | row Hi, the same columns]
  auto Halves = [](const float *Lo, const float *Hi, int64_t J) {
    const __m256 L = _mm256_castps128_ps256(_mm_loadu_ps(Lo + J));
    return _mm256_insertf128_ps(L, _mm_loadu_ps(Hi + J), 1);
  };
  __m256 Acc = _mm256_setzero_ps();
  auto Add = [&](__m256 Col, int64_t J) {
    Acc = _mm256_add_ps(Acc, _mm256_mul_ps(Col, _mm256_set1_ps(X[J])));
  };
  int64_t J = 0;
  for (; J + 8 <= K; J += 8) {
    __m256 C0, C1, C2, C3, C4, C5, C6, C7;
    gemvTranspose4<T>(Halves(R0, R4, J), Halves(R1, R5, J),
                      Halves(R2, R6, J), Halves(R3, R7, J), C0, C1, C2, C3);
    gemvTranspose4<T>(Halves(R0, R4, J + 4), Halves(R1, R5, J + 4),
                      Halves(R2, R6, J + 4), Halves(R3, R7, J + 4), C4, C5,
                      C6, C7);
    Add(C0, J);
    Add(C1, J + 1);
    Add(C2, J + 2);
    Add(C3, J + 3);
    Add(C4, J + 4);
    Add(C5, J + 5);
    Add(C6, J + 6);
    Add(C7, J + 7);
  }
  _mm256_storeu_ps(Y + I0, Acc);
  const float *Rows[8] = {R0, R1, R2, R3, R4, R5, R6, R7};
  for (; J < K; ++J)
    for (int R = 0; R < 8; ++R)
      Y[I0 + R] = Y[I0 + R] + Rows[R][J] * X[J];
}

template <class T>
void gemvRowRange(const float *A, int64_t Lda, const float *X, float *Y,
                  int64_t K, int64_t RowBegin, int64_t RowEnd) {
  int64_t I = RowBegin;
  for (; I + 8 <= RowEnd; I += 8)
    gemvBlock8<T>(A, Lda, X, Y, K, I);
  for (; I < RowEnd; ++I) {
    const float *Row = A + I * Lda;
    float Acc = 0.0f;
    for (int64_t J = 0; J < K; ++J)
      Acc += Row[J] * X[J];
    Y[I] = Acc;
  }
}

template <class T>
void attnThetaGradRows(const float *Grad, const float *AVec, float *DTheta,
                       int64_t Ld, int64_t Cols, int64_t RowBegin,
                       int64_t RowEnd, bool First) {
  constexpr int64_t W = T::Width;
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    const float G = Grad[R];
    float *Row = DTheta + R * Ld;
    if (G == 0.0f) {
      if (First)
        std::fill_n(Row, Cols, 0.0f);
      continue;
    }
    const typename T::Vec GV = T::set1(G);
    int64_t C = 0;
    for (; C + W <= Cols; C += W)
      T::store(Row + C, T::add(First ? T::zero() : T::load(Row + C),
                               T::mul(GV, T::load(AVec + C))));
    for (; C < Cols; ++C)
      Row[C] = (First ? 0.0f : Row[C]) + G * AVec[C];
  }
}

/// Vector registers one pass of the attention vector gradient accumulates
/// its columns in.
constexpr int AttnGradPassVectors = 8;

/// Columns [0, NV * W) at \p Base / \p DA, NV = sizeof...(V): one pass over
/// every row, each column's chain in a vector lane held in registers.
template <class T, int... V>
void attnVecGradPass(const float *Base, int64_t Ld, int64_t Rows,
                     const float *Grad, float *DA, bool First,
                     std::integer_sequence<int, V...>) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  constexpr int64_t PassCols = sizeof...(V) * W;
  Vec Acc[sizeof...(V)] = {(First ? T::zero() : T::load(DA + V * W))...};
  for (int64_t R = 0; R < Rows; ++R) {
    if (R + AttnGradPrefetchRows < Rows)
      for (int64_t C = 0; C < PassCols; C += AttnGradColBlock)
        __builtin_prefetch(Base + (R + AttnGradPrefetchRows) * Ld + C);
    const Vec G = T::set1(Grad[R]);
    const float *Row = Base + R * Ld;
    (..., (Acc[V] = T::add(Acc[V], T::mul(G, T::load(Row + V * W)))));
  }
  (..., T::store(DA + V * W, Acc[V]));
}

template <class T>
void attnVecGradCols(const float *Theta, int64_t Ld, int64_t Rows,
                     const float *Grad, float *DA, int64_t C0, int64_t C1,
                     bool First) {
  constexpr int64_t W = T::Width;
  int64_t C = C0;
  auto Pass = [&](auto Pack) {
    attnVecGradPass<T>(Theta + C, Ld, Rows, Grad, DA + C, First, Pack);
  };
  for (; C + AttnGradPassVectors * W <= C1; C += AttnGradPassVectors * W)
    Pass(IndexPack<AttnGradPassVectors>{});
  const int64_t Rest = (C1 - C) / W;
  withIndexPack<AttnGradPassVectors - 1>(Rest, Pass);
  C += Rest * W;
  if (C == C1)
    return;
  // Fewer than W columns remain: the same chains, one pass in scalar.
  const int64_t Width = C1 - C;
  float Acc[W];
  for (int64_t J = 0; J < Width; ++J)
    Acc[J] = First ? 0.0f : DA[C + J];
  for (int64_t R = 0; R < Rows; ++R) {
    const float G = Grad[R];
    const float *Row = Theta + R * Ld + C;
    for (int64_t J = 0; J < Width; ++J)
      Acc[J] += G * Row[J];
  }
  std::copy_n(Acc, Width, DA + C);
}

template <class T>
void leakyReluBackwardRange(float Slope, const float *Pre, const float *Grad,
                            float *DIn, int64_t N, bool First) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec One = T::set1(1.0f);
  const Vec SlopeV = T::set1(Slope);
  int64_t I = 0;
  // T::selectPositive takes 1 where Pre > 0 (ordered: false for NaN) and
  // the slope elsewhere, the scalar select below lane for lane.
  for (; I + W <= N; I += W) {
    const Vec Sel = T::selectPositive(T::load(Pre + I), One, SlopeV);
    T::store(DIn + I, T::add(First ? T::zero() : T::load(DIn + I),
                             T::mul(T::load(Grad + I), Sel)));
  }
  for (; I < N; ++I) {
    const float Sel = Pre[I] > 0.0f ? 1.0f : Slope;
    DIn[I] = (First ? 0.0f : DIn[I]) + Grad[I] * Sel;
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
  Ops.GemmTLhsPanelCols = 2 * T::Width;
  Ops.GemmRowRange = &gemmRowRange<T>;
  Ops.GemmTLhsRowRange = &gemmTLhsRowRange<T>;
  Ops.GemmTRhsRowRange = &gemmTRhsRowRange<T>;
  Ops.SpmmRowRange = &spmmRowRange<T>;
  Ops.SddmmDotRowRange = &sddmmDotRowRange<T>;
  Ops.GemvRowRange = &gemvRowRange<T>;
  Ops.AttnThetaGradRows = &attnThetaGradRows<T>;
  Ops.AttnVecGradCols = &attnVecGradCols<T>;
  Ops.LeakyReluBackwardRange = &leakyReluBackwardRange<T>;
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
