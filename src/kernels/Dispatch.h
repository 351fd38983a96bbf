//===- Dispatch.h - Runtime ISA selection for the kernel layer --*- C++ -*-===//
///
/// \file
/// Runtime CPUID dispatch for the hot kernel inner loops. The library ships
/// three implementations of the performance-critical row routines — portable
/// scalar, AVX2+FMA, and AVX-512 — compiled into separate translation units
/// with per-file target flags. At startup (first kernel call) the best level
/// the build *and* the host both support is selected once; the environment
/// variable GRANII_ISA=scalar|avx2|avx512 (or granii-cli --isa / the
/// setIsaLevel() test hook) forces a lower level, e.g. so sanitizer jobs and
/// the differential harness can exercise the portable path on any machine.
///
/// Determinism contract (docs/SIMD.md): *within* one ISA level every kernel
/// remains bitwise-identical across thread counts — the dispatched routines
/// process whole row ranges and each output element's serial reduction order
/// is partition-independent, exactly like the scalar kernels. Results may
/// differ across ISA levels (vector FMA contraction, grouped horizontal
/// sums), which is why bench baselines and cost-model caches are stamped
/// with the ISA name. The scalar table reproduces the pre-SIMD kernels
/// bitwise, so GRANII_ISA=scalar is a faithful compatibility mode.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_DISPATCH_H
#define GRANII_KERNELS_DISPATCH_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace granii {
namespace kernels {

/// Vector instruction-set levels the kernel layer can target, in strictly
/// increasing capability order (comparisons rely on the ordering).
enum class IsaLevel : int {
  Scalar = 0, ///< portable C++ loops, bitwise-identical to the pre-SIMD code
  Avx2 = 1,   ///< 256-bit AVX2 + FMA
  Avx512 = 2, ///< 512-bit AVX-512 (F/DQ/BW/VL)
};

/// Stable printable name: "scalar", "avx2", "avx512".
const char *isaLevelName(IsaLevel Level);

/// Parses an ISA name (as accepted by GRANII_ISA / --isa); nullopt on
/// anything unrecognized.
std::optional<IsaLevel> parseIsaLevel(const std::string &Name);

/// Rows per register block in the packed GEMM routines: 4 output rows x 2
/// vectors of accumulators stays within 16 architectural vector registers
/// (with B-row and broadcast temporaries) on AVX2.
constexpr int GemmRowBlock = 4;

/// Contraction rows per window of the SIMD GemmTLhsRowRange (A^T * B, the
/// weight gradient). One window of a 128-wide B is 512 KiB, so A and B
/// stream from L2 while every register block of a row range sweeps them.
constexpr int64_t GemmTLhsWindowRows = 1024;

/// Columns of one cache line of an attention-gradient row: the unit the
/// threads split the attention vector's gradient in, and the stride of its
/// prefetches.
constexpr int64_t AttnGradColBlock = 16;

/// Rows ahead of an attention vector-gradient pass whose lines are
/// prefetched: the pass strides across rows, which the hardware prefetchers
/// do not follow.
constexpr int64_t AttnGradPrefetchRows = 16;

/// Most element-wise steps one row epilogue applies. A fused chain in this
/// library is at most two steps long (SGC's two row scalings, GCN's row
/// scaling and ReLU); longer chains are cut here.
constexpr int MaxEpilogueOps = 4;

/// Element-wise steps a GEMM or SpMM applies, in order, to each output row's
/// accumulators just before the row's one store: a fused chain of row
/// scalings and ReLUs. Each step gives every element the operation the
/// separate kernel applies at the same level (ScaleRange's Scale[row] * x,
/// ReluRange's max(x, 0) / x > 0 ? x : 0), so a fused producer writes the
/// bits of the unfused kernel sequence. A row routine given a null epilogue
/// runs its plain loops; the choice is made once per call.
struct RowEpilogue {
  enum class OpKind : uint8_t {
    Scale, ///< x = Scale[row] * x, rowBroadcastMulInto's multiply
    Relu   ///< x = max(x, 0), reluInto's select
  };
  struct Op {
    OpKind Kind = OpKind::Relu;
    std::span<const float> Scale; ///< one factor per output row (Scale)
  };
  Op Ops[MaxEpilogueOps];
  int Count = 0;

  /// Appends a step; false (and unchanged) when the epilogue is full.
  bool push(OpKind Kind, std::span<const float> Scale = {}) {
    if (Count == MaxEpilogueOps)
      return false;
    Ops[Count++] = {Kind, Scale};
    return true;
  }
};

/// The per-ISA kernel table. Entries operate on whole row (or element)
/// ranges so the indirect call sits outside the inner loops; Kernels.cpp
/// invokes them from inside its thread-pool partitions. All pointers are
/// non-null in a registered table.
struct SimdOps {
  IsaLevel Level = IsaLevel::Scalar;
  const char *Name = "scalar";

  /// Measured throughput of this level relative to the scalar path on the
  /// compute-bound dense (packed GEMM) and memory-bound sparse (g-SpMM)
  /// kernels. HardwareModel::DeviceParams::cpu() multiplies its base
  /// gflops by these so the planner's analytic costs track the active ISA;
  /// re-derive them with `micro_kernels --json` per docs/SIMD.md.
  double DenseThroughputScale = 1.0;
  double SparseThroughputScale = 1.0;

  /// Columns of one panel of C = A^T * B, the unit gemmTransposedLhsInto
  /// splits its output in: two vectors, one register block's width.
  int64_t GemmTLhsPanelCols = 16;

  /// C rows [RowBegin, RowEnd) of C = A * B, all matrices row-major with
  /// the given leading dimensions; a non-null \p Epi is applied to each C
  /// row before it is stored.
  void (*GemmRowRange)(const float *A, int64_t Lda, const float *B,
                       int64_t Ldb, float *C, int64_t Ldc, int64_t K,
                       int64_t N, int64_t RowBegin, int64_t RowEnd,
                       const RowEpilogue *Epi) = nullptr;

  /// C rows [RowBegin, RowEnd) of C = A^T * B; C has A.cols() rows and \p M
  /// is A.rows() (the contraction length). The SIMD levels contract in
  /// windows of GemmTLhsWindowRows rows, carrying partial sums in C. A
  /// column panel of C is the call on B and C advanced to its first column,
  /// with \p N its width and the full widths as leading dimensions.
  void (*GemmTLhsRowRange)(const float *A, int64_t Lda, const float *B,
                           int64_t Ldb, float *C, int64_t Ldc, int64_t M,
                           int64_t N, int64_t RowBegin, int64_t RowEnd) =
      nullptr;

  /// C rows [RowBegin, RowEnd) of C = A * B^T; \p K is the contraction
  /// length (A.cols() == B.cols()) and \p NOut is B.rows().
  void (*GemmTRhsRowRange)(const float *A, int64_t Lda, const float *B,
                           int64_t Ldb, float *C, int64_t Ldc, int64_t K,
                           int64_t NOut, int64_t RowBegin, int64_t RowEnd) =
      nullptr;

  /// SpMM over CSR rows [RowBegin, RowEnd), each output row \p N floats
  /// wide: the sum over the row's nonzeros K of value K times B's row
  /// Cols[K]. A null \p Vals is the unweighted sum, which adds the B rows
  /// without a multiply; \p ValIdx, when non-null, maps nonzero K to its
  /// value Vals[ValIdx[K]] (the CSC-transposed backward pass reads
  /// CSR-ordered values through it). A non-null \p Epi is applied to each
  /// output row before it is stored.
  void (*SpmmRowRange)(const int64_t *Offsets, const int32_t *Cols,
                       const float *Vals, const int64_t *ValIdx,
                       const float *B, int64_t Ldb, float *Dst, int64_t LdDst,
                       int64_t N, int64_t RowBegin, int64_t RowEnd,
                       const RowEpilogue *Epi) = nullptr;

  /// SDDMM over CSR rows [RowBegin, RowEnd): each edge's output is the
  /// dot product of its endpoints' \p Width-float U and V rows.
  void (*SddmmDotRowRange)(const int64_t *Offsets, const int32_t *Cols,
                           const float *U, int64_t Ldu, const float *V,
                           int64_t Ldv, float *Out, int64_t Width,
                           int64_t RowBegin, int64_t RowEnd) = nullptr;

  // The routines below compute what the scalar loops compute, bit for bit,
  // at every level: each product is rounded to float before it is added,
  // and each element's adds run in the scalar loop's order. The SIMD levels
  // put independent chains side by side in the lanes.

  /// Y[I] = A row I . X for rows [RowBegin, RowEnd), A row-major with \p K
  /// columns: each row's chain starts at 0 and adds A[I][J] * X[J] in
  /// ascending J. The SIMD levels run one row's chain per lane.
  void (*GemvRowRange)(const float *A, int64_t Lda, const float *X, float *Y,
                       int64_t K, int64_t RowBegin, int64_t RowEnd) = nullptr;

  /// Rows [RowBegin, RowEnd) of the attention GEMV's weight gradient over
  /// \p Cols columns: DTheta[R][C] += Grad[R] * AVec[C]. A row whose
  /// gradient is zero adds nothing; with \p First every row is written
  /// (0 + Grad[R] * AVec[C], zeros for a skipped row).
  void (*AttnThetaGradRows)(const float *Grad, const float *AVec,
                            float *DTheta, int64_t Ld, int64_t Cols,
                            int64_t RowBegin, int64_t RowEnd,
                            bool First) = nullptr;

  /// Columns [C0, C1) of the attention vector's gradient over \p Rows rows
  /// of Theta: DA[C] += Grad[R] * Theta[R][C] for R ascending, one chain per
  /// column that starts at DA[C] (at 0 with \p First).
  void (*AttnVecGradCols)(const float *Theta, int64_t Ld, int64_t Rows,
                          const float *Grad, float *DA, int64_t C0,
                          int64_t C1, bool First) = nullptr;

  /// DIn[I] = (First ? 0 : DIn[I]) + Grad[I] * (Pre[I] > 0 ? 1 : Slope), the
  /// edge leaky ReLU's gradient: a compare and select, a multiply, an add.
  void (*LeakyReluBackwardRange)(float Slope, const float *Pre,
                                 const float *Grad, float *DIn, int64_t N,
                                 bool First) = nullptr;

  // Elementwise map family over flat ranges of \p N contiguous floats.
  void (*ScaleRange)(float Alpha, const float *X, float *Out,
                     int64_t N) = nullptr; ///< Out = Alpha * X
  void (*MulRange)(const float *X, const float *Y, float *Out,
                   int64_t N) = nullptr; ///< Out = X .* Y
  void (*AddRange)(const float *X, const float *Y, float *Out,
                   int64_t N) = nullptr; ///< Out = X + Y
  void (*AxpyRange)(float Alpha, const float *X, float *Y,
                    int64_t N) = nullptr; ///< Y += Alpha * X
  void (*ReluRange)(const float *X, float *Out,
                    int64_t N) = nullptr; ///< Out = max(X, 0)
  /// Out = Pre > 0 ? Grad : +0, the ReLU gradient: a compare and select,
  /// so every level writes the same bits.
  void (*ReluBackwardRange)(const float *Pre, const float *Grad, float *Out,
                            int64_t N) = nullptr;
  /// Out = X > 0 ? X : Slope * X, the edge leaky ReLU: a multiply and a
  /// compare and select, with no FMA, so every level writes the same bits
  /// (NaN, -0 and denormals included).
  void (*LeakyReluRange)(float Slope, const float *X, float *Out,
                         int64_t N) = nullptr;
};

/// Best level both this build and this host support (CPUID-probed once;
/// ignores the GRANII_ISA override).
IsaLevel detectedIsaLevel();

/// The level the kernels currently run at: detectedIsaLevel() clamped by
/// GRANII_ISA (with a warning Diag on stderr when the request is
/// unrecognized or above what the host supports) or by setIsaLevel().
IsaLevel activeIsaLevel();

/// Forces \p Level for subsequent kernel calls (differential tests, the
/// per-ISA bench sweep). \returns false — leaving the active level
/// unchanged — when the level is unavailable on this build/host.
bool setIsaLevel(IsaLevel Level);

/// All levels usable here, in increasing order; always starts with Scalar.
std::vector<IsaLevel> supportedIsaLevels();

/// The active kernel table.
const SimdOps &simdOps();

/// Table for a specific level; null when the level is unavailable.
const SimdOps *simdOpsFor(IsaLevel Level);

namespace detail {
/// Per-TU table registrations (KernelsScalar/Avx2/Avx512.cpp). The AVX
/// getters return null when the build lacks the target support.
const SimdOps &scalarSimdOps();
const SimdOps *avx2SimdOps();
const SimdOps *avx512SimdOps();
} // namespace detail

} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_DISPATCH_H
