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

/// Combine stage of the fused sum-reduction g-SpMM path (mirrors
/// CombineOpKind for the cases the fast path handles).
enum class SpmmCombine { Mul, CopyRhs, Add };

/// Contraction rows per window of the SIMD GemmTLhsRowRange (A^T * B, the
/// weight gradient). One window of a 128-wide B is 512 KiB, so A and B
/// stream from L2 while every register block of a row range sweeps them.
constexpr int64_t GemmTLhsWindowRows = 1024;

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

  /// C rows [RowBegin, RowEnd) of C = A * B (+= when \p Accumulate), all
  /// matrices row-major with the given leading dimensions.
  void (*GemmRowRange)(const float *A, int64_t Lda, const float *B,
                       int64_t Ldb, float *C, int64_t Ldc, int64_t K,
                       int64_t N, int64_t RowBegin, int64_t RowEnd,
                       bool Accumulate) = nullptr;

  /// C rows [RowBegin, RowEnd) of C = A^T * B; C has A.cols() rows and \p M
  /// is A.rows() (the contraction length). The SIMD levels contract in
  /// windows of GemmTLhsWindowRows rows, carrying partial sums in C.
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

  /// Fused sum-reduction g-SpMM over CSR rows [RowBegin, RowEnd), each
  /// output row \p N floats wide. \p Vals is null for unweighted matrices;
  /// \p ValIdx, when non-null, maps nonzero K to its value Vals[ValIdx[K]]
  /// (the CSC-transposed backward pass reads CSR-ordered values through
  /// it); \p Mean rescales each row by 1/degree after accumulation.
  void (*SpmmRowRange)(const int64_t *Offsets, const int32_t *Cols,
                       const float *Vals, const int64_t *ValIdx,
                       const float *B, int64_t Ldb, float *Dst, int64_t LdDst,
                       int64_t N, SpmmCombine Combine, bool Mean,
                       int64_t RowBegin, int64_t RowEnd) = nullptr;

  /// Plus-times SDDMM over CSR rows [RowBegin, RowEnd): each edge's
  /// output is the dot product of its endpoints' \p Width-float U and V
  /// rows.
  void (*SddmmDotRowRange)(const int64_t *Offsets, const int32_t *Cols,
                           const float *U, int64_t Ldu, const float *V,
                           int64_t Ldv, float *Out, int64_t Width,
                           int64_t RowBegin, int64_t RowEnd) = nullptr;

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
