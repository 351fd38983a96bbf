//===- FormatKernels.h - Per-format g-SpMM / g-SDDMM ------------*- C++ -*-===//
///
/// \file
/// g-SpMM and g-SDDMM over the non-CSR storage formats (ELL, sliced-ELL,
/// hybrid, and CSC-transposed for the backward pass). Edge values are
/// passed separately in CSR edge order (formats store structure only), so
/// one structure conversion serves weighted and unweighted steps alike.
///
/// Determinism contract: every variant visits each output row's neighbors
/// in CSR order and routes the sum-like inner loops through the active
/// SimdOps dispatch table (ELL/SELL rows and the CSC columns call the
/// table's SpmmRowRange directly, CSC through its value index; hybrid
/// composes the table's AxpyRange/AddRange/ScaleRange, whose bodies are the
/// per-neighbor steps of SpmmRowRange).
/// Results are therefore bitwise identical to the CSR kernels at every ISA
/// level and thread count; max/min reductions share the scalar code path
/// exactly like the CSR kernels do.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_FORMATKERNELS_H
#define GRANII_KERNELS_FORMATKERNELS_H

#include "tensor/CscMatrix.h"
#include "tensor/DenseMatrix.h"
#include "tensor/EllMatrix.h"
#include "tensor/HybMatrix.h"
#include "tensor/SellMatrix.h"
#include "tensor/Semiring.h"

#include <span>

namespace granii {
namespace kernels {

/// Dst = A (x) B under \p S. \p Vals carries the edge values in CSR edge
/// order (empty = unweighted); its length must be 0 or A.nnz().
void spmmEllInto(const EllMatrix &A, std::span<const float> Vals,
                 const DenseMatrix &B, const Semiring &S, DenseMatrix &Dst);
void spmmSellInto(const SellMatrix &A, std::span<const float> Vals,
                  const DenseMatrix &B, const Semiring &S, DenseMatrix &Dst);
void spmmHybInto(const HybMatrix &A, std::span<const float> Vals,
                 const DenseMatrix &B, const Semiring &S, DenseMatrix &Dst);

/// Dst = A^T (x) B under \p S — the backward-pass aggregation. Walks the
/// CSC columns directly; \p Vals stays in the *source* CSR edge order and
/// is gathered through the CSC entry map.
void spmmCscTransposedInto(const CscMatrix &A, std::span<const float> Vals,
                           const DenseMatrix &B, const Semiring &S,
                           DenseMatrix &Dst);

/// Per-edge sampled dense-dense products over a format-stored mask.
/// \p Out receives one value per mask nonzero in CSR edge order.
void sddmmEllInto(const EllMatrix &Mask, const DenseMatrix &U,
                  const DenseMatrix &V, const Semiring &S,
                  std::span<float> Out);
void sddmmSellInto(const SellMatrix &Mask, const DenseMatrix &U,
                   const DenseMatrix &V, const Semiring &S,
                   std::span<float> Out);
void sddmmHybInto(const HybMatrix &Mask, const DenseMatrix &U,
                  const DenseMatrix &V, const Semiring &S,
                  std::span<float> Out);

} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_FORMATKERNELS_H
