//===- SparseFormat.h - Sparse storage format tag ---------------*- C++ -*-===//
///
/// \file
/// The forward sparse layout tag. CSR is the only forward layout: every
/// g-SpMM/g-SDDMM runs kernels::spmmInto / kernels::sddmmInto, and the
/// backward pass walks a CSC view of the same pattern internally. The tag
/// survives only as a parameter of Executor::run/runTraining and as
/// Selection::Format, because the end-to-end benchmark passes it
/// positionally; both go with the next change to the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_SPARSEFORMAT_H
#define GRANII_TENSOR_SPARSEFORMAT_H

#include <cstdint>

namespace granii {

/// Storage format of a forward sparse operand.
enum class SparseFormat : uint8_t {
  Csr, ///< compressed sparse row
};

} // namespace granii

#endif // GRANII_TENSOR_SPARSEFORMAT_H
