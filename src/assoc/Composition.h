//===- Composition.h - Primitive composition plans --------------*- C++ -*-===//
///
/// \file
/// A CompositionPlan is the materialized form of one association tree
/// (paper §IV-C): a straight-line program of sparse/dense primitive steps
/// over numbered values, ending in the layer output. Association-tree
/// edges correspond 1:1 to steps; internal tree nodes correspond to step
/// results. Plans carry the offline pruning annotations (the `<` / `>`
/// embedding-size scenarios in which they can win) and support symbolic
/// cost evaluation under a concrete dimension binding.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_ASSOC_COMPOSITION_H
#define GRANII_ASSOC_COMPOSITION_H

#include "ir/Dims.h"
#include "ir/MatrixIR.h"
#include "kernels/Primitive.h"

#include <optional>
#include <string>
#include <vector>

namespace granii {

/// Runtime type of a program value.
enum class PlanValueKind {
  Dense,   ///< DenseMatrix
  Sparse,  ///< CsrMatrix (weighted or unweighted)
  Diag,    ///< length-N vector interpreted as a diagonal matrix
  NodeVec  ///< length-N dense vector (attention scores)
};

/// Definition of one program value.
struct PlanValue {
  PlanValueKind Kind = PlanValueKind::Dense;
  SymShape Shape;
  bool SparseWeighted = false; ///< meaningful when Kind == Sparse
  std::string DebugName;
  /// Set when the value is a program input bound by the executor.
  std::optional<LeafRole> InputRole;
  /// True when the value depends only on the graph (not on H/W): its
  /// producing steps can be hoisted out of the iteration loop.
  bool GraphOnly = false;
};

/// Executable operation of one step. Finer-grained than PrimitiveKind
/// because execution needs to know variants (which side a diagonal scales,
/// which elementwise function to apply); primitiveKindOf() maps each op to
/// its cost-model primitive.
enum class StepOp {
  Gemm,           ///< dense = dense * dense
  SpmmWeighted,   ///< dense = sparse_w * dense
  SpmmUnweighted, ///< dense = sparse_u * dense
  SddmmScaleRow,  ///< sparse_w = diag * sparse
  SddmmScaleCol,  ///< sparse_w = sparse * diag
  SddmmScaleBoth, ///< sparse_w = diag * sparse * diag (fused ternary)
  RowBcast,       ///< dense = diag * dense
  ColBcast,       ///< dense = dense * diag
  DiagDiag,       ///< diag = diag * diag
  AddDense,       ///< dense = dense + dense
  ScaleDense,     ///< dense = scalar * dense
  Relu,           ///< dense = relu(dense)
  DegreeOffsets,  ///< diag = degree(sparse) via CSR offsets
  DegreeBinning,  ///< diag = degree(sparse) via per-edge binning
  InvSqrtVec,     ///< diag = d > 0 ? rsqrt(d) : 0
  InvVec,         ///< diag = d > 0 ? 1/d : 0 (mean aggregation)
  AttnGemv,       ///< nodevec = dense * attn vector
  EdgeLogits,     ///< sparse_w = src[i] + dst[j] on mask
  EdgeLeakyRelu,  ///< sparse_w = leaky_relu(edge values)
  EdgeSoftmax     ///< sparse_w = row softmax(edge values)
};

/// Short stable op name used in plan printing, profiles and traces.
const char *stepOpName(StepOp Op);

/// Name of the backward primitives of \p Op: "bwd:" plus stepOpName.
const char *backwardOpName(StepOp Op);

/// Cost-model primitive corresponding to a step op.
PrimitiveKind primitiveKindOf(StepOp Op);

/// One primitive application.
struct PlanStep {
  StepOp Op = StepOp::Gemm;
  std::vector<int> Operands; ///< value ids
  int Result = -1;           ///< value id defined by this step
  double Param = 0.0;        ///< scalar for ScaleDense / slope for leaky relu
  bool Setup = false;        ///< graph-only: run once, outside the loop
};

/// A full candidate composition.
class CompositionPlan {
public:
  std::vector<PlanValue> Values;
  std::vector<PlanStep> Steps;
  int OutputValue = -1;
  std::string Name; ///< short description, e.g. "plan#3"

  /// Offline pruning annotations: can this plan win when K_in >= K_out
  /// (the paper's `>` scenario) / when K_in < K_out (`<`)?
  bool ViableGe = true;
  bool ViableLt = true;

  /// Structural identity for deduplication: recursive expression string of
  /// the output value (CSE-shared sub-DAGs print identically).
  std::string canonicalKey() const;

  /// Human-readable listing of the program.
  std::string toString() const;

  /// Display name of value \p Id, as toString() prints it: an input's leaf
  /// name, "v<id>" for every computed value.
  std::string valueName(int Id) const;

  /// Concrete primitive descriptors for every step under \p Binding,
  /// parallel to Steps.
  std::vector<PrimitiveDesc> primitiveDescs(const DimBinding &Binding) const;

  /// Total symbolic FLOP cost: setup steps once, per-iteration steps
  /// \p Iterations times. The analytic baseline for pruning and Fig. 3.
  double flopCost(const DimBinding &Binding, int Iterations = 1) const;

  /// Checks internal consistency (operand ids in range, defined before
  /// use, single assignment). Aborts on violation.
  void verify() const;
};

} // namespace granii

#endif // GRANII_ASSOC_COMPOSITION_H
