//===- Verify.h - Whole-pipeline static verification ------------*- C++ -*-===//
///
/// \file
/// Umbrella entry point of the GRANII verifier: runs every stage's checks
/// over a parsed model and collects a per-stage report. The stages mirror
/// the offline pipeline:
///
///   ir         the parsed matrix IR (VerifyIR.h)
///   rewrite    the output of each rewrite pass, attributed to the pass
///   plan       every enumerated composition plan (VerifyPlan.h)
///   prune      scenario annotations + the survivor-set domination
///              invariant over the promoted plans
///   buffers    a BufferPlan per promoted plan under both embedding-size
///              scenario bindings, inference and training
///   partition  the nnz-balanced CSR row partition over a set of
///              degenerate graph shapes (empty, uniform, hub-skewed)
///
/// This is what `granii-cli verify` runs. Every compile runs the ir,
/// rewrite, plan and prune checks too, aborting at the first failing stage
/// (runOfflineStage, Granii.h), and Optimizer::execute checks the buffer
/// schedule and row partition of each arena it plans.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_VERIFIER_VERIFY_H
#define GRANII_VERIFIER_VERIFY_H

#include "assoc/Enumerate.h"
#include "support/Diag.h"
#include "verify/VerifyBuffers.h"
#include "verify/VerifyPlan.h"

namespace granii {

/// Outcome of one pipeline stage.
struct StageReport {
  std::string Stage;
  size_t Checked = 0; ///< objects inspected (nodes, plans, schedules, ...)
  size_t Errors = 0;  ///< diagnostics of severity Error attributed here
};

/// Aggregate result of verifyPipeline().
struct PipelineReport {
  std::vector<StageReport> Stages;
  DiagEngine Diags;

  bool clean() const { return !Diags.hasErrors(); }

  /// One line per stage ("stage: N checked, M error(s)") followed by the
  /// rendered diagnostics when any exist.
  std::string summary() const;
};

/// Statically checks every pipeline stage for the model IR \p Root.
/// Downstream stages are skipped once a stage reports errors (their inputs
/// would be meaningless). \p Opts controls enumeration exactly as in
/// enumerateCompositions.
PipelineReport verifyPipeline(const IRNodeRef &Root,
                              const EnumOptions &Opts = {});

} // namespace granii

#endif // GRANII_VERIFIER_VERIFY_H
