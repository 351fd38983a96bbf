//===- Verify.cpp - Whole-pipeline static verification ----------------------===//

#include "verify/Verify.h"

#include "assoc/Prune.h"
#include "ir/Rewrite.h"
#include "ir/VerifyIR.h"
#include "runtime/BufferPlan.h"
#include "support/ThreadPool.h"

using namespace granii;

std::string PipelineReport::summary() const {
  std::string Out;
  for (const StageReport &Stage : Stages) {
    Out += Stage.Stage + ": " + std::to_string(Stage.Checked) + " checked, " +
           std::to_string(Stage.Errors) +
           (Stage.Errors == 1 ? " error\n" : " errors\n");
  }
  if (Diags.hasErrors())
    Out += Diags.render();
  return Out;
}

PipelineReport granii::verifyPipeline(const IRNodeRef &Root,
                                      const EnumOptions &Opts) {
  PipelineReport Report;
  DiagEngine &Diags = Report.Diags;

  auto Close = [&](const std::string &Stage, size_t Checked,
                   size_t ErrorsBefore) {
    Report.Stages.push_back(
        {Stage, Checked, Diags.errorCount() - ErrorsBefore});
    return Diags.errorCount() == ErrorsBefore;
  };

  // Stage 1: the parsed IR itself.
  size_t Before = Diags.errorCount();
  verifyIRDiags(Root, Diags, "ir");
  if (!Close("ir", 1, Before))
    return Report;

  // Stage 2: every rewrite pass's output, attributed to the pass.
  Before = Diags.errorCount();
  std::vector<IRNodeRef> Variants =
      runRewritePipeline(Root, /*MaxVariants=*/64, &Diags);
  if (!Close("rewrite", Variants.size(), Before))
    return Report;

  // Stage 3: every enumerated plan. The enumerator re-runs the rewrites,
  // which stage 2 found clean, so its own IR checks cannot abort here.
  std::vector<CompositionPlan> Plans = enumerateCompositions(Root, Opts);
  Before = Diags.errorCount();
  for (const CompositionPlan &Plan : Plans)
    verifyPlanDiags(Plan, Diags, "plan");
  if (!Close("plan", Plans.size(), Before))
    return Report;

  // Stage 4: pruning annotations and the survivor-set invariant.
  std::vector<CompositionPlan> Promoted = pruneCompositions(Plans);
  Before = Diags.errorCount();
  for (const CompositionPlan &Plan : Promoted)
    verifyScenarioAnnotations(Plan, Diags, "prune");
  verifySurvivorSet(Promoted, Diags, "prune");
  if (!Close("prune", Promoted.size(), Before))
    return Report;

  // Stage 5: a buffer schedule per promoted plan under both scenario
  // bindings, inference and training.
  Before = Diags.errorCount();
  size_t Schedules = 0;
  for (const CompositionPlan &Plan : Promoted)
    for (const DimBinding &Binding : {pruneScenarioGe(), pruneScenarioLt()})
      for (bool Training : {false, true}) {
        BufferPlan Buffers(Plan, Binding, Training);
        verifyBufferPlan(Plan, Binding, Buffers, Diags, "buffers");
        ++Schedules;
      }
  if (!Close("buffers", Schedules, Before))
    return Report;

  // Stage 6: the CSR row partition over degenerate graph shapes. The model
  // has no concrete graph at verify time, so representative offset arrays
  // stand in: empty, single-row, uniform, hub-skewed (one row owns almost
  // every edge), and an empty-tail matrix.
  Before = Diags.errorCount();
  const std::vector<std::vector<int64_t>> Shapes = {
      {0},
      {0, 7},
      {0, 4, 8, 12, 16, 20, 24, 28, 32},
      {0, 1000, 1001, 1002, 1003, 1004},
      {0, 16, 16, 16, 16, 16},
  };
  size_t Partitions = 0;
  for (const std::vector<int64_t> &RowOffsets : Shapes)
    for (int64_t Chunks : {1, 2, 3, 8, 64}) {
      verifyRowPartition(RowOffsets,
                         csrRowPartitionBounds(RowOffsets, Chunks), Diags,
                         "partition");
      ++Partitions;
    }
  Close("partition", Partitions, Before);

  return Report;
}
