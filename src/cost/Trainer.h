//===- Trainer.h - Cost-model profiling and training ------------*- C++ -*-===//
///
/// \file
/// The one-time initialization step of GRANII (paper §V "Training
/// Lightweight Cost Models"): profile every primitive kind across a suite
/// of training graphs and embedding widths on the target platform, then
/// fit one GBT regressor per kind on log-seconds. Trained models are cached
/// on disk so subsequent runs skip profiling.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_COST_TRAINER_H
#define GRANII_COST_TRAINER_H

#include "cost/CostModel.h"
#include "graph/Graph.h"

#include <map>
#include <vector>

namespace granii {

/// One profiled primitive execution.
struct ProfileSample {
  PrimitiveKind Kind = PrimitiveKind::Gemm;
  FeatureVector Features{};
  double Seconds = 0.0;
};

/// Per-kind fit quality, on log-seconds.
struct TrainReport {
  std::map<PrimitiveKind, double> TrainRmse;
  std::map<PrimitiveKind, double> ValidRmse;
  size_t SampleCount = 0;
};

/// Default embedding widths used for profiling.
std::vector<int64_t> defaultProfileWidths();

/// Runs every primitive on every (graph, width) combination on \p Hw and
/// records (features, seconds). On measured platforms each sample is the
/// median of five timed calls after one warm-up call, and samples whose
/// FLOP count exceeds \p MaxFlops are skipped to bound profiling time.
std::vector<ProfileSample>
collectProfileData(const HardwareModel &Hw, const std::vector<Graph> &Graphs,
                   const std::vector<int64_t> &Widths = defaultProfileWidths(),
                   double MaxFlops = 4e8);

/// Fits per-primitive GBTs on \p Samples (target: log seconds) with an
/// 80/20 train/validation split.
LearnedCostModel trainCostModel(const HardwareModel &Hw,
                                const std::vector<ProfileSample> &Samples,
                                const GbtParams &Params = GbtParams(),
                                TrainReport *Report = nullptr);

/// Directory cost-model caches are written under: $GRANII_CACHE_DIR when
/// set, ./.granii-cache otherwise. The directory is created on first call;
/// the returned path has no trailing separator. Keeping caches out of the
/// repository root stops profiling artifacts from littering source trees.
std::string costModelCacheDir();

/// Loads the cached model at \p CachePath, or profiles \p Graphs, trains,
/// and writes the cache. The convenience entry point used by examples and
/// benches.
LearnedCostModel
loadOrTrainCostModel(const std::string &CachePath, const HardwareModel &Hw,
                     const std::vector<Graph> &Graphs,
                     const std::vector<int64_t> &Widths = defaultProfileWidths());

} // namespace granii

#endif // GRANII_COST_TRAINER_H
