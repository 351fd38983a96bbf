//===- BenchCommon.h - Shared experiment harness infrastructure -*- C++ -*-===//
///
/// \file
/// Common machinery for the paper-reproduction harnesses in bench/: the
/// three platforms with their trained cost models (CPU models are trained
/// on measured kernel times and cached on disk), the Table II evaluation
/// suite, the embedding-size grid, and the (baseline, GRANII) cell runner
/// that produces one speedup data point.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_BENCH_BENCHCOMMON_H
#define GRANII_BENCH_BENCHCOMMON_H

#include "cost/Trainer.h"
#include "granii/Granii.h"
#include "models/Baselines.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace granii {
namespace bench {

/// Lazily-initialized shared state for all harnesses.
class BenchContext {
public:
  static BenchContext &get();

  /// Platforms in Table III order: h100, a100, cpu.
  const std::vector<HardwareModel> &platforms() const { return Platforms; }
  HardwareModel platform(const std::string &Name) const;

  /// Pins the kernel thread pool to \p NumThreads (<= 0 restores the
  /// GRANII_NUM_THREADS / hardware default). Harness mains call this before
  /// any measurement; measured cost-model caches are stamped with the
  /// thread count, so profiles taken at different counts never mix.
  void setThreads(int NumThreads);

  /// The trained per-primitive cost model for \p Hw. Cached on disk under
  /// costModelCacheDir() (GRANII_CACHE_DIR, default ./.granii-cache) as
  /// granii_costmodel_<hw>.cache for simulated platforms and
  /// granii_costmodel_<hw>_t<threads>_<isa>_into_med5.cache for measured
  /// ones (the first CPU run profiles kernels).
  const CostModel &costFor(const std::string &Hw);

  /// The six Table II stand-ins (RD, CA, MC, BL, AU, OP).
  const std::vector<Graph> &evalGraphs();
  const std::vector<std::string> &evalCodes() const { return Codes; }

  /// A GRANII optimizer for (model, hardware), constructed once.
  Optimizer &optimizer(ModelKind Kind, const std::string &Hw, int Hops = 2);

  /// Iteration count all experiments amortize over (paper: 100).
  int iterations() const { return 100; }

private:
  BenchContext();

  std::vector<HardwareModel> Platforms;
  std::vector<std::string> Codes;
  std::vector<Graph> Graphs;
  bool GraphsBuilt = false;
  std::map<std::string, std::unique_ptr<LearnedCostModel>> CostModels;
  std::map<std::string, std::unique_ptr<Optimizer>> Optimizers;
};

/// Embedding (K_in, K_out) grid. GAT uses only increasing combinations
/// (paper §VI-B: the only scenario where the decision is non-trivial).
std::vector<std::pair<int64_t, int64_t>> embeddingCombos(ModelKind Kind);

/// One experiment cell: one (system, model, hardware, graph, sizes, mode).
struct CellResult {
  double BaselineSeconds = 0.0; ///< framework default, Iterations iters
  double GraniiSeconds = 0.0;   ///< GRANII choice incl. online overheads
  double Speedup = 0.0;
  size_t PlanIndex = 0;
  Selection Sel;
  /// Cold-cache bytes moved by one forward pass of the selected plan
  /// (analytic, from the primitive descriptors).
  double GraniiBytes = 0.0;
};

/// Executes \p Plan (forward, or forward + backward when \p Training) on
/// a fresh workspace and returns the run to charge. On measured platforms a
/// first, untimed run plans the arena and takes the page faults, and the
/// warm second run is returned: plan timings stand for one iteration of an
/// amortized loop (paper: 100 iterations), and the executor itself times
/// every step once. Simulated platforms charge analytic estimates and run
/// once, so their numbers equal a by-value run's exactly.
ExecResult warmRun(const Executor &Exec, const CompositionPlan &Plan,
                   const LayerParams &Params, bool Training = false);

/// Runs one cell end to end (executes both plans through warmRun;
/// 100-iteration totals follow the setup/per-iteration accounting).
CellResult runCell(BenchContext &Ctx, BaselineSystem Sys, ModelKind Kind,
                   const std::string &Hw, const Graph &G, int64_t KIn,
                   int64_t KOut, bool Training);

/// Geomean over cell speedups.
double geomeanSpeedup(const std::vector<CellResult> &Cells);

/// "1.24x"-style formatting.
std::string formatSpeedup(double Value);

/// Consumes a "--<name>=<value>" / "--<name> <value>" argument from \p argv
/// (compacting it like micro_kernels' --threads handling). Returns the
/// value, or an empty string when the flag is absent.
std::string consumeValueFlag(int &argc, char **argv, const std::string &Name);

/// Consumes a boolean "--<name>" flag from \p argv; returns its presence.
bool consumeBoolFlag(int &argc, char **argv, const std::string &Name);

/// One machine-readable measurement in a granii-bench-v1 report. Seconds
/// statistics are over \p Repetitions samples of the same benchmark.
struct BenchRecord {
  std::string Id;      ///< stable id, e.g. "table3/DGL/h100/I/GCN/RD/32x32"
  std::string Graph;   ///< graph name, or "-" when not graph-bound
  int64_t KIn = 0;
  int64_t KOut = 0;
  int Threads = 0;     ///< kernel pool size at measurement time
  /// SIMD dispatch level the measurement ran at ("scalar", "avx2",
  /// "avx512"). Stamped by makeRecord from the kernel library's active
  /// level; granii-bench-diff uses it to skip (rather than flag) baseline
  /// records whose level the comparing host cannot execute.
  std::string Isa;
  int Repetitions = 0;
  double MedianSeconds = 0.0;
  double P10Seconds = 0.0;
  double P90Seconds = 0.0;
  double Bytes = 0.0;  ///< analytic bytes moved per measured unit (0 = n/a)
};

/// Accumulates BenchRecords and serializes them as granii-bench-v1 JSON
/// (see docs/OBSERVABILITY.md for the schema). The report header carries
/// the git SHA, the thread count shared by all records and the SIMD levels
/// ("isa_levels") the producing host can execute.
class BenchReport {
public:
  /// Builds one record from repeated seconds samples; median/p10/p90 are
  /// computed here, Threads is stamped from the current pool size.
  static BenchRecord makeRecord(std::string Id, std::string Graph,
                                int64_t KIn, int64_t KOut,
                                const std::vector<double> &SecondsSamples,
                                double Bytes);

  void add(BenchRecord Record) { Records.push_back(std::move(Record)); }
  bool empty() const { return Records.empty(); }

  std::string toJson() const;
  bool write(const std::string &Path, std::string *ErrorOut = nullptr) const;

private:
  std::vector<BenchRecord> Records;
};

/// The build SHA stamped into reports: $GRANII_GIT_SHA when set (CI sets it
/// to $GITHUB_SHA), else `git rev-parse HEAD` when available, else
/// "unknown".
std::string benchGitSha();

} // namespace bench
} // namespace granii

#endif // GRANII_BENCH_BENCHCOMMON_H
