//===- BenchCommon.cpp - Shared experiment harness infrastructure -----------===//

#include "BenchCommon.h"

#include "graph/Generators.h"
#include "kernels/Dispatch.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace granii;
using namespace granii::bench;

BenchContext &BenchContext::get() {
  static BenchContext Instance;
  return Instance;
}

BenchContext::BenchContext()
    : Platforms(HardwareModel::paperPlatforms()),
      Codes(evaluationGraphCodes()) {}

HardwareModel BenchContext::platform(const std::string &Name) const {
  return HardwareModel::byName(Name);
}

void BenchContext::setThreads(int NumThreads) {
  ThreadPool::get().setNumThreads(NumThreads);
}

const CostModel &BenchContext::costFor(const std::string &Hw) {
  HardwareModel Model = platform(Hw);
  // Caches live under GRANII_CACHE_DIR (default ./.granii-cache), not the
  // working directory, so repeated runs never litter the source tree.
  std::string Cache =
      costModelCacheDir() + "/granii_costmodel_" + Hw + ".cache";
  // Measured profiles change with the thread count and with the SIMD
  // dispatch level; key the cache (and the in-memory model) on both so a
  // GRANII_ISA override never reuses a profile measured at another level.
  // The "_into_med5" tag names the profiling protocol (each sample is the
  // median of five Into calls into a preallocated destination), so a cache
  // profiled under another protocol is never reused.
  if (Model.kind() == PlatformKind::Measured)
    Cache = costModelCacheDir() + "/granii_costmodel_" + Hw + "_t" +
            std::to_string(ThreadPool::get().numThreads()) + "_" +
            Model.params().Isa + "_into_med5.cache";
  auto It = CostModels.find(Cache);
  if (It != CostModels.end())
    return *It->second;
  if (Model.kind() == PlatformKind::Measured &&
      !std::ifstream(Cache).good())
    std::fprintf(stderr,
                 "[bench] training %s cost models (cached in %s; the first "
                 "run profiles kernels and takes a few minutes)...\n",
                 Hw.c_str(), Cache.c_str());
  auto Trained = std::make_unique<LearnedCostModel>(
      loadOrTrainCostModel(Cache, Model, makeTrainingSuite()));
  It = CostModels.emplace(Cache, std::move(Trained)).first;
  return *It->second;
}

const std::vector<Graph> &BenchContext::evalGraphs() {
  if (!GraphsBuilt) {
    Graphs = makeEvaluationSuite();
    GraphsBuilt = true;
  }
  return Graphs;
}

Optimizer &BenchContext::optimizer(ModelKind Kind, const std::string &Hw,
                                   int Hops) {
  std::string Key = modelName(Kind) + "/" + Hw + "/" + std::to_string(Hops);
  auto It = Optimizers.find(Key);
  if (It == Optimizers.end()) {
    OptimizerOptions Opts;
    Opts.Hw = platform(Hw);
    Opts.Iterations = iterations();
    auto Opt = std::make_unique<Optimizer>(makeModel(Kind, Hops), Opts,
                                           &costFor(Hw));
    It = Optimizers.emplace(Key, std::move(Opt)).first;
  }
  return *It->second;
}

std::vector<std::pair<int64_t, int64_t>>
granii::bench::embeddingCombos(ModelKind Kind) {
  if (Kind == ModelKind::GAT)
    return {{32, 64}, {32, 128}, {64, 128}};
  return {{32, 32}, {32, 128}, {128, 32}, {128, 128}};
}

ExecResult granii::bench::warmRun(const Executor &Exec,
                                  const CompositionPlan &Plan,
                                  const LayerParams &Params, bool Training) {
  PlanWorkspace Ws;
  ExecResult R;
  const int Runs = Exec.hardware().isSimulated() ? 1 : 2;
  for (int Run = 0; Run < Runs; ++Run) {
    if (Training)
      Exec.runTraining(Plan, Params.inputs(), Params.Stats, Ws, R);
    else
      Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
  }
  return R;
}

CellResult granii::bench::runCell(BenchContext &Ctx, BaselineSystem Sys,
                                  ModelKind Kind, const std::string &Hw,
                                  const Graph &G, int64_t KIn, int64_t KOut,
                                  bool Training) {
  GnnModel Model = makeModel(Kind);
  Executor Exec(Ctx.platform(Hw));
  LayerParams Params = makeLayerParams(Model, G, KIn, KOut, /*Seed=*/5);
  const int Iters = Ctx.iterations();

  auto TotalOf = [&](const CompositionPlan &Plan) {
    return warmRun(Exec, Plan, Params, Training).totalSeconds(Iters, Training);
  };

  CellResult Cell;
  Cell.BaselineSeconds = TotalOf(baselinePlan(Sys, Model, KIn, KOut));

  Optimizer &Opt = Ctx.optimizer(Kind, Hw);
  Cell.Sel = Opt.select(G, KIn, KOut);
  Cell.PlanIndex = Cell.Sel.PlanIndex;
  Cell.GraniiSeconds = TotalOf(Opt.promoted()[Cell.Sel.PlanIndex]) +
                       Cell.Sel.FeaturizeSeconds + Cell.Sel.SelectSeconds;
  Cell.Speedup = Cell.BaselineSeconds / Cell.GraniiSeconds;

  DimBinding Binding;
  Binding.N = Params.AdjSelf.rows();
  Binding.E = Params.AdjSelf.nnz();
  Binding.KIn = KIn;
  Binding.KOut = KOut;
  for (const PrimitiveDesc &D :
       Opt.promoted()[Cell.PlanIndex].primitiveDescs(Binding))
    Cell.GraniiBytes += D.bytes();
  return Cell;
}

double granii::bench::geomeanSpeedup(const std::vector<CellResult> &Cells) {
  std::vector<double> Speedups;
  Speedups.reserve(Cells.size());
  for (const CellResult &Cell : Cells)
    Speedups.push_back(Cell.Speedup);
  return geomeanOf(Speedups);
}

std::string granii::bench::formatSpeedup(double Value) {
  return formatDouble(Value, 2) + "x";
}

std::string granii::bench::consumeValueFlag(int &argc, char **argv,
                                            const std::string &Name) {
  std::string Value;
  std::string Eq = "--" + Name + "=";
  std::string Bare = "--" + Name;
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind(Eq, 0) == 0) {
      Value = Arg.substr(Eq.size());
      continue;
    }
    if (Arg == Bare && I + 1 < argc) {
      Value = argv[++I];
      continue;
    }
    argv[Kept++] = argv[I];
  }
  argc = Kept;
  return Value;
}

bool granii::bench::consumeBoolFlag(int &argc, char **argv,
                                    const std::string &Name) {
  bool Present = false;
  std::string Bare = "--" + Name;
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    if (Bare == argv[I]) {
      Present = true;
      continue;
    }
    argv[Kept++] = argv[I];
  }
  argc = Kept;
  return Present;
}

BenchRecord BenchReport::makeRecord(std::string Id, std::string Graph,
                                    int64_t KIn, int64_t KOut,
                                    const std::vector<double> &SecondsSamples,
                                    double Bytes) {
  BenchRecord R;
  R.Id = std::move(Id);
  R.Graph = std::move(Graph);
  R.KIn = KIn;
  R.KOut = KOut;
  R.Threads = ThreadPool::get().numThreads();
  R.Isa = kernels::isaLevelName(kernels::activeIsaLevel());
  R.Repetitions = static_cast<int>(SecondsSamples.size());
  R.MedianSeconds = medianOf(SecondsSamples);
  R.P10Seconds = quantileOf(SecondsSamples, 0.1);
  R.P90Seconds = quantileOf(SecondsSamples, 0.9);
  R.Bytes = Bytes;
  return R;
}

namespace {

std::string jsonNumber(double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.9g", Value);
  return Buffer;
}

} // namespace

std::string BenchReport::toJson() const {
  std::string Json = "{\n";
  Json += "  \"schema\": \"granii-bench-v1\",\n";
  Json += "  \"git_sha\": \"" + jsonEscape(benchGitSha()) + "\",\n";
  Json += "  \"threads\": " +
          std::to_string(ThreadPool::get().numThreads()) + ",\n";
  Json += "  \"isa_levels\": [";
  std::vector<kernels::IsaLevel> Levels = kernels::supportedIsaLevels();
  for (size_t I = 0; I < Levels.size(); ++I)
    Json += std::string(I == 0 ? "" : ", ") + "\"" +
            kernels::isaLevelName(Levels[I]) + "\"";
  Json += "],\n";
  Json += "  \"benchmarks\": [";
  for (size_t I = 0; I < Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    Json += I == 0 ? "\n" : ",\n";
    Json += "    {\"id\": \"" + jsonEscape(R.Id) + "\", ";
    Json += "\"graph\": \"" + jsonEscape(R.Graph) + "\", ";
    Json += "\"kin\": " + std::to_string(R.KIn) + ", ";
    Json += "\"kout\": " + std::to_string(R.KOut) + ", ";
    Json += "\"threads\": " + std::to_string(R.Threads) + ", ";
    if (!R.Isa.empty())
      Json += "\"isa\": \"" + jsonEscape(R.Isa) + "\", ";
    Json += "\"repetitions\": " + std::to_string(R.Repetitions) + ", ";
    Json += "\"median_seconds\": " + jsonNumber(R.MedianSeconds) + ", ";
    Json += "\"p10_seconds\": " + jsonNumber(R.P10Seconds) + ", ";
    Json += "\"p90_seconds\": " + jsonNumber(R.P90Seconds) + ", ";
    Json += "\"bytes\": " + jsonNumber(R.Bytes) + "}";
  }
  Json += Records.empty() ? "]\n" : "\n  ]\n";
  Json += "}\n";
  return Json;
}

bool BenchReport::write(const std::string &Path,
                        std::string *ErrorOut) const {
  std::ofstream Out(Path);
  if (!Out) {
    if (ErrorOut)
      *ErrorOut = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << toJson();
  if (!Out) {
    if (ErrorOut)
      *ErrorOut = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

std::string granii::bench::benchGitSha() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup
  if (const char *Sha = std::getenv("GRANII_GIT_SHA"))
    if (*Sha)
      return Sha;
#if !defined(_WIN32)
  if (FILE *Pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char Buffer[128] = {0};
    size_t Read = std::fread(Buffer, 1, sizeof(Buffer) - 1, Pipe);
    int Status = ::pclose(Pipe);
    if (Status == 0 && Read >= 40)
      return std::string(Buffer, 40);
  }
#endif
  return "unknown";
}
