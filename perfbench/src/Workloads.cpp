//===- Workloads.cpp - Timed end-to-end workloads --------------------------===//

#include "Workloads.h"

#include "Common.h"
#include "Inputs.h"
#include "Reference.h"

#include "graph/GraphSpec.h"
#include "kernels/Dispatch.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include <malloc.h>

namespace perfbench {

using namespace granii;

namespace {

/// Flags shared by the two warm workloads. run.py owns the loop constants
/// (--requests, --max-seconds); they have no defaults here.
struct WarmConfig {
  std::string GraphDir;
  LoadedModel Model;
  int64_t KIn = 0;
  int64_t KOut = 0;
  uint64_t ParamSeed = 1;
  size_t Requests = 0;
  double MaxSeconds = 0.0;
  uint64_t CheckSeed = 1;
  bool SetupOnly = false;
  bool InjectFault = false;

  explicit WarmConfig(const Flags &Args)
      : GraphDir(Args.str("graph-dir")), Model(loadModelFile(Args.str("model"))),
        KIn(Args.integer("kin")), KOut(Args.integer("kout")),
        ParamSeed(static_cast<uint64_t>(Args.integer("param-seed"))),
        Requests(static_cast<size_t>(Args.integer("requests"))),
        MaxSeconds(Args.real("max-seconds")),
        CheckSeed(static_cast<uint64_t>(Args.integer("check-seed", 1))),
        SetupOnly(Args.has("setup-only")),
        InjectFault(Args.has("inject-fault")) {}

  std::string mtxPath() const { return GraphDir + "/graph.mtx"; }

  /// Closed loop: a fixed number of timed requests. The cap only stops a
  /// run that would otherwise overrun the benchmark's time limit.
  bool keepGoing(double Elapsed, size_t Done) const {
    return Done < Requests && Elapsed < MaxSeconds;
  }
};

/// Counters every workload reports.
struct Tally {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  void record(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
};

/// The reference check of one output matrix, plus its byte fingerprint.
struct OutputCheck {
  CheckResult Result;
  uint64_t Hash = 0;
};

JsonObject checkJson(const OutputCheck &Before, const OutputCheck &After,
                     bool RepeatIdentical) {
  JsonObject Out;
  Out.integer("rows_checked",
              Before.Result.RowsChecked + After.Result.RowsChecked);
  Out.integer("rows_wrong", Before.Result.RowsWrong + After.Result.RowsWrong);
  Out.num("max_error", std::max(Before.Result.MaxError, After.Result.MaxError));
  Out.boolean("repeat_identical", RepeatIdentical);
  return Out;
}

/// Checks one warm output against the reference. \p Current, when given,
/// supplies the weights and attention vectors (the training loop's, after
/// its SGD steps); the features always come from a fresh seeded draw. The
/// check's adjacency and parameters live only inside this call, so none of
/// them is resident while the timed loop runs.
CheckResult checkWarmOutput(const WarmConfig &Cfg, const float *Output,
                            int64_t Rows, int64_t Cols,
                            const LayerParams *Current, bool Inject) {
  Adjacency Adj = readAdjacency(Cfg.GraphDir + "/adj.bin");
  LayerParams Ref = seededParams(Cfg.Model.Model, Adj.Nodes, Cfg.KIn,
                                 Cfg.KOut, Cfg.ParamSeed);
  if (Current) {
    Ref.Weights = Current->Weights;
    Ref.AttnVecs = Current->AttnVecs;
  }
  return checkOutput(Cfg.Model.Model, Adj, Ref, Output, Rows, Cols,
                     sampleRows(Adj, CheckedRows, Cfg.CheckSeed), Inject);
}

/// Returns the freed check buffers to the kernel, then restarts the peak-RSS
/// watermark so the timed part's peak is not set by the benchmark's check.
bool restartPeakRss() {
  malloc_trim(0);
  return resetPeakRss();
}

/// Prints \p Result as the last stdout line, stamped with the active ISA
/// for the host record.
void printResult(JsonObject Result) {
  Result.str("isa", kernels::isaLevelName(kernels::activeIsaLevel()));
  std::printf("%s\n", Result.text().c_str());
  std::fflush(stdout);
}

/// A --setup-only run stops after its first response and reports only the
/// set-up time; run.py starts one such process per extra set-up.
int printSetupOnly(double SetupSeconds) {
  printResult(JsonObject().num("setup_s", SetupSeconds));
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// gcn-infer-warm
//===----------------------------------------------------------------------===//

int runServeWarm(const Flags &Args) {
  WarmConfig Cfg(Args);
  serve::JobRequest Req;
  Req.ModelText = Cfg.Model.Text;
  Req.GraphSpec = Cfg.mtxPath();
  Req.KIn = Cfg.KIn;
  Req.KOut = Cfg.KOut;
  Req.Seed = Cfg.ParamSeed;
  Req.Format = "csr";
  Req.Reorder = "none";

  serve::ServerOptions Options;
  // Relative socket path: the process runs inside its own work directory,
  // which keeps the path far below the sockaddr_un limit.
  Options.SocketPath = "perfbench.sock";
  Options.ConnWorkers = 1;
  Options.Engine.DiskSpill = false;

  Tally Count;
  std::string Err;
  double SetupStart = nowSeconds();
  serve::Server Daemon(Options);
  serve::Client Conn;
  if (!Daemon.start(&Err) || !Conn.connect(Options.SocketPath, &Err))
    die("cannot start the daemon: " + Err);
  serve::RunResponse First;
  if (!Conn.run(Req, First, &Err) || !First.Status.Ok)
    die("first request failed: " + Err + First.Status.Error);
  Count.record(true);
  double SetupSeconds = nowSeconds() - SetupStart;
  int64_t SetupPeakKb = peakRssKb();
  auto StopDaemon = [&] {
    Conn.close();
    Daemon.requestStop();
    Daemon.wait();
  };
  if (Cfg.SetupOnly) {
    StopDaemon();
    return printSetupOnly(SetupSeconds);
  }

  // Returns the check; a transport or status failure leaves RowsChecked 0,
  // which CheckResult::ok() rejects.
  auto FetchAndCheck = [&](bool Inject) {
    OutputCheck Check;
    serve::JobRequest Fetch = Req;
    Fetch.WantOutput = true;
    serve::RunResponse Resp;
    if (Conn.run(Fetch, Resp, &Err) && Resp.Status.Ok) {
      Check.Result = checkWarmOutput(Cfg, Resp.Output.data(), Resp.Rows,
                                     Resp.Cols, nullptr, Inject);
      Check.Hash = hashBytes(Resp.Output.data(),
                             Resp.Output.size() * sizeof(float));
    }
    return Check;
  };
  OutputCheck Before = FetchAndCheck(false);
  Count.record(Before.Result.ok());
  bool PeakReset = restartPeakRss();

  std::vector<double> Samples, Stolen;
  uint64_t MaxAllocs = 0;
  double Cpu0 = processCpuSeconds();
  double Loop0 = nowSeconds();
  while (Cfg.keepGoing(nowSeconds() - Loop0, Samples.size())) {
    serve::RunResponse Resp;
    double Steal0 = stolenMs();
    double Start = nowSeconds();
    bool Ok = Conn.run(Req, Resp, &Err) && Resp.Status.Ok;
    double Ms = (nowSeconds() - Start) * 1e3;
    Count.record(Ok);
    if (!Ok)
      continue; // a failed request has no latency; it counts in failed
    Samples.push_back(Ms);
    Stolen.push_back(stolenMs() - Steal0);
    MaxAllocs = std::max(MaxAllocs, Resp.SteadyAllocations);
  }
  double CpuSeconds = processCpuSeconds() - Cpu0;
  int64_t LoopPeakKb = peakRssKb();

  // The same request sent twice must return identical bytes.
  OutputCheck After = FetchAndCheck(Cfg.InjectFault);
  bool Repeat = Before.Hash == After.Hash;
  Count.record(After.Result.ok() && Repeat);
  StopDaemon();

  printResult(JsonObject()
                  .str("workload", "gcn-infer-warm")
                  .num("setup_s", SetupSeconds)
                  .nums("samples_ms", Samples)
                  .nums("stolen_ms", Stolen)
                  .num("cpu_s", CpuSeconds)
                  .integer("attempted", Count.Attempted)
                  .integer("failed", Count.Failed)
                  .integer("setup_peak_rss_kb", SetupPeakKb)
                  .integer("loop_peak_rss_kb", LoopPeakKb)
                  .boolean("peak_reset", PeakReset)
                  .integer("steady_allocs", static_cast<int64_t>(MaxAllocs))
                  .object("check", checkJson(Before, After, Repeat)));
  return 0;
}

//===----------------------------------------------------------------------===//
// gat-train-warm
//===----------------------------------------------------------------------===//

namespace {

/// Fingerprint of everything one training step returns.
uint64_t stepHash(const ExecResult &R) {
  auto Mix = [](uint64_t H, const void *Data, size_t Size) {
    return H * 0x9e3779b97f4a7c15ULL ^ hashBytes(Data, Size);
  };
  uint64_t H = Mix(0, R.Output.data(), R.Output.size() * sizeof(float));
  for (const auto &[Name, G] : R.WeightGrads)
    H = Mix(H, G.data(), G.size() * sizeof(float));
  for (const auto &[Name, G] : R.AttnGrads)
    H = Mix(H, G.data(), G.size() * sizeof(float));
  return Mix(H, R.FeatureGrad.data(), R.FeatureGrad.size() * sizeof(float));
}

/// Plain SGD on every weight matrix and attention vector. The loss is the
/// sum of the outputs, whose gradients reach ~2e3 on these graphs; the rate
/// moves a weight by ~1e-4 per step, so the loop stays far from overflow.
void sgdStep(LayerParams &Params, const ExecResult &R) {
  constexpr float Rate = 1e-7f;
  for (auto &[Name, W] : Params.Weights) {
    const DenseMatrix &G = R.WeightGrads.at(Name);
    float *Dst = W.data();
    const float *Src = G.data();
    for (int64_t I = 0; I < W.size(); ++I)
      Dst[I] -= Rate * Src[I];
  }
  for (auto &[Name, V] : Params.AttnVecs) {
    const std::vector<float> &G = R.AttnGrads.at(Name);
    for (size_t I = 0; I < V.size(); ++I)
      V[I] -= Rate * G[I];
  }
}

bool allFinite(const DenseMatrix &M) {
  const float *Data = M.data();
  for (int64_t I = 0; I < M.size(); ++I)
    if (!std::isfinite(Data[I]))
      return false;
  return true;
}

} // namespace

int runTrainWarm(const Flags &Args) {
  WarmConfig Cfg(Args);
  AnalyticCostModel Cost(HardwareModel::byName("cpu"));
  Tally Count;
  double SetupStart = nowSeconds();
  std::string Err;
  std::optional<Graph> G = loadGraphSpec(Cfg.mtxPath(), &Err);
  if (!G)
    die("cannot load " + Cfg.mtxPath() + ": " + Err);
  Optimizer Opt(Cfg.Model.Model, OptimizerOptions(), &Cost);
  LayerParams Params =
      makeLayerParams(Cfg.Model.Model, *G, Cfg.KIn, Cfg.KOut, Cfg.ParamSeed);
  Selection Sel = Opt.select(*G, Cfg.KIn, Cfg.KOut);
  ExecResult First = Opt.execute(Sel, Params, /*Training=*/true);
  Count.record(true);
  double SetupSeconds = nowSeconds() - SetupStart;
  int64_t SetupPeakKb = peakRssKb();
  G.reset(); // the loop runs on the selection and parameters alone
  if (Cfg.SetupOnly)
    return printSetupOnly(SetupSeconds);

  // The check takes features from a fresh seeded draw and the weights the
  // caller currently holds, so a program that wrote into its inputs fails.
  auto Check = [&](const ExecResult &R, bool Inject) {
    OutputCheck C;
    C.Result = checkWarmOutput(Cfg, R.Output.data(), R.Output.rows(),
                               R.Output.cols(), &Params, Inject);
    C.Hash = stepHash(R);
    Count.record(C.Result.ok() && allFinite(R.Output));
    return C;
  };
  OutputCheck Before = Check(First, false);
  // Bitwise repeatability: the same step from the same parameters.
  bool Repeat =
      stepHash(Opt.execute(Sel, Params, /*Training=*/true)) == Before.Hash;
  Count.record(Repeat);
  sgdStep(Params, First);
  First = ExecResult();
  bool PeakReset = restartPeakRss();

  std::vector<double> Samples, Stolen;
  double Cpu0 = processCpuSeconds();
  double Loop0 = nowSeconds();
  while (Cfg.keepGoing(nowSeconds() - Loop0, Samples.size())) {
    double Steal0 = stolenMs();
    double Start = nowSeconds();
    ExecResult R = Opt.execute(Sel, Params, /*Training=*/true);
    sgdStep(Params, R);
    Samples.push_back((nowSeconds() - Start) * 1e3);
    Stolen.push_back(stolenMs() - Steal0);
    Count.record(true);
  }
  double CpuSeconds = processCpuSeconds() - Cpu0;
  int64_t LoopPeakKb = peakRssKb();

  ExecResult Last = Opt.execute(Sel, Params, /*Training=*/true);
  OutputCheck After = Check(Last, Cfg.InjectFault);
  printResult(JsonObject()
                  .str("workload", "gat-train-warm")
                  .num("setup_s", SetupSeconds)
                  .nums("samples_ms", Samples)
                  .nums("stolen_ms", Stolen)
                  .num("cpu_s", CpuSeconds)
                  .integer("attempted", Count.Attempted)
                  .integer("failed", Count.Failed)
                  .integer("setup_peak_rss_kb", SetupPeakKb)
                  .integer("loop_peak_rss_kb", LoopPeakKb)
                  .boolean("peak_reset", PeakReset)
                  .object("check", checkJson(Before, After, Repeat)));
  return 0;
}

//===----------------------------------------------------------------------===//
// oneshot-cold output check
//===----------------------------------------------------------------------===//

namespace {

/// Reads a granii-cli --out file: "GRNO", i64 rows, i64 cols, u64 count,
/// little-endian floats.
bool readCliOutput(const std::string &Path, int64_t &Rows, int64_t &Cols,
                   std::vector<float> &Values) {
  std::ifstream In(Path, std::ios::binary);
  uint32_t Magic = 0;
  uint64_t Count = 0;
  In.read(reinterpret_cast<char *>(&Magic), sizeof(Magic));
  In.read(reinterpret_cast<char *>(&Rows), sizeof(Rows));
  In.read(reinterpret_cast<char *>(&Cols), sizeof(Cols));
  In.read(reinterpret_cast<char *>(&Count), sizeof(Count));
  if (!In || Magic != 0x4f4e5247u || Rows < 0 || Cols < 0 ||
      Count != static_cast<uint64_t>(Rows) * static_cast<uint64_t>(Cols) ||
      Count > (uint64_t{1} << 32))
    return false;
  Values.resize(Count);
  In.read(reinterpret_cast<char *>(Values.data()),
          static_cast<std::streamsize>(Count * sizeof(float)));
  return static_cast<bool>(In);
}

} // namespace

int runCheck(const Flags &Args) {
  std::ifstream Manifest(Args.str("manifest"));
  if (!Manifest)
    die("cannot read manifest " + Args.str("manifest"));
  auto CheckSeed = static_cast<uint64_t>(Args.integer("check-seed", 1));
  bool Inject = Args.has("inject-fault");
  std::map<std::string, Adjacency> Graphs;
  int64_t Checked = 0;
  std::vector<double> FailedLines;
  double MaxError = 0.0;
  std::string Line;
  // One line per output: <model> <graph dir> <kin> <kout> <seed> <file>;
  // failed_lines lists the 0-based lines whose output is wrong.
  while (std::getline(Manifest, Line)) {
    std::istringstream Fields(Line);
    std::string ModelPath, GraphDir, OutPath;
    int64_t KIn = 0, KOut = 0;
    uint64_t Seed = 0;
    if (!(Fields >> ModelPath >> GraphDir >> KIn >> KOut >> Seed >> OutPath))
      continue;
    auto It = Graphs.find(GraphDir);
    if (It == Graphs.end())
      It = Graphs.emplace(GraphDir, readAdjacency(GraphDir + "/adj.bin"))
               .first;
    const Adjacency &Adj = It->second;
    LoadedModel M = loadModelFile(ModelPath);
    int64_t Rows = 0, Cols = 0;
    std::vector<float> Values;
    CheckResult R;
    if (readCliOutput(OutPath, Rows, Cols, Values))
      R = checkOutput(M.Model, Adj,
                      seededParams(M.Model, Adj.Nodes, KIn, KOut, Seed),
                      Values.data(), Rows, Cols,
                      sampleRows(Adj, CheckedRows, CheckSeed), Inject);
    if (!R.ok())
      FailedLines.push_back(static_cast<double>(Checked));
    ++Checked;
    MaxError = std::max(MaxError, R.MaxError);
    if (!R.ok())
      std::fprintf(stderr, "perfbench: output check failed: %s\n",
                   Line.c_str());
  }
  printResult(JsonObject()
                  .integer("checked", Checked)
                  .integer("failed", static_cast<int64_t>(FailedLines.size()))
                  .nums("failed_lines", FailedLines)
                  .num("max_error", MaxError));
  return 0;
}

int runGenerate(const Flags &Args) {
  Adjacency Adj =
      generateGraph(Args.str("kind"), Args.integer("nodes"),
                    Args.integer("edges"),
                    static_cast<uint64_t>(Args.integer("seed")));
  std::string Dir = Args.str("out");
  writeGraphFiles(Adj, Dir + "/graph.mtx", Dir + "/adj.bin");
  int64_t MaxDegree = 0;
  for (int64_t R = 0; R < Adj.Nodes; ++R)
    MaxDegree = std::max(MaxDegree, Adj.degree(R));
  printResult(JsonObject()
                  .integer("nodes", Adj.Nodes)
                  .integer("directed_edges",
                           static_cast<int64_t>(Adj.Cols.size()))
                  .integer("max_degree", MaxDegree));
  return 0;
}

} // namespace perfbench
