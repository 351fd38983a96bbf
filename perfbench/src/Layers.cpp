//===- Layers.cpp - Traced per-layer run -----------------------------------===//

#include "Layers.h"

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
#include <sstream>

namespace perfbench {

using namespace granii;

namespace {

double medianOf(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid] : 0.5 * (Values[Mid - 1] + Values[Mid]);
}

/// In-memory span recorder: name, start, end, parent and request id of
/// every layer call the benchmark makes. Written out once, at the end.
class Tracer {
public:
  /// Runs \p Body inside a span named "<layer>.<call>" and returns its
  /// milliseconds.
  template <typename Fn> double time(const std::string &Name, Fn &&Body) {
    size_t Id = Spans.size();
    Spans.push_back({Name, nowSeconds(), 0.0,
                     Stack.empty() ? -1 : static_cast<int64_t>(Stack.back()),
                     Request});
    Stack.push_back(Id);
    Body();
    Stack.pop_back();
    Spans[Id].End = nowSeconds();
    return (Spans[Id].End - Spans[Id].Start) * 1e3;
  }

  void setRequest(int64_t Id) { Request = Id; }

  /// The tracer's own cost against untraced calls: recording time of all
  /// spans (measured per span on empty bodies) over the traced wall time.
  double overheadPct() const {
    constexpr int Probes = 20000;
    Tracer Scratch;
    double Start = nowSeconds();
    for (int I = 0; I < Probes; ++I)
      Scratch.time("probe.empty", [] {});
    double PerSpan = (nowSeconds() - Start) / Probes;
    double Wall = 0.0;
    for (const Span &S : Spans)
      Wall += S.Parent < 0 ? S.End - S.Start : 0.0;
    return Wall > 0 ? 100.0 * PerSpan * static_cast<double>(Spans.size()) / Wall
                    : 0.0;
  }

  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the part its direct children cover.
  JsonObject selfTimes() const {
    std::vector<double> ChildMs(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildMs[static_cast<size_t>(S.Parent)] += (S.End - S.Start) * 1e3;
    std::map<std::string, double> ByLayer;
    for (size_t I = 0; I < Spans.size(); ++I)
      ByLayer[Spans[I].Name.substr(0, Spans[I].Name.find('.'))] +=
          (Spans[I].End - Spans[I].Start) * 1e3 - ChildMs[I];
    JsonObject Out;
    for (const auto &[Layer, Ms] : ByLayer)
      Out.num(Layer, Ms);
    return Out;
  }

  /// Chrome trace-event JSON (loadable in Perfetto).
  void write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      die("cannot write " + Path);
    double Origin = Spans.empty() ? 0.0 : Spans.front().Start;
    Out << "{\"traceEvents\": [\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      JsonObject Args;
      Args.integer("request", S.Request).integer("parent", S.Parent);
      JsonObject Event;
      Event.str("name", S.Name)
          .str("cat", S.Name.substr(0, S.Name.find('.')))
          .str("ph", "X")
          .num("ts", (S.Start - Origin) * 1e6)
          .num("dur", (S.End - S.Start) * 1e6)
          .integer("pid", 1)
          .integer("tid", 1)
          .object("args", Args);
      Out << Event.text() << (I + 1 < Spans.size() ? ",\n" : "\n");
    }
    Out << "]}\n";
  }

private:
  struct Span {
    std::string Name;
    double Start = 0.0;
    double End = 0.0;
    int64_t Parent = -1;
    int64_t Request = 0;
  };
  std::vector<Span> Spans;
  std::vector<size_t> Stack;
  int64_t Request = 0;
};

/// One workload input the pipeline runs on.
struct PipelineInput {
  std::string GraphDir;
  LoadedModel Model;
  int64_t KIn = 0;
  int64_t KOut = 0;
  uint64_t Seed = 1;
  bool Training = false;
  int LoadReps = 1;   ///< graph loads (the median is reported)
  int WarmReps = 5;   ///< warm executions
  int KernelReps = 3; ///< step-profiled executions
  int RegretReps = 3; ///< timed executions per promoted candidate
};

/// What one pipeline measured; sums over configurations stay meaningful.
struct LayerSums {
  double LoadMs = 0, SelfLoopsMs = 0, FingerprintMs = 0, CompileMs = 0;
  double ParamsMs = 0, SelectMs = 0, FirstRunMs = 0, ExecuteMs = 0;
  double ChargedMs = 0, Enumerated = 0, Promoted = 0, SteadyAllocs = 0;
  double SpmmMs = 0, GemmMs = 0, EdgeMs = 0, ElementwiseMs = 0;
  double SpmmBytes = 0, LogRegret = 0;

  /// The layer calls a cold one-shot process makes, in order.
  double coldPathMs() const {
    return LoadMs + SelfLoopsMs + FingerprintMs + CompileMs + ParamsMs +
           SelectMs + FirstRunMs;
  }
};

enum class KernelClass { Spmm, Gemm, Edge, Elementwise };

KernelClass kernelClassOf(const std::string &Op) {
  if (Op == "spmm_w" || Op == "spmm_u")
    return KernelClass::Spmm;
  if (Op == "gemm")
    return KernelClass::Gemm;
  if (Op.rfind("scale_", 0) == 0 || Op.rfind("edge_", 0) == 0 ||
      Op == "attn_gemv")
    return KernelClass::Edge;
  return KernelClass::Elementwise;
}

/// Runs the cold path and the warm executions of one input through each
/// layer's public calls, every call in a span. Records one output check in
/// \p Attempted / \p Failed.
LayerSums tracePipeline(Tracer &T, const PipelineInput &In,
                        const Adjacency &Adj, uint64_t CheckSeed,
                        int64_t &Attempted, int64_t &Failed) {
  LayerSums S;
  const GnnModel &Model = In.Model.Model;
  std::string Mtx = In.GraphDir + "/graph.mtx";
  std::optional<Graph> G;
  std::vector<double> Loads;
  for (int Rep = 0; Rep < In.LoadReps; ++Rep) {
    G.reset();
    Loads.push_back(T.time("graph.load", [&] { G = loadGraphSpec(Mtx); }));
  }
  if (!G)
    die("cannot load " + Mtx);
  S.LoadMs = medianOf(Loads);
  S.SelfLoopsMs = T.time("graph.self_loops", [&] {
    Graph WithSelf = G->withSelfLoops();
    if (WithSelf.stats().NumNodes != G->numNodes())
      die("self-loop graph lost nodes");
  });
  S.FingerprintMs = T.time("graph.fingerprint", [&] {
    if (graphFingerprint(*G) == 0)
      die("zero graph fingerprint");
  });

  AnalyticCostModel Cost(HardwareModel::byName("cpu"));
  std::optional<Optimizer> Opt;
  S.CompileMs = T.time("assoc.compile",
                       [&] { Opt.emplace(Model, OptimizerOptions(), &Cost); });
  S.Enumerated = static_cast<double>(Opt->pruneStats().Enumerated);
  S.Promoted = static_cast<double>(Opt->pruneStats().Promoted);
  LayerParams Params;
  S.ParamsMs = T.time("granii.params", [&] {
    Params = makeLayerParams(Model, *G, In.KIn, In.KOut, In.Seed);
  });
  Selection Sel;
  S.SelectMs =
      T.time("granii.select", [&] { Sel = Opt->select(*G, In.KIn, In.KOut); });
  G.reset();

  Executor Exec(HardwareModel::byName("cpu"));
  LayerInputs Inputs = Params.inputs();
  auto RunPlan = [&](const CompositionPlan &Plan, PlanWorkspace &Ws,
                     ExecResult &R) {
    if (In.Training)
      Exec.runTraining(Plan, Inputs, Params.Stats, Ws, R, ReorderPolicy::None,
                       Sel.Format);
    else
      Exec.run(Plan, Inputs, Params.Stats, Ws, R, ReorderPolicy::None,
               Sel.Format);
  };
  const CompositionPlan &Chosen = Opt->promoted()[Sel.PlanIndex];
  PlanWorkspace Ws;
  ExecResult R;
  S.FirstRunMs = T.time("runtime.first_run", [&] { RunPlan(Chosen, Ws, R); });
  {
    CheckResult C = checkOutput(
        Model, Adj, seededParams(Model, Adj.Nodes, In.KIn, In.KOut, In.Seed),
        R.Output.data(), R.Output.rows(), R.Output.cols(),
        sampleRows(Adj, CheckedRows, CheckSeed), false);
    ++Attempted;
    Failed += C.ok() ? 0 : 1;
  }

  // Warm executions on the same workspace: wall time against what the
  // executor charged, and any workspace growth after the first run.
  std::vector<double> Executed, Charged;
  for (int Rep = 0; Rep < In.WarmReps; ++Rep) {
    Ws.resetAllocationCount();
    Executed.push_back(
        T.time("runtime.execute", [&] { RunPlan(Chosen, Ws, R); }));
    Charged.push_back(
        (R.SetupSeconds + R.ForwardSeconds + R.BackwardSeconds) * 1e3);
    S.SteadyAllocs = std::max(S.SteadyAllocs,
                              static_cast<double>(Ws.allocationCount()));
  }
  S.ExecuteMs = medianOf(Executed);
  S.ChargedMs = medianOf(Charged);

  // Kernels: the executor's own step profile (forward steps).
  Exec.setStepProfiling(true);
  std::vector<double> Spmm, Gemm, Edge, Elem, Bytes;
  for (int Rep = 0; Rep < In.KernelReps; ++Rep) {
    T.time("kernels.profiled_run", [&] { RunPlan(Chosen, Ws, R); });
    double Sum[4] = {0, 0, 0, 0};
    double SpmmBytes = 0;
    for (const StepProfile &P : R.StepProfiles) {
      KernelClass K = kernelClassOf(P.Op);
      Sum[static_cast<int>(K)] += P.Seconds * 1e3;
      if (K == KernelClass::Spmm)
        SpmmBytes += P.Bytes;
    }
    Spmm.push_back(Sum[0]);
    Gemm.push_back(Sum[1]);
    Edge.push_back(Sum[2]);
    Elem.push_back(Sum[3]);
    Bytes.push_back(SpmmBytes);
  }
  Exec.setStepProfiling(false);
  S.SpmmMs = medianOf(Spmm);
  S.GemmMs = medianOf(Gemm);
  S.EdgeMs = medianOf(Edge);
  S.ElementwiseMs = medianOf(Elem);
  S.SpmmBytes = medianOf(Bytes);

  // Regret: every promoted candidate, warm, on the same input.
  std::vector<double> CandidateMs;
  for (size_t I = 0; I < Opt->promoted().size(); ++I) {
    const CompositionPlan &Plan = Opt->promoted()[I];
    PlanWorkspace CandWs;
    ExecResult CandR;
    RunPlan(Plan, CandWs, CandR); // warm-up: arena and page faults
    std::vector<double> Reps;
    for (int Rep = 0; Rep < In.RegretReps; ++Rep)
      Reps.push_back(T.time("granii.candidate_run",
                            [&] { RunPlan(Plan, CandWs, CandR); }));
    CandidateMs.push_back(medianOf(Reps));
  }
  double Best = *std::min_element(CandidateMs.begin(), CandidateMs.end());
  S.LogRegret = std::log(CandidateMs[Sel.PlanIndex] / Best);
  return S;
}

/// Adds the per-layer metrics of \p Sums (over \p Count pipelines).
void addLayerMetrics(JsonObject &M, const LayerSums &Sums, double Count) {
  M.num("graph.load_ms", Sums.LoadMs / Count)
      .num("graph.self_loops_ms", Sums.SelfLoopsMs / Count)
      .num("graph.fingerprint_ms", Sums.FingerprintMs / Count)
      .num("assoc.compile_ms", Sums.CompileMs / Count)
      .num("assoc.enumerated", Sums.Enumerated / Count)
      .num("assoc.promoted", Sums.Promoted / Count)
      .num("granii.params_ms", Sums.ParamsMs / Count)
      .num("granii.select_ms", Sums.SelectMs / Count)
      .num("granii.regret", std::exp(Sums.LogRegret / Count))
      .num("runtime.first_run_ms", Sums.FirstRunMs / Count)
      .num("runtime.execute_ms", Sums.ExecuteMs / Count)
      .num("runtime.charged_ms", Sums.ChargedMs / Count)
      .num("runtime.charged_ratio", Sums.ChargedMs / Sums.ExecuteMs)
      .num("runtime.steady_allocs", Sums.SteadyAllocs)
      .num("kernels.spmm_ms", Sums.SpmmMs / Count)
      .num("kernels.gemm_ms", Sums.GemmMs / Count)
      .num("kernels.edge_ms", Sums.EdgeMs / Count)
      .num("kernels.elementwise_ms", Sums.ElementwiseMs / Count)
      .num("kernels.spmm_gbps",
           Sums.SpmmMs > 0 ? Sums.SpmmBytes / (Sums.SpmmMs * 1e-3) / 1e9 : 0.0);
}

void accumulate(LayerSums &Total, const LayerSums &S) {
  Total.LoadMs += S.LoadMs;
  Total.SelfLoopsMs += S.SelfLoopsMs;
  Total.FingerprintMs += S.FingerprintMs;
  Total.CompileMs += S.CompileMs;
  Total.ParamsMs += S.ParamsMs;
  Total.SelectMs += S.SelectMs;
  Total.FirstRunMs += S.FirstRunMs;
  Total.ExecuteMs += S.ExecuteMs;
  Total.ChargedMs += S.ChargedMs;
  Total.Enumerated += S.Enumerated;
  Total.Promoted += S.Promoted;
  Total.SteadyAllocs = std::max(Total.SteadyAllocs, S.SteadyAllocs);
  Total.SpmmMs += S.SpmmMs;
  Total.GemmMs += S.GemmMs;
  Total.EdgeMs += S.EdgeMs;
  Total.ElementwiseMs += S.ElementwiseMs;
  Total.SpmmBytes += S.SpmmBytes;
  Total.LogRegret += S.LogRegret;
}

/// The serve layer of gcn-infer-warm: a daemon request (Client::run), the
/// session run behind it, and the daemon's counters.
void traceServe(Tracer &T, const PipelineInput &In, double ExecuteMs,
                JsonObject &M) {
  serve::JobRequest Req;
  Req.ModelText = In.Model.Text;
  Req.GraphSpec = In.GraphDir + "/graph.mtx";
  Req.KIn = In.KIn;
  Req.KOut = In.KOut;
  Req.Seed = In.Seed;
  serve::ServerOptions Options;
  Options.SocketPath = "perfbench-trace.sock";
  Options.ConnWorkers = 1;
  Options.Engine.DiskSpill = false;
  serve::Server Daemon(Options);
  serve::Client Conn;
  std::string Err;
  if (!Daemon.start(&Err) || !Conn.connect(Options.SocketPath, &Err))
    die("cannot start the daemon: " + Err);
  serve::RunResponse Resp;
  auto Request = [&] {
    if (!Conn.run(Req, Resp, &Err) || !Resp.Status.Ok)
      die("served request failed: " + Err + Resp.Status.Error);
  };
  T.setRequest(1);
  T.time("serve.client_run", Request); // cold: the daemon's own set-up
  std::shared_ptr<serve::Session> Session = Daemon.engine().session(Req, Err);
  if (!Session)
    die("no warm session: " + Err);
  // Interleaved pairs see the same host conditions, so the median of the
  // pairwise differences isolates the serving overhead from run noise.
  std::vector<double> ClientMs, SessionMs, OverheadMs;
  for (int Rep = 0; Rep < In.WarmReps; ++Rep) {
    T.setRequest(2 + Rep);
    ClientMs.push_back(T.time("serve.client_run", Request));
    SessionMs.push_back(T.time("serve.session_run", [&] {
      if (!Session->run(false).Status.Ok)
        die("session run failed");
    }));
    OverheadMs.push_back(ClientMs.back() - SessionMs.back());
  }
  Session.reset();
  serve::StatsResponse Stats;
  if (!Conn.stats(Stats, &Err))
    die("stats verb failed: " + Err);
  serve::EngineStats Engine = Daemon.engine().stats();
  Conn.close();
  Daemon.requestStop();
  Daemon.wait();

  double Client = medianOf(ClientMs);
  M.num("serve.session_run_ms", medianOf(SessionMs))
      .num("serve.overhead_ms", medianOf(OverheadMs))
      .num("serve.response_bytes",
           static_cast<double>(serve::encodeRunResponse(Resp).size()))
      .num("serve.session_hits", static_cast<double>(Engine.SessionHits))
      .num("serve.session_misses", static_cast<double>(Engine.SessionMisses))
      .num("serve.plan_cache_hits", static_cast<double>(Stats.PlanCacheHits))
      .num("serve.plan_cache_misses",
           static_cast<double>(Stats.PlanCacheMisses))
      // The daemon request is opaque: what the layer calls measured on the
      // same input (the warm execution) do not explain.
      .num("serve.unattributed_ms", Client - ExecuteMs);
}

} // namespace

int runTrace(const Flags &Args) {
  std::string Workload = Args.str("workload");
  auto CheckSeed = static_cast<uint64_t>(Args.integer("check-seed", 1));
  Tracer T;
  JsonObject Metrics;
  std::vector<double> ColdPathMs;
  int64_t Attempted = 0, Failed = 0;

  if (Workload == "oneshot-cold") {
    // Each configuration the one-shot workload cycles through, with the
    // repetition counts scaled down to its small graphs.
    std::ifstream Configs(Args.str("configs"));
    if (!Configs)
      die("cannot read --configs");
    std::map<std::string, Adjacency> Graphs;
    LayerSums Total;
    std::string Line;
    while (std::getline(Configs, Line)) {
      std::istringstream Fields(Line);
      std::string ModelPath;
      PipelineInput In;
      if (!(Fields >> ModelPath >> In.GraphDir >> In.KIn >> In.KOut >> In.Seed))
        continue;
      In.Model = loadModelFile(ModelPath);
      In.LoadReps = 3;
      In.WarmReps = 4;
      In.KernelReps = 2;
      In.RegretReps = 3;
      auto It = Graphs.find(In.GraphDir);
      if (It == Graphs.end())
        It = Graphs.emplace(In.GraphDir, readAdjacency(In.GraphDir + "/adj.bin"))
                 .first;
      T.setRequest(static_cast<int64_t>(ColdPathMs.size()));
      LayerSums S = tracePipeline(T, In, It->second, CheckSeed, Attempted,
                                  Failed);
      ColdPathMs.push_back(S.coldPathMs());
      accumulate(Total, S);
    }
    if (ColdPathMs.empty())
      die("no configurations in --configs");
    addLayerMetrics(Metrics, Total, static_cast<double>(ColdPathMs.size()));
  } else if (Workload == "gcn-infer-warm" || Workload == "gat-train-warm") {
    PipelineInput In;
    In.GraphDir = Args.str("graph-dir");
    In.Model = loadModelFile(Args.str("model"));
    In.KIn = Args.integer("kin");
    In.KOut = Args.integer("kout");
    In.Seed = static_cast<uint64_t>(Args.integer("param-seed"));
    In.Training = Workload == "gat-train-warm";
    In.WarmReps = 6;
    In.KernelReps = 3;
    In.RegretReps = 3;
    LayerSums S;
    {
      Adjacency Adj = readAdjacency(In.GraphDir + "/adj.bin");
      S = tracePipeline(T, In, Adj, CheckSeed, Attempted, Failed);
    }
    addLayerMetrics(Metrics, S, 1.0);
    if (Workload == "gcn-infer-warm")
      traceServe(T, In, S.ExecuteMs, Metrics);
  } else {
    die("unknown workload '" + Workload + "'");
  }

  Metrics.num("trace.overhead_pct", T.overheadPct());
  std::string SpansPath = Args.str("spans");
  T.write(SpansPath);
  std::printf("%s\n",
              JsonObject()
                  .object("metrics", Metrics)
                  .object("self_ms", T.selfTimes())
                  .nums("layer_sum_ms", ColdPathMs)
                  .object("check", JsonObject()
                                       .integer("attempted", Attempted)
                                       .integer("failed", Failed))
                  .str("spans_file", SpansPath)
                  .str("isa", kernels::isaLevelName(kernels::activeIsaLevel()))
                  .text()
                  .c_str());
  return 0;
}

} // namespace perfbench
