//===- Engine.cpp - Compile-once/run-many serving engine ----------------------===//

#include "serve/Engine.h"

#include "graph/GraphSpec.h"
#include "ir/Dsl.h"
#include "kernels/Dispatch.h"
#include "support/Hash.h"
#include "support/Memory.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cstdio>
#include <utility>

using namespace granii;
using namespace granii::serve;

namespace {

/// Parses the request's model text into a GnnModel (weight count and
/// attention flag derived from the IR leaves). A model whose output reads
/// no weight is a request error: there is no layer to optimize, and the
/// layer parameters would have no weight to bind.
std::optional<GnnModel> parseRequestModel(const JobRequest &Req,
                                          std::string *Error) {
  std::string ParseError;
  std::optional<ParsedModel> Parsed =
      parseModelDsl(Req.ModelText, &ParseError);
  if (!Parsed) {
    *Error = "model parse failed: " + ParseError;
    return std::nullopt;
  }
  GnnModel Model;
  Model.Name = Parsed->Name;
  Model.Root = Parsed->Root;
  Model.WeightCount = 0;
  for (const LeafNode *Leaf : collectLeaves(Parsed->Root)) {
    if (Leaf->role() == LeafRole::Weight)
      ++Model.WeightCount;
    if (Leaf->role() == LeafRole::AttnSrcVec)
      Model.UsesAttention = true;
  }
  if (Model.WeightCount == 0) {
    *Error = "model '" + Model.Name +
             "' has no weight in its output: declare a 'param weight' and "
             "use it in the output expression";
    return std::nullopt;
  }
  return Model;
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Compiled plan sets the plan cache keeps.
constexpr size_t PlanCacheCapacity = 16;

/// The request-level session identity: request fields plus the execution
/// environment (thread count, ISA). Cheap to compute: the graph is named by
/// graphSpecIdentity (a "synth:" spec's text, a file's path and stat()), so
/// a warm session lookup never loads the graph, and a replaced file misses.
/// The plan cache underneath keys on the model text alone. \returns nullopt
/// when the graph file does not stat: no session may answer for it.
std::optional<std::string> sessionKeyFor(const JobRequest &Req) {
  std::optional<std::string> GraphId = graphSpecIdentity(Req.GraphSpec);
  if (!GraphId)
    return std::nullopt;
  std::string Key = "m" + hex16(fnv1a64(Req.ModelText));
  Key += "/" + *GraphId;
  Key += "/k" + std::to_string(Req.KIn) + "x" + std::to_string(Req.KOut);
  Key += "/t" + std::to_string(ThreadPool::get().numThreads());
  Key += "/";
  Key += kernels::isaLevelName(kernels::activeIsaLevel());
  Key += "/s" + std::to_string(Req.Seed);
  Key += Req.Training ? "/train" : "/infer";
  return Key;
}

/// Checks the request's embedding sizes against the loaded graph before
/// anything is sized by them: K >= 1, the N x K_in features, N x K_out
/// output and K_in x K_out weight each countable in int64, and their bytes
/// together within the host's physical memory. Anything else would abort
/// the process in an allocation instead of answering with an error.
bool validEmbeddingSizes(const JobRequest &Req, const Graph &G,
                         std::string *Error) {
  const std::string Sizes =
      std::to_string(Req.KIn) + "x" + std::to_string(Req.KOut);
  if (Req.KIn < 1 || Req.KOut < 1) {
    *Error = "embedding sizes must be >= 1 (got " + Sizes + ")";
    return false;
  }
  const int64_t N = G.numNodes();
  const std::string OnGraph = Sizes + " on " + std::to_string(N) + " nodes";
  int64_t Features = 0, Output = 0, Weight = 0, Floats = 0, Bytes = 0;
  if (__builtin_mul_overflow(N, Req.KIn, &Features) ||
      __builtin_mul_overflow(N, Req.KOut, &Output) ||
      __builtin_mul_overflow(Req.KIn, Req.KOut, &Weight) ||
      __builtin_add_overflow(Features, Output, &Floats) ||
      __builtin_add_overflow(Floats, Weight, &Floats) ||
      __builtin_mul_overflow(Floats, int64_t{sizeof(float)}, &Bytes)) {
    *Error = "embedding sizes " + OnGraph +
             " overflow the features, output or weight element count";
    return false;
  }
  return fitsInMemory(Bytes, physicalMemoryBytes(),
                      "embedding sizes " + OnGraph +
                          " (features, output and weight)",
                      Error);
}

/// CSR in the caller's vertex order is the only execution layout. The
/// request's format and reorder fields stay on the wire because the
/// end-to-end benchmark sets them; anything but empty, "csr" and "none" is
/// an error. Neither field is part of the session key, so a warm lookup
/// must not skip this check.
bool validLayout(const JobRequest &Req, std::string *Error) {
  if (!Req.Format.empty() && Req.Format != "csr") {
    *Error = "unknown or unsupported sparse format '" + Req.Format +
             "' (csr is the only format)";
    return false;
  }
  if (!Req.Reorder.empty() && Req.Reorder != "none") {
    *Error = "unsupported reorder policy '" + Req.Reorder +
             "' (execution keeps the graph's vertex order; relabel the graph "
             "before sending it)";
    return false;
  }
  return true;
}

/// Reports a compile's enumerated / pruned / promoted counts.
void fillCompileCounts(const PruneStats &Stats, CompileResponse &Resp) {
  Resp.Enumerated = Stats.Enumerated;
  Resp.Pruned = Stats.Pruned;
  Resp.Promoted = Stats.Promoted;
}

} // namespace

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

RunResponse Session::run(bool WantOutput) {
  return runPass(WantOutput, nullptr);
}

RunResponse Session::run(FunctionRef<void(const ExecResult &)> Sink) {
  return runPass(/*WantOutput=*/false, &Sink);
}

RunResponse Session::runPass(
    bool WantOutput, const FunctionRef<void(const ExecResult &)> *Sink) {
  RunResponse Resp;
  MutexLock Lock(RunMutex);
  TraceSpan Span("session-run", "serve");
  Span.setArg("run_index", static_cast<double>(Runs + 1));

  // This run's allocations, not the lifetime total: the first run builds
  // the arena (nonzero), every later run must report zero.
  Resp.SteadyAllocations = Opt->execute(Sel, Params, Training, Result);
  ++Runs;

  const DenseMatrix &Out = Result.Output;
  Resp.Rows = Out.rows();
  Resp.Cols = Out.cols();
  if (WantOutput)
    Resp.Output.assign(Out.data(), Out.data() + Out.size());
  if (Sink)
    (*Sink)(Result);
  Resp.SetupSeconds = Result.SetupSeconds;
  Resp.ForwardSeconds = Result.ForwardSeconds;
  Resp.BackwardSeconds = Result.BackwardSeconds;
  Resp.PlanIndex = Sel.PlanIndex;
  Resp.UsedCostModels = Sel.UsedCostModels;
  Resp.RunIndex = Runs;
  Span.setArg("plan", static_cast<double>(Sel.PlanIndex));
  Span.setArg("allocations", static_cast<double>(Resp.SteadyAllocations));
  return Resp;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

Engine::Engine(EngineOptions OptsIn)
    : Opts(std::move(OptsIn)), Plans(PlanCacheCapacity),
      Sessions(Opts.SessionCapacity) {}

Engine::PlanSet Engine::resolvePlans(const GnnModel &Model,
                                     const JobRequest &Req,
                                     CompileResponse &Resp) {
  Timer CompileTimer;
  Resp.CacheKey = "m" + hex16(fnv1a64(Req.ModelText));
  PlanSet Compiled = Plans.get(Req.ModelText);
  Resp.PlanCacheHit = Compiled != nullptr;
  if (!Compiled) {
    // Miss: run the offline stage once and publish its product.
    TraceSpan Span("offline-compile", "serve");
    Compiled = std::make_shared<const OfflinePlans>(
        runOfflineStage(Model.Root, EnumOptions()));
    Plans.put(Req.ModelText, Compiled);
    Span.setArg("promoted", static_cast<double>(Compiled->Promoted.size()));
  }
  fillCompileCounts(Compiled->Stats, Resp);
  Resp.CompileSeconds = CompileTimer.seconds();
  return Compiled;
}

CompileResponse Engine::compile(const JobRequest &Req) {
  CompileResponse Resp;
  if (!validLayout(Req, &Resp.Status.Error)) {
    Resp.Status.Ok = false;
    return Resp;
  }
  std::optional<GnnModel> Model = parseRequestModel(Req, &Resp.Status.Error);
  if (!Model) {
    Resp.Status.Ok = false;
    return Resp;
  }
  std::optional<Graph> G = loadGraphSpec(Req.GraphSpec, &Resp.Status.Error);
  if (!G) {
    Resp.Status.Ok = false;
    return Resp;
  }
  if (!validEmbeddingSizes(Req, *G, &Resp.Status.Error)) {
    Resp.Status.Ok = false;
    return Resp;
  }
  MutexLock Lock(M);
  resolvePlans(*Model, Req, Resp);
  return Resp;
}

std::shared_ptr<Session> Engine::session(const JobRequest &Req,
                                         std::string &Error,
                                         bool *SessionHit,
                                         CompileResponse *Compile,
                                         const Graph *Loaded) {
  if (SessionHit)
    *SessionHit = false;
  if (!validLayout(Req, &Error))
    return nullptr;
  // A graph file that does not stat takes the cold path, whose load
  // reports why, and no session is published under it.
  std::optional<std::string> Key = sessionKeyFor(Req);
  MutexLock Lock(M);
  if (std::shared_ptr<Session> Warm = Key ? Sessions.get(*Key) : nullptr) {
    if (SessionHit)
      *SessionHit = true;
    if (Compile) {
      Compile->PlanCacheHit = true;
      fillCompileCounts(Warm->optimizer().pruneStats(), *Compile);
    }
    return Warm;
  }

  // Cold path: validate the request, resolve plans, build the session.
  // Engine-level lock held throughout — enumeration is single-threaded
  // anyway, and serializing creation means concurrent identical requests
  // compile once instead of racing.
  std::optional<GnnModel> Model = parseRequestModel(Req, &Error);
  if (!Model)
    return nullptr;
  std::optional<Graph> OwnGraph;
  if (!Loaded) {
    std::string GraphError;
    OwnGraph = loadGraphSpec(Req.GraphSpec, &GraphError);
    if (!OwnGraph) {
      Error = GraphError;
      return nullptr;
    }
    Loaded = &*OwnGraph;
  }
  const Graph &G = *Loaded;
  if (!validEmbeddingSizes(Req, G, &Error))
    return nullptr;

  auto S = std::shared_ptr<Session>(new Session());
  OptimizerOptions Options;
  Options.Hw = Opts.Hw;
  Options.Iterations = Opts.Iterations;
  S->Training = Req.Training;
  S->Cost = AnalyticCostModel(Opts.Hw);

  CompileResponse CompileInfo;
  PlanSet Compiled = resolvePlans(*Model, Req, CompileInfo);
  if (Compile)
    *Compile = CompileInfo;
  // The session owns its own Optimizer built from the shared plan set (the
  // copy is a few plan graphs — negligible next to enumeration).
  S->Opt.emplace(std::move(*Model), Options, &S->Cost, *Compiled);
  S->Params =
      makeLayerParams(S->Opt->model(), G, Req.KIn, Req.KOut, Req.Seed);
  // Select from the parameters' self-loop graph and its statistics:
  // Optimizer::select would rebuild both from G.
  DimBinding Binding;
  Binding.N = S->Params.AdjSelf.rows();
  Binding.E = S->Params.AdjSelf.nnz();
  Binding.KIn = Req.KIn;
  Binding.KOut = Req.KOut;
  S->Sel = S->Opt->selectWithStats(Binding, S->Params.Stats);

  if (Key)
    Sessions.put(*Key, S);
  return S;
}

RunResponse Engine::run(const JobRequest &Req) {
  std::string Error;
  bool SessionHit = false;
  CompileResponse Compile;
  std::shared_ptr<Session> S = session(Req, Error, &SessionHit, &Compile);
  if (!S) {
    RunResponse Resp;
    Resp.Status.Ok = false;
    Resp.Status.Error = Error;
    return Resp;
  }
  // Kernel execution happens outside the engine lock: distinct sessions
  // proceed concurrently and multiplex over the shared ThreadPool.
  RunResponse Resp = S->run(Req.WantOutput);
  Resp.SessionCacheHit = SessionHit;
  // What this request's lookup saw: a warm session is a plan-cache hit.
  Resp.PlanCacheHit = Compile.PlanCacheHit;
  return Resp;
}

EngineStats Engine::stats() const {
  EngineStats Out;
  MutexLock Lock(M);
  const LruStats &S = Sessions.stats();
  Out.SessionHits = S.Hits;
  Out.SessionMisses = S.Misses;
  Out.SessionEvictions = S.Evictions;
  Out.SessionsLive = Sessions.size();
  Out.PlanCache = Plans.stats();
  return Out;
}

void Engine::fillStats(StatsResponse &Out) const {
  EngineStats S = stats();
  Out.SessionsLive = S.SessionsLive;
  Out.SessionHits = S.SessionHits;
  Out.SessionEvictions = S.SessionEvictions;
  Out.PlanCacheHits = S.PlanCache.Hits;
  Out.PlanCacheMisses = S.PlanCache.Misses;
  Out.PlanCacheEvictions = S.PlanCache.Evictions;
  Out.Threads = ThreadPool::get().numThreads();
  Out.Isa = kernels::isaLevelName(kernels::activeIsaLevel());
}
