//===- Engine.cpp - Compile-once/run-many serving engine ----------------------===//

#include "serve/Engine.h"

#include "graph/GraphSpec.h"
#include "ir/Dsl.h"
#include "kernels/Dispatch.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <unistd.h>

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

/// The request-level session identity: request fields plus the execution
/// environment (thread count, ISA). Cheap to compute — the graph is named
/// by its spec string, so a warm session lookup never loads the graph; the
/// plan cache underneath keys on the model text alone.
std::string sessionKeyFor(const JobRequest &Req) {
  std::string Key = "m" + hex16(fnv1a64(Req.ModelText));
  Key += "/" + Req.GraphSpec;
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
  const long Pages = sysconf(_SC_PHYS_PAGES);
  const long PageBytes = sysconf(_SC_PAGESIZE);
  if (Pages > 0 && PageBytes > 0 &&
      static_cast<double>(Bytes) >
          static_cast<double>(Pages) * static_cast<double>(PageBytes)) {
    *Error = "embedding sizes " + OnGraph + " need " + std::to_string(Bytes) +
             " bytes of features, output and weight, more than the host's " +
             std::to_string(static_cast<int64_t>(Pages) * PageBytes) +
             " bytes of physical memory";
    return false;
  }
  return true;
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

/// loadGraphSpec formats its message as a ready-to-print CLI diagnostic
/// ("error: ...\n"); over the wire the bare message is wanted.
std::string stripDiagDecoration(std::string Msg) {
  while (!Msg.empty() && Msg.back() == '\n')
    Msg.pop_back();
  if (Msg.rfind("error: ", 0) == 0)
    Msg.erase(0, 7);
  return Msg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

RunResponse Session::run(bool WantOutput) {
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
  Resp.SetupSeconds = Result.SetupSeconds;
  Resp.ForwardSeconds = Result.ForwardSeconds;
  Resp.BackwardSeconds = Result.BackwardSeconds;
  Resp.PlanIndex = Sel.PlanIndex;
  Resp.UsedCostModels = Sel.UsedCostModels;
  Resp.PlanCacheHit = PlanCacheHit;
  Resp.RunIndex = Runs;
  Span.setArg("plan", static_cast<double>(Sel.PlanIndex));
  Span.setArg("allocations", static_cast<double>(Resp.SteadyAllocations));
  return Resp;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

Engine::Engine(EngineOptions OptsIn)
    : Opts(std::move(OptsIn)), Plans(Opts.PlanCacheCapacity),
      CompileCost(Opts.Hw) {}

PlanCache::Plans Engine::resolvePlans(const GnnModel &Model,
                                      const JobRequest &Req,
                                      CompileResponse &Resp) {
  Timer CompileTimer;
  Resp.CacheKey = "m" + hex16(fnv1a64(Req.ModelText));
  if (PlanCache::Plans Cached = Plans.get(Req.ModelText)) {
    Resp.PlanCacheHit = true;
    Resp.Enumerated = Resp.Promoted = Cached->size();
    Resp.Pruned = 0;
    Resp.CompileSeconds = CompileTimer.seconds();
    return Cached;
  }

  // Miss: run the offline stage once and publish the promoted set.
  TraceSpan Span("offline-compile", "serve");
  OptimizerOptions OptOpts;
  OptOpts.Hw = Opts.Hw;
  OptOpts.Iterations = Opts.Iterations;
  OptOpts.Verify = Opts.Verify;
  Optimizer Compiled(Model, OptOpts, &CompileCost);
  auto Value = std::make_shared<const std::vector<CompositionPlan>>(
      Compiled.promoted());
  Plans.put(Req.ModelText, Value);
  Resp.PlanCacheHit = false;
  Resp.Enumerated = Compiled.pruneStats().Enumerated;
  Resp.Pruned = Compiled.pruneStats().Pruned;
  Resp.Promoted = Compiled.pruneStats().Promoted;
  Resp.CompileSeconds = CompileTimer.seconds();
  Span.setArg("promoted", static_cast<double>(Value->size()));
  return Value;
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
  std::string GraphError;
  std::optional<Graph> G = loadGraphSpec(Req.GraphSpec, &GraphError);
  if (!G) {
    Resp.Status.Ok = false;
    Resp.Status.Error = stripDiagDecoration(GraphError);
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
  std::string Key = sessionKeyFor(Req);
  MutexLock Lock(M);
  auto It = SessionIndex.find(Key);
  if (It != SessionIndex.end()) {
    SessionLru.splice(SessionLru.begin(), SessionLru, It->second);
    ++SessionHits;
    if (SessionHit)
      *SessionHit = true;
    if (Compile) {
      Compile->PlanCacheHit = true;
      Compile->Promoted = (*It->second)->optimizer().promoted().size();
      Compile->Enumerated = Compile->Promoted;
    }
    return *It->second;
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
      Error = stripDiagDecoration(GraphError);
      return nullptr;
    }
    Loaded = &*OwnGraph;
  }
  const Graph &G = *Loaded;
  if (!validEmbeddingSizes(Req, G, &Error))
    return nullptr;

  auto S = std::shared_ptr<Session>(new Session());
  S->Key = Key;
  S->Model = std::move(*Model);
  OptimizerOptions Options;
  Options.Hw = Opts.Hw;
  Options.Iterations = Opts.Iterations;
  Options.Verify = Opts.Verify;
  S->Training = Req.Training;
  S->Cost = AnalyticCostModel(Opts.Hw);

  CompileResponse CompileInfo;
  PlanCache::Plans Compiled = resolvePlans(S->Model, Req, CompileInfo);
  S->PlanCacheHit = CompileInfo.PlanCacheHit;
  if (Compile)
    *Compile = CompileInfo;
  // The session owns its own Optimizer built from the shared plan set (the
  // copy is a few plan graphs — negligible next to enumeration).
  S->Opt.emplace(
      Optimizer::fromCompiled(S->Model, Options, &S->Cost, *Compiled));
  S->Params = makeLayerParams(S->Model, G, Req.KIn, Req.KOut, Req.Seed);
  // Select from the parameters' self-loop graph and its statistics:
  // Optimizer::select would rebuild both from G.
  DimBinding Binding;
  Binding.N = S->Params.AdjSelf.rows();
  Binding.E = S->Params.AdjSelf.nnz();
  Binding.KIn = Req.KIn;
  Binding.KOut = Req.KOut;
  S->Sel = S->Opt->selectWithStats(Binding, S->Params.Stats);

  SessionLru.push_front(S);
  SessionIndex[Key] = SessionLru.begin();
  while (SessionLru.size() > Opts.SessionCapacity && Opts.SessionCapacity) {
    SessionIndex.erase(SessionLru.back()->Key);
    SessionLru.pop_back();
    ++SessionEvictions;
  }
  ++SessionMisses;
  return S;
}

RunResponse Engine::run(const JobRequest &Req) {
  std::string Error;
  bool SessionHit = false;
  std::shared_ptr<Session> S = session(Req, Error, &SessionHit);
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
  return Resp;
}

EngineStats Engine::stats() const {
  EngineStats Out;
  {
    MutexLock Lock(M);
    Out.SessionHits = SessionHits;
    Out.SessionMisses = SessionMisses;
    Out.SessionEvictions = SessionEvictions;
    Out.SessionsLive = SessionLru.size();
  }
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
