//===- Engine.cpp - Compile-once/run-many serving engine ----------------------===//

#include "serve/Engine.h"

#include "cost/Trainer.h"
#include "graph/GraphSpec.h"
#include "graph/Reorder.h"
#include "ir/Dsl.h"
#include "kernels/Dispatch.h"
#include "shard/Shard.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <utility>

using namespace granii;
using namespace granii::serve;

namespace {

/// Wraps parsed DSL into a GnnModel (weight count and attention flag
/// derived from the IR leaves) — the same derivation the CLI applies to
/// models it loads from disk, so a served model behaves identically.
GnnModel wrapParsedModel(const ParsedModel &Parsed) {
  GnnModel Model;
  Model.Name = Parsed.Name;
  Model.Root = Parsed.Root;
  Model.WeightCount = 0;
  for (const LeafNode *Leaf : collectLeaves(Parsed.Root)) {
    if (Leaf->role() == LeafRole::Weight)
      ++Model.WeightCount;
    if (Leaf->role() == LeafRole::AttnSrcVec)
      Model.UsesAttention = true;
  }
  if (Model.WeightCount == 0)
    Model.WeightCount = 1;
  return Model;
}

/// The request-level session identity: request fields plus the execution
/// environment (thread count, ISA). Cheap to compute — the graph is
/// fingerprinted by its spec string here, not its content, so a warm
/// session lookup never loads the graph; the plan cache underneath keys on
/// content.
std::string sessionKeyFor(const JobRequest &Req) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(Req.ModelText)));
  std::string Key = "m";
  Key += Buf;
  Key += "/" + Req.GraphSpec;
  Key += "/k" + std::to_string(Req.KIn) + "x" + std::to_string(Req.KOut);
  Key += "/t" + std::to_string(ThreadPool::get().numThreads());
  Key += "/";
  Key += kernels::isaLevelName(kernels::activeIsaLevel());
  Key += "/r" + Req.Reorder;
  Key += "/s" + std::to_string(Req.Seed);
  Key += "/f" + (Req.Format.empty() ? std::string("csr") : Req.Format);
  // Raw request value on purpose (-1 stays -1): auto resolution needs the
  // graph's edge count, and the warm session path must never load the
  // graph. The plan cache underneath keys on the resolved count.
  Key += "/sh" + std::to_string(Req.Shards);
  Key += Req.Training ? "/train" : "/infer";
  return Key;
}

/// Resolves the request's shard field against the loaded graph: -1 (auto)
/// becomes an edge-count-derived count (possibly 0 for small graphs),
/// 0 stays whole-graph, and explicit counts >= 2 pass through.
int resolvedShardCount(const JobRequest &Req, const Graph &G) {
  if (Req.Shards < 0)
    return shard::autoShardCount(G.numEdges());
  return Req.Shards > 1 ? static_cast<int>(Req.Shards) : 0;
}

/// Sharded execution only runs over the CSR forward aggregation format
/// (docs/SHARDING.md); reject the combination before any compilation work.
bool validShardRequest(const JobRequest &Req, std::string *Error) {
  if (Req.Shards == 0)
    return true;
  std::string Format = Req.Format.empty() ? "csr" : Req.Format;
  if (Format == "csr")
    return true;
  if (Error)
    *Error = "sharded execution requires the csr format (got '" + Format +
             "')";
  return false;
}

/// Parses and validates a request's format field. CSC is rejected here:
/// the executor always uses it internally for the backward transposed
/// SpMM, but it is not a selectable forward aggregation layout.
std::optional<SparseFormat> requestFormat(const JobRequest &Req,
                                          std::string *Error) {
  std::optional<SparseFormat> Format =
      parseSparseFormat(Req.Format.empty() ? "csr" : Req.Format);
  if (!Format || *Format == SparseFormat::Csc) {
    if (Error)
      *Error = "unknown or unsupported sparse format '" + Req.Format +
               "' (try csr, ell, sell, hyb, auto)";
    return std::nullopt;
  }
  return Format;
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
    : Opts(std::move(OptsIn)),
      Plans(Opts.PlanCacheCapacity,
            Opts.DiskSpill
                ? (Opts.SpillDir.empty() ? costModelCacheDir() : Opts.SpillDir)
                : std::string()),
      CompileCost(Opts.Hw) {}

PlanCache::Plans Engine::resolvePlans(const GnnModel &Model, const Graph &G,
                                      const JobRequest &Req,
                                      CompileResponse &Resp) {
  Timer CompileTimer;
  PlanCacheKey Key;
  Key.ModelHash = fnv1a64(Req.ModelText);
  Key.GraphHash = graphFingerprint(G);
  Key.KIn = Req.KIn;
  Key.KOut = Req.KOut;
  Key.Threads = ThreadPool::get().numThreads();
  Key.Isa = kernels::isaLevelName(kernels::activeIsaLevel());
  Key.Format = Req.Format.empty() ? "csr" : Req.Format;
  Key.Shards = resolvedShardCount(Req, G);
  Resp.CacheKey = Key.canonical();

  bool DiskHit = false;
  if (PlanCache::Plans Cached = Plans.get(Key, &DiskHit)) {
    Resp.PlanCacheHit = true;
    Resp.DiskHit = DiskHit;
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
  if (std::optional<SparseFormat> Format = requestFormat(Req, nullptr))
    OptOpts.Format = *Format;
  OptOpts.Shards = Key.Shards;
  Optimizer Compiled(Model, OptOpts, &CompileCost);
  auto Value = std::make_shared<const std::vector<CompositionPlan>>(
      Compiled.promoted());
  Plans.put(Key, Value);
  Resp.PlanCacheHit = false;
  Resp.DiskHit = false;
  Resp.Enumerated = Compiled.pruneStats().Enumerated;
  Resp.Pruned = Compiled.pruneStats().Pruned;
  Resp.Promoted = Compiled.pruneStats().Promoted;
  Resp.CompileSeconds = CompileTimer.seconds();
  Span.setArg("promoted", static_cast<double>(Value->size()));
  return Value;
}

CompileResponse Engine::compile(const JobRequest &Req) {
  CompileResponse Resp;
  if (Req.KIn < 1 || Req.KOut < 1) {
    Resp.Status.Ok = false;
    Resp.Status.Error = "embedding sizes must be >= 1";
    return Resp;
  }
  std::string FormatError;
  if (!requestFormat(Req, &FormatError)) {
    Resp.Status.Ok = false;
    Resp.Status.Error = FormatError;
    return Resp;
  }
  if (!validShardRequest(Req, &FormatError)) {
    Resp.Status.Ok = false;
    Resp.Status.Error = FormatError;
    return Resp;
  }
  std::string ParseError;
  std::optional<ParsedModel> Parsed =
      parseModelDsl(Req.ModelText, &ParseError);
  if (!Parsed) {
    Resp.Status.Ok = false;
    Resp.Status.Error = "model parse failed: " + ParseError;
    return Resp;
  }
  std::string GraphError;
  std::optional<Graph> G = loadGraphSpec(Req.GraphSpec, &GraphError);
  if (!G) {
    Resp.Status.Ok = false;
    Resp.Status.Error = stripDiagDecoration(GraphError);
    return Resp;
  }
  GnnModel Model = wrapParsedModel(*Parsed);
  MutexLock Lock(M);
  resolvePlans(Model, *G, Req, Resp);
  return Resp;
}

std::shared_ptr<Session> Engine::session(const JobRequest &Req,
                                         std::string &Error,
                                         bool *SessionHit,
                                         CompileResponse *Compile,
                                         const Graph *Loaded) {
  if (SessionHit)
    *SessionHit = false;
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
  if (Req.KIn < 1 || Req.KOut < 1) {
    Error = "embedding sizes must be >= 1";
    return nullptr;
  }
  std::optional<ReorderPolicy> Reorder = parseReorderPolicy(Req.Reorder);
  if (!Reorder) {
    Error = "unknown reorder policy '" + Req.Reorder +
            "' (try none, rcm, degree)";
    return nullptr;
  }
  std::optional<SparseFormat> Format = requestFormat(Req, &Error);
  if (!Format)
    return nullptr;
  if (!validShardRequest(Req, &Error))
    return nullptr;
  std::string ParseError;
  std::optional<ParsedModel> Parsed =
      parseModelDsl(Req.ModelText, &ParseError);
  if (!Parsed) {
    Error = "model parse failed: " + ParseError;
    return nullptr;
  }
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

  auto S = std::shared_ptr<Session>(new Session());
  S->Key = Key;
  S->Model = wrapParsedModel(*Parsed);
  OptimizerOptions Options;
  Options.Hw = Opts.Hw;
  Options.Iterations = Opts.Iterations;
  Options.Reorder = *Reorder;
  Options.Format = *Format;
  Options.Verify = Opts.Verify;
  // Resolved against the loaded graph (auto may legitimately come out 0);
  // set before Optimizer construction so selection prices shard features.
  Options.Shards = resolvedShardCount(Req, G);
  Options.ShardStoreDir = Opts.ShardStoreDir;
  S->Training = Req.Training;
  S->Cost = AnalyticCostModel(Opts.Hw);

  CompileResponse CompileInfo;
  PlanCache::Plans Compiled = resolvePlans(S->Model, G, Req, CompileInfo);
  S->PlanCacheHit = CompileInfo.PlanCacheHit;
  if (Compile)
    *Compile = CompileInfo;
  // The session owns its own Optimizer built from the shared plan set (the
  // copy is a few plan graphs — negligible next to enumeration).
  S->Opt.emplace(
      Optimizer::fromCompiled(S->Model, Options, &S->Cost, *Compiled));
  S->Params = makeLayerParams(S->Model, G, Req.KIn, Req.KOut, Req.Seed);
  // Select from the parameters' self-loop graph and its statistics:
  // Optimizer::select would rebuild both from G. The shard annotation goes
  // on a copy, so execution sees the same statistics as Optimizer::execute.
  DimBinding Binding;
  Binding.N = S->Params.AdjSelf.rows();
  Binding.E = S->Params.AdjSelf.nnz();
  Binding.KIn = Req.KIn;
  Binding.KOut = Req.KOut;
  GraphStats SelectStats = S->Params.Stats;
  if (Options.Shards > 1)
    shard::annotateShardStats(SelectStats, S->Params.AdjSelf, Options.Shards);
  S->Sel = S->Opt->selectWithStats(Binding, SelectStats);

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
  Out.PlanCacheDiskHits = S.PlanCache.DiskHits;
  Out.PlanCacheEvictions = S.PlanCache.Evictions;
  Out.Threads = ThreadPool::get().numThreads();
  Out.Isa = kernels::isaLevelName(kernels::activeIsaLevel());
}
