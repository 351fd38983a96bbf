//===- Engine.h - Compile-once/run-many serving engine ----------*- C++ -*-===//
///
/// \file
/// The library heart of granii-serve: an Engine that turns JobRequests into
/// warm Sessions, and a Session that owns one compiled configuration end to
/// end — an Optimizer over the promoted plan set (with its persistent
/// execution workspace), the selection and the layer parameters — so
/// repeated run() calls pay only the kernel time. This is the paper's
/// amortization argument turned into an object: the offline stage
/// (enumerate + prune) runs at most once per model text, selection and
/// parameter setup at most once per session, and a warm run performs zero
/// workspace allocations (surfaced per response via the workspace
/// allocation counter, so remote clients can assert it).
///
/// Layering: the daemon (Server.h) and the CLI's `serve`/`call` both sit on
/// this file; nothing here knows about sockets or frames. The Engine is
/// safe for concurrent callers — session lookup/creation serializes on one
/// mutex (enumeration is not parallelized anyway), while the kernel work of
/// different sessions multiplexes over the shared ThreadPool exactly like
/// any other GRANII execution.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SERVE_ENGINE_H
#define GRANII_SERVE_ENGINE_H

#include "granii/Granii.h"
#include "serve/LruCache.h"
#include "serve/Protocol.h"
#include "support/FunctionRef.h"
#include "support/ThreadSafety.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace granii {
namespace serve {

struct EngineOptions {
  /// Execution platform. The daemon executes real kernels, so this stays
  /// "cpu" in practice; simulated platforms are accepted for tests.
  HardwareModel Hw = HardwareModel::byName("cpu");
  /// Amortization horizon forwarded to the Optimizer (selection reports
  /// predicted seconds for this many iterations).
  int Iterations = 100;
  /// Bound on live sessions (each owns an arena sized by its graph).
  size_t SessionCapacity = 8;
  /// Ignored: the plan cache has no disk tier. Kept because the end-to-end
  /// benchmark assigns it; it goes with the next change to the benchmark.
  bool DiskSpill = true;
};

/// Aggregate counters for the stats verb (engine part only; the server
/// layers its request counters on top).
struct EngineStats {
  uint64_t SessionHits = 0;
  uint64_t SessionMisses = 0;
  uint64_t SessionEvictions = 0;
  uint64_t SessionsLive = 0;
  LruStats PlanCache;
};

/// One warm serving configuration: compiled plans + selection + parameters,
/// executed through Optimizer::execute. Sessions are created by the Engine
/// and shared: the LRU may drop a session while a request still runs it.
/// run() is internally serialized; concurrent callers on one session queue
/// up.
class Session {
public:
  /// Executes one pass (forward, or forward+backward for training
  /// sessions) and fills everything except the cache flags, which the
  /// engine's lookup sets, and the server-level counters of \p Resp. The
  /// pass writes into the session's one ExecResult, reused across runs, so
  /// a warm inference pass allocates, page-faults and copies nothing; only
  /// \p WantOutput copies the output matrix into the response. Warm calls
  /// (RunIndex > 1) report SteadyAllocations == 0 by construction of the
  /// buffer arena; the counter is re-measured every call rather than
  /// assumed.
  RunResponse run(bool WantOutput);

  /// The same pass, handing the session's result to \p Sink while the run
  /// lock still holds it (no later run can overwrite it meanwhile) instead
  /// of copying its output into the response: `granii-cli run --out` writes
  /// its file straight from Output, and `--profile` prints the run's
  /// StepProfiles and BackwardProfiles.
  RunResponse run(FunctionRef<void(const ExecResult &)> Sink);

  const Selection &selection() const { return Sel; }
  const Optimizer &optimizer() const { return *Opt; }
  /// The session's materialized layer tensors; the selection was made on
  /// their statistics, Params.Stats.
  const LayerParams &params() const { return Params; }
  /// The cost model the selection was made with (--profile prints its
  /// per-step predictions beside measured time).
  const CostModel &cost() const { return Cost; }

private:
  friend class Engine;
  Session() = default;

  /// Both run() forms: one pass, then the output copied (\p WantOutput) or
  /// the result handed to \p Sink (when non-null) under the run lock.
  RunResponse runPass(bool WantOutput,
                      const FunctionRef<void(const ExecResult &)> *Sink);

  // Immutable after Engine::session() publishes the session: safe to read
  // from any thread without RunMutex.
  bool Training = false;
  /// Selection + execution state. Cost must outlive Opt (the optimizer
  /// keeps a pointer), hence the member order. Opt's workspaces are the
  /// one exception to the immutability above (see RunMutex).
  AnalyticCostModel Cost{HardwareModel::byName("cpu")};
  std::optional<Optimizer> Opt;
  LayerParams Params;
  Selection Sel;

  /// Serializes run() on this session, and with it Opt->execute(): the
  /// optimizer's workspace map, layout caches included, carries no lock of
  /// its own — RunMutex is its synchronization.
  Mutex RunMutex{"Session::RunMutex"};
  /// The result every run writes into: its output buffer persists, so the
  /// plan's final step overwrites it in place on warm runs.
  ExecResult Result GRANII_GUARDED_BY(RunMutex);
  uint64_t Runs GRANII_GUARDED_BY(RunMutex) = 0;
};

/// Session factory + plan cache. One Engine per daemon (or per test).
class Engine {
public:
  explicit Engine(EngineOptions Opts = EngineOptions());

  /// The compile verb: resolve the request's plan set (the plan cache or a
  /// fresh offline stage) without creating a session. The request's graph
  /// is still loaded, so the verb reports the errors a run would.
  CompileResponse compile(const JobRequest &Req);

  /// The run verb: session lookup or creation, then one executed pass.
  /// Errors (bad model text, a model whose output reads no weight, unknown
  /// graph, a format or vertex order other than CSR in the graph's own
  /// order, embedding sizes the host cannot hold) come back as
  /// Status.Ok == false with the diagnostic text.
  RunResponse run(const JobRequest &Req);

  /// Looks up (or builds) the warm session for \p Req — the library-level
  /// entry the CLI's one-shot `run` shares with the daemon, so both paths
  /// execute through the same Session and stay bitwise comparable.
  /// \returns nullptr with \p Error set on request errors. \p SessionHit
  /// (if non-null) reports reuse; \p Compile (if non-null) receives the
  /// offline-stage numbers (enumerated/pruned/promoted, cache hits). A
  /// non-null \p Loaded is the graph Req.GraphSpec names, already loaded
  /// by the caller; a cold session builds on it instead of loading the
  /// spec again.
  std::shared_ptr<Session> session(const JobRequest &Req, std::string &Error,
                                   bool *SessionHit = nullptr,
                                   CompileResponse *Compile = nullptr,
                                   const Graph *Loaded = nullptr);

  /// Fills the engine-owned fields of \p Out (sessions + plan cache +
  /// pool/ISA); the server adds its request counters.
  void fillStats(StatsResponse &Out) const;

  EngineStats stats() const;
  const EngineOptions &options() const { return Opts; }

private:
  using PlanSet = std::shared_ptr<const OfflinePlans>;

  /// Resolves the compiled plan set of the request's model text: plan
  /// cache get, else run the offline stage (runOfflineStage) and put.
  /// \p Resp reports the compile's counts either way. M serializes the
  /// offline stage (enumeration is deliberately not concurrent).
  PlanSet resolvePlans(const GnnModel &Model, const JobRequest &Req,
                       CompileResponse &Resp) GRANII_REQUIRES(M);

  EngineOptions Opts;

  mutable Mutex M{"Engine::M"};
  /// The plan cache: the offline stage's product per model, so a daemon
  /// pays enumeration and pruning at most once per model and every later
  /// request for it, on any graph and at any embedding sizes, reuses the
  /// set. The key is the model's DSL text itself: the offline stage reads
  /// nothing else (not the graph, the sizes or the execution environment,
  /// and every model compiles with the same options and every check), and
  /// an exact key cannot collide. It lives in memory only; a restarted
  /// daemon recompiles each model once (DESIGN.md §5, "One compile per
  /// model").
  LruCache<const OfflinePlans> Plans GRANII_GUARDED_BY(M);
  /// Warm sessions, keyed by the request fields, the graph's identity and
  /// the execution environment (sessionKeyFor in Engine.cpp).
  LruCache<Session> Sessions GRANII_GUARDED_BY(M);
};

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_ENGINE_H
