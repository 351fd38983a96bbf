//===- CliDriver.cpp - granii-cli command implementation ----------------------===//

#include "CliDriver.h"

#include "assoc/DotExport.h"
#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "graph/GraphSpec.h"
#include "graph/MatrixMarket.h"
#include "granii/Granii.h"
#include "ir/Dsl.h"
#include "kernels/Dispatch.h"
#include "runtime/CodeGen.h"
#include "serve/Client.h"
#include "serve/Engine.h"
#include "serve/Server.h"
#include "support/Diag.h"
#include "support/Str.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "verify/Verify.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

using namespace granii;
using namespace granii::cli;

namespace {

/// Simple flag/value argument scanner. Positional arguments keep order.
/// Flags accept both "--key value" and "--key=value" spellings.
class ArgParser {
public:
  explicit ArgParser(const std::vector<std::string> &Args) {
    for (size_t I = 0; I < Args.size(); ++I) {
      if (startsWith(Args[I], "--")) {
        std::string Key = Args[I].substr(2);
        size_t Eq = Key.find('=');
        if (Eq != std::string::npos) {
          Values[Key.substr(0, Eq)] = Key.substr(Eq + 1);
          continue;
        }
        if (I + 1 < Args.size() && !startsWith(Args[I + 1], "--"))
          Values[Key] = Args[++I];
        else
          Values[Key] = "";
        continue;
      }
      Positional.push_back(Args[I]);
    }
  }

  bool hasFlag(const std::string &Key) const { return Values.count(Key); }

  std::string value(const std::string &Key,
                    const std::string &Default = "") const {
    auto It = Values.find(Key);
    return It == Values.end() ? Default : It->second;
  }

  /// Integer flag lookup: \p Default when the flag is absent. A present
  /// flag whose text is not a whole decimal integer also yields \p Default;
  /// commands reject those first with rejectMalformedInts().
  int64_t intValue(const std::string &Key, int64_t Default) const {
    auto It = Values.find(Key);
    int64_t Value = 0;
    if (It == Values.end() || !parseInt64(It->second, Value))
      return Default;
    return Value;
  }

  /// Flags present on the command line but not in \p Known — the per-
  /// subcommand typo guard (a misspelled flag must fail loudly, not fall
  /// back to a default).
  std::vector<std::string>
  unknownFlags(std::initializer_list<std::string_view> Known) const {
    std::vector<std::string> Unknown;
    for (const auto &[Key, Unused] : Values) {
      bool Found = false;
      for (std::string_view K : Known)
        if (Key == K) {
          Found = true;
          break;
        }
      if (!Found)
        Unknown.push_back(Key);
    }
    return Unknown;
  }

  std::vector<std::string> Positional;

private:
  std::map<std::string, std::string> Values;
};

/// Rejects flags \p Cmd does not understand with a structured Diag per
/// offender. \returns 0 when every flag is known, else the exit code 2.
int rejectUnknownFlags(const ArgParser &Args, const std::string &Cmd,
                       std::initializer_list<std::string_view> Known,
                       std::string &Err) {
  std::vector<std::string> Unknown = Args.unknownFlags(Known);
  if (Unknown.empty())
    return 0;
  std::string Supported;
  for (std::string_view K : Known) {
    if (!Supported.empty())
      Supported += " ";
    Supported += "--";
    Supported += K;
  }
  for (const std::string &Flag : Unknown)
    Err += Diag{DiagSeverity::Error, "cli", "--" + Flag,
                "unknown flag for '" + Cmd + "'",
                "supported flags: " + Supported}
               .toString() +
           "\n";
  return 2;
}

/// Rejects integer flags in \p IntFlags whose text is not a whole decimal
/// integer (--kin 3x2, --iters ten) with a Diag naming the flag and the
/// text: like an unknown flag, a malformed value must fail loudly rather
/// than fall back to a default. \returns 0 when all parse, else exit code 2.
int rejectMalformedInts(const ArgParser &Args,
                        std::initializer_list<const char *> IntFlags,
                        std::string &Err) {
  int Code = 0;
  for (const char *Flag : IntFlags) {
    if (!Args.hasFlag(Flag))
      continue;
    const std::string Text = Args.value(Flag);
    int64_t Value = 0;
    if (parseInt64(Text, Value))
      continue;
    Err += Diag{DiagSeverity::Error, "cli", std::string("--") + Flag,
                "expects an integer, got '" + Text + "'",
                std::string("pass a whole number, e.g. --") + Flag + " 32"}
               .toString() +
           "\n";
    Code = 2;
  }
  return Code;
}

std::optional<std::string> readFileText(const std::string &Path,
                                        std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err += "error: cannot open model file '" + Path + "'\n";
    return std::nullopt;
  }
  std::ostringstream Contents;
  Contents << In.rdbuf();
  return Contents.str();
}

std::optional<ParsedModel> loadModel(const std::string &Path,
                                     std::string &Err) {
  std::optional<std::string> Text = readFileText(Path, Err);
  if (!Text)
    return std::nullopt;
  std::string ParseError;
  std::optional<ParsedModel> Parsed = parseModelDsl(*Text, &ParseError);
  if (!Parsed)
    Err += "error: " + Path + ": " + ParseError + "\n";
  return Parsed;
}

/// Graph specs resolve through the shared loadGraphSpec() path — the same
/// resolution the serving daemon applies, so `run` and `call` of one spec
/// always execute the same graph.
std::optional<Graph> loadGraph(const std::string &Spec, std::string &Err) {
  std::string SpecError;
  std::optional<Graph> G = loadGraphSpec(Spec, &SpecError);
  if (!G)
    Err += SpecError;
  return G;
}

/// Writes an output matrix as the binary interchange format shared by
/// `run --out` and `call --out` (magic "GRNO", i64 rows/cols, u64 count,
/// raw little-endian floats). Binary so CI can `cmp` the daemon's answer
/// against the one-shot pipeline's bit for bit.
bool writeOutputFile(const std::string &Path, int64_t Rows, int64_t Cols,
                     std::span<const float> Values, std::string &Err) {
  TraceSpan Span("write-output", "cli");
  serve::WireWriter W;
  W.putU32(0x4f4e5247u); // "GRNO"
  W.putI64(Rows);
  W.putI64(Cols);
  W.putFloats(Values);
  std::ofstream OutFile(Path, std::ios::binary);
  if (!OutFile) {
    Err += "error: cannot open output file '" + Path + "'\n";
    return false;
  }
  OutFile.write(reinterpret_cast<const char *>(W.bytes().data()),
                static_cast<std::streamsize>(W.bytes().size()));
  if (!OutFile) {
    Err += "error: failed writing output file '" + Path + "'\n";
    return false;
  }
  return true;
}

/// Parses the --verify flag into a level; reports unknown spellings.
std::optional<VerifyLevel> verifyFlag(const ArgParser &Args,
                                      std::string &Err) {
  if (!Args.hasFlag("verify"))
    return defaultVerifyLevel();
  std::optional<VerifyLevel> Level = parseVerifyLevel(Args.value("verify"));
  if (!Level)
    Err += "error: unknown verify level '" + Args.value("verify") +
           "' (try off, fast, full)\n";
  return Level;
}

int cmdCompile(const ArgParser &Args, std::string &Out, std::string &Err) {
  if (int Code = rejectUnknownFlags(
          Args, "compile",
          {"dot", "codegen", "verify", "threads", "isa", "trace"}, Err))
    return Code;
  if (Args.Positional.size() < 2) {
    Err += "usage: granii-cli compile <model.gnn> [--dot] [--codegen] "
           "[--verify off|fast|full]\n";
    return 2;
  }
  std::optional<ParsedModel> Parsed = loadModel(Args.Positional[1], Err);
  if (!Parsed)
    return 1;
  std::optional<VerifyLevel> Verify = verifyFlag(Args, Err);
  if (!Verify)
    return 2;

  Out += "model '" + Parsed->Name + "'\n\nmatrix IR:\n" +
         printIR(Parsed->Root) + "\n";

  EnumOptions EnumOpts;
  EnumOpts.Verify = *Verify;
  PruneStats Stats;
  std::vector<CompositionPlan> Promoted =
      pruneCompositions(enumerateCompositions(Parsed->Root, EnumOpts), &Stats);
  Out += "offline stage: " + std::to_string(Stats.Enumerated) +
         " compositions enumerated, " + std::to_string(Stats.Pruned) +
         " pruned, " + std::to_string(Stats.Promoted) + " promoted\n\n";
  for (const CompositionPlan &Plan : Promoted) {
    Out += Plan.toString();
    Out += "  viable: ";
    if (Plan.ViableGe)
      Out += "[Kin>=Kout] ";
    if (Plan.ViableLt)
      Out += "[Kin<Kout]";
    Out += "\n\n";
  }

  if (Args.hasFlag("dot")) {
    Out += exportIRDot(Parsed->Root, Parsed->Name + "_ir");
    for (size_t I = 0; I < Promoted.size(); ++I)
      Out += exportPlanDot(Promoted[I],
                           Parsed->Name + "_plan" + std::to_string(I));
  }
  if (Args.hasFlag("codegen"))
    Out += generateDispatchCode(Parsed->Name, Promoted);
  return 0;
}

/// `granii-cli verify`: runs the whole-pipeline static checker on a model
/// and prints the per-stage invariant summary. Exit 0 only when every stage
/// is clean, so CI can gate on it.
int cmdVerify(const ArgParser &Args, std::string &Out, std::string &Err) {
  if (int Code = rejectUnknownFlags(Args, "verify",
                                    {"threads", "isa", "trace"}, Err))
    return Code;
  if (Args.Positional.size() < 2) {
    Err += "usage: granii-cli verify <model.gnn>\n";
    return 2;
  }
  std::optional<ParsedModel> Parsed = loadModel(Args.Positional[1], Err);
  if (!Parsed)
    return 1;
  PipelineReport Report = verifyPipeline(Parsed->Root);
  Out += "model '" + Parsed->Name + "'\n" + Report.summary();
  if (!Report.clean()) {
    Err += "error: verification failed with " +
           std::to_string(Report.Diags.errorCount()) + " error(s)\n";
    return 1;
  }
  return 0;
}

/// The --profile path: executes the selected plan against a dedicated
/// workspace with per-step profiling — a warm-up run plans and allocates
/// the arena, then a steady-state run is profiled and its allocation count
/// checked. Nonzero steady-state allocations are a planning bug, reported
/// via the exit code so CI can assert the zero-allocation property.
int profileRun(const serve::Session &S, const HardwareModel &Hw,
               bool Training, std::string &Out, std::string &Err) {
  const CompositionPlan &Plan =
      S.optimizer().promoted()[S.selection().PlanIndex];
  const LayerParams &Params = S.params();
  Executor Exec(Hw);
  Exec.setStepProfiling(true);
  PlanWorkspace Ws;
  ExecResult R;
  LayerInputs Inputs = Params.inputs();

  auto RunOnce = [&] {
    if (Training)
      Exec.runTraining(Plan, Inputs, Params.Stats, Ws, R);
    else
      Exec.run(Plan, Inputs, Params.Stats, Ws, R);
  };
  RunOnce(); // warm-up: plans the arena, allocates every slot
  Ws.resetAllocationCount();
  RunOnce(); // steady state: profiled, must not allocate
  size_t SteadyAllocs = Ws.allocationCount();

  // Each step's prediction comes from the cost model that chose the plan,
  // on the statistics it chose with.
  std::vector<std::string> Header = {"step",    "value",   "op",        "shape",
                                     "ms",      "pred ms", "meas/pred", "MB",
                                     "GFLOP/s", "GB/s"};
  std::vector<std::vector<std::string>> Rows;
  double PredictedForward = 0.0;
  for (size_t I = 0; I < R.StepProfiles.size(); ++I) {
    const StepProfile &P = R.StepProfiles[I];
    const double Predicted =
        S.cost().primitiveSeconds(Ws.descs()[I], Params.Stats);
    if (!P.Setup)
      PredictedForward += Predicted;
    double GFlops = P.Seconds > 0.0 ? P.Flops / P.Seconds / 1e9 : 0.0;
    double GBps = P.Seconds > 0.0 ? P.Bytes / P.Seconds / 1e9 : 0.0;
    Rows.push_back({std::to_string(I) + (P.Setup ? " (setup)" : ""),
                    P.Value, P.Op, P.Shape,
                    formatDouble(P.Seconds * 1e3, 4),
                    formatDouble(Predicted * 1e3, 4),
                    formatDouble(P.Seconds / Predicted, 2),
                    formatDouble(P.Bytes / 1e6, 3),
                    formatDouble(GFlops, 2), formatDouble(GBps, 2)});
  }
  Out += "\nper-step profile (steady state):\n" + renderTable(Header, Rows);
  Out += "forward: measured " + formatDouble(R.ForwardSeconds * 1e3, 4) +
         " ms vs predicted " + formatDouble(PredictedForward * 1e3, 4) +
         " ms (measured/predicted " +
         formatDouble(R.ForwardSeconds / PredictedForward, 2) + ")\n";
  if (Training) {
    // The backward pass stays outside selection, so its primitives have no
    // predicted column; they run in the reverse of the plan's step order.
    std::vector<std::vector<std::string>> BwdRows;
    for (const StepProfile &P : R.BackwardProfiles) {
      double GFlops = P.Seconds > 0.0 ? P.Flops / P.Seconds / 1e9 : 0.0;
      double GBps = P.Seconds > 0.0 ? P.Bytes / P.Seconds / 1e9 : 0.0;
      BwdRows.push_back({std::to_string(P.Step), P.Op, P.Value, P.Shape,
                         formatDouble(P.Seconds * 1e3, 4),
                         formatDouble(P.Bytes / 1e6, 3),
                         formatDouble(GFlops, 2), formatDouble(GBps, 2)});
    }
    Out += "\nbackward profile (steady state):\n" +
           renderTable({"step", "op", "grad of", "shape", "ms", "MB",
                        "GFLOP/s", "GB/s"},
                       BwdRows);
    Out += "backward: measured " + formatDouble(R.BackwardSeconds * 1e3, 4) +
           " ms\n";
  }

  const BufferPlan *Buffers = Ws.bufferPlan();
  if (Buffers) {
    // The arena total includes the output's planned slot, which is never
    // allocated: the caller's result holds the output instead.
    const ValueBuffer &Output =
        Buffers->values()[static_cast<size_t>(Plan.OutputValue)];
    Out += "planned memory: peak " +
           formatDouble(Buffers->peakBytes() / 1e6, 3) + " MB live, arena " +
           formatDouble(Buffers->arenaBytes() / 1e6, 3) + " MB (" +
           formatDouble(Output.Floats * sizeof(float) / 1e6, 3) +
           " MB of it the output, held by the caller's result), "
           "fresh-allocation baseline " +
           formatDouble(Buffers->naiveBytes() / 1e6, 3) + " MB (" +
           std::to_string(Buffers->slots().size()) + " slots for " +
           std::to_string(Plan.Steps.size()) + " steps)\n";
  }
  Out += "steady-state allocations: " + std::to_string(SteadyAllocs) + "\n";
  if (SteadyAllocs > 0) {
    Err += "error: steady-state run performed " +
           std::to_string(SteadyAllocs) +
           " workspace allocations (expected 0)\n";
    return 1;
  }
  return 0;
}

int cmdRun(const ArgParser &Args, std::string &Out, std::string &Err) {
  if (int Code = rejectUnknownFlags(
          Args, "run",
          {"graph", "kin", "kout", "hw", "iters", "train", "profile",
           "verify", "out", "threads", "isa", "trace"},
          Err))
    return Code;
  if (int Code = rejectMalformedInts(Args, {"kin", "kout", "iters"}, Err))
    return Code;
  if (Args.Positional.size() < 2) {
    Err += "usage: granii-cli run <model.gnn> [--graph <mtx|synth:name>] "
           "--kin N --kout N [--hw cpu|a100|h100] [--iters N] [--train] "
           "[--threads N] [--isa scalar|avx2|avx512] [--profile] "
           "[--out <file>] [--verify off|fast|full] [--trace <out.json>]\n";
    return 2;
  }
  std::optional<std::string> ModelText =
      readFileText(Args.Positional[1], Err);
  if (!ModelText)
    return 1;
  {
    // Parse up front so frontend diagnostics keep their CLI formatting
    // (the engine would report the same failure, but over its own path).
    std::string ParseError;
    if (!parseModelDsl(*ModelText, &ParseError)) {
      Err += "error: " + Args.Positional[1] + ": " + ParseError + "\n";
      return 1;
    }
  }
  std::optional<Graph> G =
      loadGraph(Args.value("graph", "synth:coauthors"), Err);
  if (!G)
    return 1;

  int64_t KIn = Args.intValue("kin", 32);
  int64_t KOut = Args.intValue("kout", 32);
  std::string Hw = Args.value("hw", "cpu");
  if (Hw != "cpu" && Hw != "a100" && Hw != "h100") {
    Err += "error: unknown hardware '" + Hw + "'\n";
    return 2;
  }
  bool Training = Args.hasFlag("train");
  std::optional<VerifyLevel> Verify = verifyFlag(Args, Err);
  if (!Verify)
    return 2;

  OptimizerOptions Options;
  Options.Hw = HardwareModel::byName(Hw);
  Options.Iterations = static_cast<int>(Args.intValue("iters", 100));
  Options.Verify = *Verify;

  // One-shot runs go through the same Engine/Session layer the daemon
  // serves from — one code path, bitwise-identical answers.
  serve::EngineOptions EngOpts;
  EngOpts.Hw = Options.Hw;
  EngOpts.Iterations = Options.Iterations;
  EngOpts.Verify = Options.Verify;
  serve::Engine Engine(EngOpts);

  serve::JobRequest Req;
  Req.ModelText = *ModelText;
  Req.GraphSpec = Args.value("graph", "synth:coauthors");
  Req.KIn = KIn;
  Req.KOut = KOut;
  Req.Training = Training;
  Req.WantOutput = Args.hasFlag("out");

  // The session builds on the graph loaded above instead of loading the
  // spec a second time.
  std::string SessionError;
  serve::CompileResponse Compile;
  std::shared_ptr<serve::Session> S =
      Engine.session(Req, SessionError, nullptr, &Compile, &*G);
  if (!S) {
    Err += "error: " + SessionError + "\n";
    return 1;
  }

  Out += "graph '" + G->name() + "': " + std::to_string(G->numNodes()) +
         " nodes, " + std::to_string(G->numEdges()) + " edges (density " +
         formatDouble(G->stats().Density, 5) + ", avg degree " +
         formatDouble(G->stats().AvgDegree, 1) + ")\n";
  Out += "offline: " + std::to_string(Compile.Enumerated) +
         " enumerated -> " + std::to_string(Compile.Promoted) +
         " promoted\n";

  const Selection &Sel = S->selection();
  Out += "online: candidate #" + std::to_string(Sel.PlanIndex) + " (" +
         (Sel.UsedCostModels ? "cost models" : "embedding-size condition") +
         "), predicted " +
         formatDouble(Sel.PredictedSeconds * 1e3, 3) + " ms for " +
         std::to_string(Options.Iterations) + " iterations\n";
  Out += "selected composition:\n" +
         S->optimizer().promoted()[Sel.PlanIndex].toString();

  serve::RunResponse R = S->run(Req.WantOutput);
  double PerIter = R.ForwardSeconds + R.BackwardSeconds;
  double Total = R.SetupSeconds + PerIter * Options.Iterations;
  Out += std::string(Training ? "fwd+bwd" : "forward") + ": " +
         formatDouble(PerIter * 1e3, 3) + " ms/iteration (+ " +
         formatDouble(R.SetupSeconds * 1e3, 3) + " ms one-time setup); " +
         std::to_string(Options.Iterations) + "-iteration total " +
         formatDouble(Total * 1e3, 2) + " ms\n";
  Out += "output: " + std::to_string(R.Rows) + " x " +
         std::to_string(R.Cols) + "\n";

  if (Args.hasFlag("out")) {
    std::string OutPath = Args.value("out");
    if (OutPath.empty()) {
      Err += "error: --out expects an output path (--out=result.bin)\n";
      return 2;
    }
    if (!writeOutputFile(OutPath, R.Rows, R.Cols, R.Output, Err))
      return 1;
    Out += "wrote output (" + std::to_string(R.Rows) + " x " +
           std::to_string(R.Cols) + ") to " + OutPath + "\n";
  }

  if (Args.hasFlag("profile"))
    return profileRun(*S, Options.Hw, Training, Out, Err);
  return 0;
}

/// `granii-cli serve`: run the plan-serving daemon on a Unix socket until
/// SIGINT/SIGTERM or a client's shutdown verb drains it.
int cmdServe(const ArgParser &Args, std::string &Out, std::string &Err) {
  if (int Code = rejectUnknownFlags(Args, "serve",
                                    {"socket", "workers", "plan-cache",
                                     "sessions", "iters", "verify", "threads",
                                     "isa", "trace"},
                                    Err))
    return Code;
  if (int Code = rejectMalformedInts(
          Args, {"workers", "plan-cache", "sessions", "iters"}, Err))
    return Code;
  std::string Socket = Args.value("socket");
  if (Socket.empty()) {
    Err += "usage: granii-cli serve --socket <path> [--workers N] "
           "[--plan-cache N] [--sessions N] [--iters N] "
           "[--verify off|fast|full] [--threads N] "
           "[--isa scalar|avx2|avx512]\n";
    return 2;
  }
  std::optional<VerifyLevel> Verify = verifyFlag(Args, Err);
  if (!Verify)
    return 2;

  serve::ServerOptions Options;
  Options.SocketPath = Socket;
  Options.ConnWorkers = static_cast<int>(Args.intValue("workers", 8));
  Options.Engine.Verify = *Verify;
  Options.Engine.Iterations =
      static_cast<int>(Args.intValue("iters", 100));
  Options.Engine.PlanCacheCapacity = static_cast<size_t>(
      std::max<int64_t>(1, Args.intValue("plan-cache", 16)));
  Options.Engine.SessionCapacity =
      static_cast<size_t>(std::max<int64_t>(1, Args.intValue("sessions", 8)));

  serve::Server Server(Options);
  std::string ServeError;
  if (!Server.serveForever(&ServeError)) {
    Err += "error: " + ServeError + "\n";
    return 1;
  }
  serve::ServerCounters Counters = Server.counters();
  Out += "granii-serve drained: " +
         std::to_string(Counters.RequestsServed) + " request(s) served (" +
         std::to_string(Counters.RunRequests) + " run, " +
         std::to_string(Counters.CompileRequests) + " compile, " +
         std::to_string(Counters.ErrorResponses) + " error(s))\n";
  return 0;
}

/// `granii-cli call`: one request against a running daemon — run (default),
/// compile (--compile-only), stats (--stats), or shutdown (--shutdown).
int cmdCall(const ArgParser &Args, std::string &Out, std::string &Err) {
  if (int Code = rejectUnknownFlags(
          Args, "call",
          {"socket", "graph", "kin", "kout", "train", "seed", "out",
           "compile-only", "stats", "shutdown", "threads", "isa", "trace"},
          Err))
    return Code;
  if (int Code = rejectMalformedInts(Args, {"kin", "kout", "seed"}, Err))
    return Code;
  std::string Socket = Args.value("socket");
  if (Socket.empty()) {
    Err += "usage: granii-cli call --socket <path> <model.gnn> "
           "[--graph <mtx|synth:name>] [--kin N] [--kout N] [--train] "
           "[--seed N] [--out <file>] [--compile-only] | --stats | "
           "--shutdown\n";
    return 2;
  }

  serve::Client Client;
  std::string CallError;
  if (!Client.connect(Socket, &CallError)) {
    Err += "error: " + CallError + "\n";
    return 1;
  }

  if (Args.hasFlag("stats")) {
    serve::StatsResponse Resp;
    if (!Client.stats(Resp, &CallError)) {
      Err += "error: " + CallError + "\n";
      return 1;
    }
    if (!Resp.Status.Ok) {
      Err += "error: daemon: " + Resp.Status.Error + "\n";
      return 1;
    }
    Out += "daemon: " + std::to_string(Resp.RequestsServed) +
           " request(s) served (" + std::to_string(Resp.RunRequests) +
           " run, " + std::to_string(Resp.CompileRequests) + " compile, " +
           std::to_string(Resp.ErrorResponses) + " error(s)), uptime " +
           formatDouble(Resp.UptimeSeconds, 1) + " s\n";
    Out += "sessions: " + std::to_string(Resp.SessionsLive) + " live, " +
           std::to_string(Resp.SessionHits) + " hit(s), " +
           std::to_string(Resp.SessionEvictions) + " eviction(s)\n";
    Out += "plan cache: " + std::to_string(Resp.PlanCacheHits) +
           " hit(s), " + std::to_string(Resp.PlanCacheMisses) + " miss(es), " +
           std::to_string(Resp.PlanCacheEvictions) + " eviction(s)\n";
    Out += "pool: " + std::to_string(Resp.Threads) + " thread(s), isa " +
           Resp.Isa + "\n";
    return 0;
  }

  if (Args.hasFlag("shutdown")) {
    serve::ShutdownResponse Resp;
    if (!Client.shutdown(Resp, &CallError)) {
      Err += "error: " + CallError + "\n";
      return 1;
    }
    if (!Resp.Status.Ok) {
      Err += "error: daemon: " + Resp.Status.Error + "\n";
      return 1;
    }
    Out += "daemon acknowledged shutdown\n";
    return 0;
  }

  if (Args.Positional.size() < 2) {
    Err += "error: call needs a model file (or --stats / --shutdown)\n";
    return 2;
  }
  std::optional<std::string> ModelText =
      readFileText(Args.Positional[1], Err);
  if (!ModelText)
    return 1;

  serve::JobRequest Req;
  Req.ModelText = *ModelText;
  Req.GraphSpec = Args.value("graph", "synth:coauthors");
  Req.KIn = Args.intValue("kin", 32);
  Req.KOut = Args.intValue("kout", 32);
  Req.Training = Args.hasFlag("train");
  Req.Seed = static_cast<uint64_t>(Args.intValue("seed", 1));
  Req.WantOutput = Args.hasFlag("out");

  if (Args.hasFlag("compile-only")) {
    serve::CompileResponse Resp;
    if (!Client.compile(Req, Resp, &CallError)) {
      Err += "error: " + CallError + "\n";
      return 1;
    }
    if (!Resp.Status.Ok) {
      Err += "error: daemon: " + Resp.Status.Error + "\n";
      return 1;
    }
    Out += "compile: " + std::to_string(Resp.Enumerated) +
           " enumerated -> " + std::to_string(Resp.Promoted) +
           " promoted (plan cache " +
           (Resp.PlanCacheHit ? "hit" : "miss") +
           ", " + formatDouble(Resp.CompileSeconds * 1e3, 3) + " ms)\n";
    Out += "cache key: " + Resp.CacheKey + "\n";
    return 0;
  }

  serve::RunResponse Resp;
  if (!Client.run(Req, Resp, &CallError)) {
    Err += "error: " + CallError + "\n";
    return 1;
  }
  if (!Resp.Status.Ok) {
    Err += "error: daemon: " + Resp.Status.Error + "\n";
    return 1;
  }
  Out += "call: candidate #" + std::to_string(Resp.PlanIndex) + " (" +
         (Resp.UsedCostModels ? "cost models" : "embedding-size condition") +
         "), session " + (Resp.SessionCacheHit ? "warm" : "cold") +
         ", plan cache " + (Resp.PlanCacheHit ? "hit" : "miss") + "\n";
  Out += std::string(Req.Training ? "fwd+bwd" : "forward") + ": " +
         formatDouble((Resp.ForwardSeconds + Resp.BackwardSeconds) * 1e3, 3) +
         " ms/iteration (+ " + formatDouble(Resp.SetupSeconds * 1e3, 3) +
         " ms one-time setup); run #" + std::to_string(Resp.RunIndex) +
         ", steady-state allocations: " +
         std::to_string(Resp.SteadyAllocations) + "\n";
  Out += "output: " + std::to_string(Resp.Rows) + " x " +
         std::to_string(Resp.Cols) + "\n";

  if (Args.hasFlag("out")) {
    std::string OutPath = Args.value("out");
    if (OutPath.empty()) {
      Err += "error: --out expects an output path (--out=result.bin)\n";
      return 2;
    }
    if (!writeOutputFile(OutPath, Resp.Rows, Resp.Cols, Resp.Output, Err))
      return 1;
    Out += "wrote output (" + std::to_string(Resp.Rows) + " x " +
           std::to_string(Resp.Cols) + ") to " + OutPath + "\n";
  }
  return 0;
}

int cmdGraphGen(const ArgParser &Args, std::string &Out, std::string &Err) {
  if (int Code = rejectUnknownFlags(Args, "graphgen",
                                    {"threads", "isa", "trace"}, Err))
    return Code;
  if (Args.Positional.size() < 3) {
    Err += "usage: granii-cli graphgen <name> <out.mtx>\n";
    return 2;
  }
  std::optional<Graph> G = loadGraph("synth:" + Args.Positional[1], Err);
  if (!G)
    return 1;
  std::string WriteError;
  if (!writeMatrixMarket(*G, Args.Positional[2], &WriteError)) {
    Err += "error: " + WriteError + "\n";
    return 1;
  }
  Out += "wrote " + G->name() + " (" + std::to_string(G->numNodes()) +
         " nodes, " + std::to_string(G->numEdges()) + " edges) to " +
         Args.Positional[2] + "\n";
  return 0;
}

} // namespace

int granii::cli::runCli(const std::vector<std::string> &Args, std::string &Out,
                        std::string &Err) {
  if (Args.empty()) {
    Err += "usage: granii-cli <compile|run|verify|graphgen|serve|call> "
           "[--threads N] [--isa scalar|avx2|avx512] ...\n";
    return 2;
  }
  ArgParser Parsed(Args);
  // Global flag: pin the kernel thread pool before any command executes.
  // Overrides GRANII_NUM_THREADS. Non-numeric input is rejected; numeric
  // values outside [1, maxConfigurableThreads()] clamp with a warning.
  if (Parsed.hasFlag("threads")) {
    std::string Warning;
    int Threads = parseThreadCount(Parsed.value("threads"), /*Fallback=*/0,
                                   &Warning);
    if (Threads <= 0) {
      Err += "error: --threads expects a positive integer\n";
      return 2;
    }
    if (!Warning.empty())
      Err += Diag{DiagSeverity::Warning, "cli", "--threads", Warning,
                  "pass a value between 1 and " +
                      std::to_string(maxConfigurableThreads())}
                 .toString() +
             "\n";
    ThreadPool::get().setNumThreads(Threads);
  }
  // Global flag: force a SIMD dispatch level (overrides both the CPUID
  // detection and the GRANII_ISA environment variable). Levels the host
  // cannot execute are rejected rather than clamped: an explicit flag
  // asking for unavailable instructions is a mistake worth stopping on.
  if (Parsed.hasFlag("isa")) {
    std::string Name = Parsed.value("isa");
    std::optional<kernels::IsaLevel> Level = kernels::parseIsaLevel(Name);
    if (!Level) {
      Err += "error: --isa expects scalar, avx2, or avx512\n";
      return 2;
    }
    if (!kernels::setIsaLevel(*Level)) {
      Err += "error: ISA level '" + Name +
             "' is not available on this host (detected: " +
             std::string(kernels::isaLevelName(kernels::detectedIsaLevel())) +
             ")\n";
      return 2;
    }
  }
  // Global flag: record a Chrome-trace of the optimizer pipeline and the
  // executor, written as Perfetto-loadable JSON when the command finishes.
  // The file is written even when the command fails so a partial trace is
  // available for diagnosing the failure.
  std::string TracePath;
  if (Parsed.hasFlag("trace")) {
    TracePath = Parsed.value("trace");
    if (TracePath.empty()) {
      Err += "error: --trace expects an output path (--trace=out.json)\n";
      return 2;
    }
    Trace::get().start();
  }
  const std::string &Command = Parsed.Positional.empty()
                                   ? Args[0]
                                   : Parsed.Positional[0];
  int Code;
  if (Command == "compile")
    Code = cmdCompile(Parsed, Out, Err);
  else if (Command == "run")
    Code = cmdRun(Parsed, Out, Err);
  else if (Command == "verify")
    Code = cmdVerify(Parsed, Out, Err);
  else if (Command == "graphgen")
    Code = cmdGraphGen(Parsed, Out, Err);
  else if (Command == "serve")
    Code = cmdServe(Parsed, Out, Err);
  else if (Command == "call")
    Code = cmdCall(Parsed, Out, Err);
  else {
    Err += "error: unknown command '" + Command + "'\n";
    Code = 2;
  }
  if (!TracePath.empty()) {
    Trace::get().stop();
    std::string WriteError;
    if (!Trace::get().writeJson(TracePath, &WriteError)) {
      Err += "error: " + WriteError + "\n";
      if (Code == 0)
        Code = 1;
    } else {
      Out += "trace: " + std::to_string(Trace::get().eventCount()) +
             " events -> " + TracePath + "\n";
    }
  }
  return Code;
}
