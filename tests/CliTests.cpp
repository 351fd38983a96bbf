//===- CliTests.cpp - Tests for the granii-cli driver ------------------------===//

#include "CliDriver.h"

#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace granii::cli;

namespace {

/// Writes a DSL model file into the test temp dir and returns its path.
std::string writeModelFile(const std::string &Name,
                           const std::string &Contents) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  std::ofstream Out(Path);
  Out << Contents;
  return Path;
}

/// The canonical GCN example, shared with the CI smoke test and the docs
/// (GRANII_EXAMPLES_DIR is injected by tests/CMakeLists.txt).
std::string gcnExamplePath() {
  return std::string(GRANII_EXAMPLES_DIR) + "/gcn.gnn";
}

/// The standard GAT layer example (attention and edge backward kernels).
std::string gatExamplePath() {
  return std::string(GRANII_EXAMPLES_DIR) + "/gat.gnn";
}

/// How many spans of each name the Chrome trace at \p Path holds.
std::map<std::string, int> spanCounts(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Contents;
  Contents << In.rdbuf();
  std::string Error;
  std::optional<granii::JsonValue> Doc =
      granii::parseJson(Contents.str(), &Error);
  EXPECT_TRUE(Doc) << Error;
  std::map<std::string, int> Counts;
  if (Doc)
    for (const granii::JsonValue &E : Doc->find("traceEvents")->array())
      ++Counts[E.stringOr("name", "")];
  return Counts;
}

} // namespace

TEST(Cli, NoArgsPrintsUsage) {
  std::string Out, Err;
  EXPECT_EQ(runCli({}, Out, Err), 2);
  EXPECT_NE(Err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandRejected) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"frobnicate"}, Out, Err), 2);
  EXPECT_NE(Err.find("unknown command"), std::string::npos);
}

TEST(Cli, CompileReportsOfflineStage) {
  std::string Path = gcnExamplePath();
  std::string Out, Err;
  ASSERT_EQ(runCli({"compile", Path}, Out, Err), 0) << Err;
  EXPECT_NE(Out.find("model 'GCN'"), std::string::npos);
  EXPECT_NE(Out.find("16 compositions enumerated"), std::string::npos);
  EXPECT_NE(Out.find("4 promoted"), std::string::npos);
  EXPECT_NE(Out.find("scale_both"), std::string::npos);
}

// The compiled plan is the promoted set the runtime dispatches and
// interprets; compile prints no second rendering of it as code.
TEST(Cli, CompileRejectsCodegenAsAnUnknownFlag) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"compile", gcnExamplePath(), "--codegen"}, Out, Err), 2);
  EXPECT_NE(Err.find("unknown flag for 'compile'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("--codegen"), std::string::npos) << Err;
}

// Every compile runs every check, so no command takes a verification
// level: the level flag is an unknown flag wherever it was accepted.
TEST(Cli, VerifyFlagIsAnUnknownFlag) {
  const std::string Flag = "--verify";
  std::string Model = gcnExamplePath();
  const std::vector<std::pair<std::vector<std::string>, std::string>> Cases =
      {{{"compile", Model, Flag, "full"}, "compile"},
       {{"run", Model, "--graph", "synth:mycielskian", Flag, "full"}, "run"},
       {{"serve", "--socket", "/tmp/never-bound.sock", Flag, "full"},
        "serve"}};
  for (const auto &[Args, Cmd] : Cases) {
    std::string Out, Err;
    EXPECT_EQ(runCli(Args, Out, Err), 2) << Cmd;
    EXPECT_NE(Err.find("unknown flag for '" + Cmd + "'"), std::string::npos)
        << Cmd << ": " << Err;
    EXPECT_NE(Err.find(Flag), std::string::npos) << Cmd << ": " << Err;
    EXPECT_TRUE(Out.empty()) << Cmd << ": " << Out;
  }
}

TEST(Cli, CompileWithDotEmitsDigraphs) {
  std::string Path = gcnExamplePath();
  std::string Out, Err;
  ASSERT_EQ(runCli({"compile", Path, "--dot"}, Out, Err), 0) << Err;
  EXPECT_NE(Out.find("digraph \"GCN_ir\""), std::string::npos);
  EXPECT_NE(Out.find("digraph \"GCN_plan0\""), std::string::npos);
}

TEST(Cli, CompileMissingFileFails) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"compile", "/nonexistent/m.gnn"}, Out, Err), 1);
  EXPECT_NE(Err.find("cannot open"), std::string::npos);
}

TEST(Cli, CompileParseErrorSurfacesDiagnostic) {
  std::string Path = writeModelFile("cli_bad.gnn", "model X { output y; }");
  std::string Out, Err;
  EXPECT_EQ(runCli({"compile", Path}, Out, Err), 1);
  EXPECT_NE(Err.find("undefined name 'y'"), std::string::npos);
}

TEST(Cli, RunOnSyntheticGraph) {
  std::string Path = gcnExamplePath();
  std::string Out, Err;
  ASSERT_EQ(runCli({"run", Path, "--graph", "synth:belgium-osm", "--kin",
                    "16", "--kout", "32", "--hw", "h100", "--iters", "50"},
                   Out, Err),
            0)
      << Err;
  EXPECT_NE(Out.find("graph 'belgium-osm'"), std::string::npos);
  EXPECT_NE(Out.find("candidate #"), std::string::npos);
  EXPECT_NE(Out.find("output: 4096 x 32"), std::string::npos);
}

TEST(Cli, RunProfileReportsStepsAndZeroAllocations) {
  std::string Path = gcnExamplePath();
  std::string Out, Err;
  ASSERT_EQ(runCli({"run", Path, "--graph", "synth:coauthors", "--kin", "16",
                    "--kout", "8", "--profile"},
                   Out, Err),
            0)
      << Err;
  EXPECT_NE(Out.find("per-step profile (steady state):"), std::string::npos);
  // Table columns and at least one kernel row.
  EXPECT_NE(Out.find("GFLOP/s"), std::string::npos);
  EXPECT_NE(Out.find("gemm"), std::string::npos);
  // Each step's prediction from the selecting cost model sits beside its
  // measured time, and the forward pass totals both.
  EXPECT_NE(Out.find("pred ms"), std::string::npos);
  EXPECT_NE(Out.find("meas/pred"), std::string::npos);
  EXPECT_NE(Out.find("forward: measured "), std::string::npos) << Out;
  EXPECT_NE(Out.find(" ms vs predicted "), std::string::npos) << Out;
  EXPECT_NE(Out.find("(measured/predicted "), std::string::npos) << Out;
  // Planned memory line and the zero-allocation assertion.
  EXPECT_NE(Out.find("planned memory: peak"), std::string::npos);
  EXPECT_NE(Out.find("steady-state allocations: 0"), std::string::npos);
  EXPECT_EQ(Err.find("steady-state run performed"), std::string::npos);
  // Beside it, the process's first-touch cost so far.
  EXPECT_NE(Out.find("steady-state allocations: 0, minor page faults: "),
            std::string::npos)
      << Out;
}

// --profile reports the session's own warm run: the plan executes twice
// (the run and the profiled one), both through the session, on one arena.
TEST(Cli, ProfileExecutesThePlanTwiceThroughTheSession) {
  const std::string TracePath =
      ::testing::TempDir() + "/cli-profile.trace.json";
  const std::vector<std::vector<std::string>> Cases = {
      {"run", gcnExamplePath(), "--graph", "synth:coauthors", "--kin", "16",
       "--kout", "8", "--profile", "--trace=" + TracePath},
      {"run", gatExamplePath(), "--graph", "synth:coauthors", "--kin", "16",
       "--kout", "8", "--profile", "--trace=" + TracePath, "--train"},
  };
  for (const std::vector<std::string> &Args : Cases) {
    const bool Training = Args.back() == "--train";
    SCOPED_TRACE(Args[1] + (Training ? " --train" : ""));
    std::string Out, Err;
    ASSERT_EQ(runCli(Args, Out, Err), 0) << Err;
    std::map<std::string, int> Spans = spanCounts(TracePath);
    EXPECT_EQ(Spans["forward"], 2);
    EXPECT_EQ(Spans["session-run"], 2);
    EXPECT_EQ(Spans["backward"], Training ? 2 : 0);
    // The one arena is planned and checked once, by the first run.
    EXPECT_EQ(Spans["verify-schedule"], 1);
    std::remove(TracePath.c_str());
  }
}

// The profile tables name each step's value the way the printed plan does:
// "v<id>" for computed values, the leaf name for inputs, so a row can be
// found in the "selected composition" listing above it.
TEST(Cli, TrainingProfileNamesValuesLikeThePlan) {
  std::string Out, Err;
  ASSERT_EQ(runCli({"run", gatExamplePath(), "--graph", "synth:coauthors",
                    "--kin", "16", "--kout", "8", "--train", "--profile"},
                   Out, Err),
            0)
      << Err;
  const size_t Listing = Out.find("selected composition:");
  const size_t Forward = Out.find("per-step profile (steady state):");
  const size_t Backward = Out.find("backward profile (steady state):");
  ASSERT_NE(Listing, std::string::npos);
  ASSERT_NE(Forward, std::string::npos);
  ASSERT_NE(Backward, std::string::npos);
  ASSERT_LT(Listing, Forward);
  ASSERT_LT(Forward, Backward);
  const std::string Plan = Out.substr(Listing, Forward - Listing);
  const std::string ForwardTable = Out.substr(Forward, Backward - Forward);
  const std::string BackwardTable = Out.substr(Backward);
  // The output step's operand ("v12 = relu(v11)" gives v11) is a forward
  // step's value and the value the output step's backward primitive, the
  // first after the seed's, adds into.
  const size_t OutputAt = Plan.find("output: ");
  ASSERT_NE(OutputAt, std::string::npos);
  const std::string OutputId =
      Plan.substr(OutputAt + 8, Plan.find('\n', OutputAt) - OutputAt - 8);
  const size_t StepAt = Plan.find("  " + OutputId + " = ");
  ASSERT_NE(StepAt, std::string::npos) << Plan;
  const size_t Open = Plan.find('(', StepAt);
  const std::string Operand =
      Plan.substr(Open + 1, Plan.find_first_of(",)", Open) - Open - 1);
  ASSERT_EQ(Operand.rfind("v", 0), 0u) << Plan;
  EXPECT_NE(ForwardTable.find(" " + Operand + " "), std::string::npos)
      << ForwardTable;
  EXPECT_NE(BackwardTable.find(" " + Operand + " "), std::string::npos)
      << BackwardTable;
  // Weight and attention gradients keep their leaf names; no row reads the
  // enumerator's placeholder name.
  EXPECT_NE(BackwardTable.find(" W "), std::string::npos) << BackwardTable;
  EXPECT_NE(BackwardTable.find(" asrc "), std::string::npos) << BackwardTable;
  EXPECT_EQ(ForwardTable.find(" t "), std::string::npos) << ForwardTable;
  EXPECT_EQ(BackwardTable.find(" t "), std::string::npos) << BackwardTable;
}

TEST(Cli, RunTrainingMode) {
  std::string Path = gcnExamplePath();
  std::string Out, Err;
  ASSERT_EQ(runCli({"run", Path, "--graph", "synth:coauthors", "--kin", "8",
                    "--kout", "8", "--train"},
                   Out, Err),
            0)
      << Err;
  EXPECT_NE(Out.find("fwd+bwd"), std::string::npos);
}

// Execution keeps the graph's vertex order, so run and call have no
// --reorder flag: it fails like any unknown flag.
TEST(Cli, RunAndCallRejectReorderAsAnUnknownFlag) {
  const std::vector<std::vector<std::string>> Cases = {
      {"run", gcnExamplePath(), "--graph", "synth:coauthors", "--reorder",
       "rcm"},
      {"call", "--socket", "/tmp/granii-no-such-daemon.sock",
       gcnExamplePath(), "--reorder", "rcm"},
  };
  for (const std::vector<std::string> &Args : Cases) {
    std::string Out, Err;
    EXPECT_EQ(runCli(Args, Out, Err), 2) << Args[0];
    EXPECT_NE(Err.find("unknown flag for '" + Args[0] + "'"),
              std::string::npos)
        << Err;
    EXPECT_NE(Err.find("--reorder"), std::string::npos) << Err;
  }
}

TEST(Cli, RunRejectsUnknownHardware) {
  std::string Path = gcnExamplePath();
  std::string Out, Err;
  EXPECT_EQ(runCli({"run", Path, "--graph", "synth:coauthors", "--hw",
                    "tpu"},
                   Out, Err),
            2);
  EXPECT_NE(Err.find("unknown hardware"), std::string::npos);
}

TEST(Cli, RunRejectsUnknownSyntheticGraph) {
  std::string Path = gcnExamplePath();
  std::string Out, Err;
  EXPECT_EQ(
      runCli({"run", Path, "--graph", "synth:nosuch"}, Out, Err), 1);
  EXPECT_NE(Err.find("unknown synthetic graph"), std::string::npos);
}

// An embedding size no host can hold fails as a request error (exit 1)
// instead of aborting in an allocation.
TEST(Cli, RunRejectsAnOversizedEmbedding) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"run", gcnExamplePath(), "--graph", "synth:coauthors",
                    "--kin", "1099511627776", "--kout", "8"},
                   Out, Err),
            1);
  EXPECT_NE(Err.find("error:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("1099511627776x8"), std::string::npos) << Err;
}

TEST(Cli, GraphGenRoundTripsThroughRun) {
  std::string MtxPath = ::testing::TempDir() + "/cli_graph.mtx";
  std::string Out, Err;
  ASSERT_EQ(runCli({"graphgen", "coauthors", MtxPath}, Out, Err), 0) << Err;
  EXPECT_NE(Out.find("wrote coauthors"), std::string::npos);

  std::string ModelPath = gcnExamplePath();
  std::string Out2, Err2;
  ASSERT_EQ(runCli({"run", ModelPath, "--graph", MtxPath, "--kin", "8",
                    "--kout", "8"},
                   Out2, Err2),
            0)
      << Err2;
  EXPECT_NE(Out2.find("candidate #"), std::string::npos);
  std::remove(MtxPath.c_str());
}

TEST(Cli, CustomAttentionModelCompiles) {
  const char *GatSource = R"(model MiniGAT {
    input graph A;
    input features H;
    param weight W;
    param attn_src asrc;
    param attn_dst adst;
    theta = matmul(H, W);
    alpha = attention(A, theta, asrc, adst);
    output relu(aggregate(alpha, theta));
  })";
  std::string Path = writeModelFile("cli_gat.gnn", GatSource);
  std::string Out, Err;
  ASSERT_EQ(runCli({"compile", Path}, Out, Err), 0) << Err;
  EXPECT_NE(Out.find("2 compositions enumerated"), std::string::npos);
  EXPECT_NE(Out.find("edge_softmax"), std::string::npos);
}

TEST(Cli, RunDefaultsToCoauthorsGraph) {
  std::string Out, Err;
  ASSERT_EQ(runCli({"run", gcnExamplePath(), "--kin", "8", "--kout", "8"},
                   Out, Err),
            0)
      << Err;
  EXPECT_NE(Out.find("graph 'coauthors'"), std::string::npos);
}

TEST(Cli, RunWithTraceWritesPerfettoJson) {
  std::string TracePath = ::testing::TempDir() + "/cli.trace.json";
  std::string MtxPath = ::testing::TempDir() + "/cli_trace_graph.mtx";
  std::string OutPath = ::testing::TempDir() + "/cli_trace_out.bin";
  std::string Out, Err;
  ASSERT_EQ(runCli({"graphgen", "coauthors", MtxPath}, Out, Err), 0) << Err;
  ASSERT_EQ(runCli({"run", gcnExamplePath(), "--graph", MtxPath, "--kin",
                    "16", "--kout", "8", "--out", OutPath,
                    "--trace=" + TracePath},
                   Out, Err),
            0)
      << Err;
  EXPECT_NE(Out.find("trace: "), std::string::npos);

  std::ifstream In(TracePath);
  ASSERT_TRUE(In.good());
  std::ostringstream Contents;
  Contents << In.rdbuf();
  std::string Error;
  std::optional<granii::JsonValue> Doc =
      granii::parseJson(Contents.str(), &Error);
  ASSERT_TRUE(Doc) << Error;

  // Optimizer-phase spans, counter-annotated executor step spans, and a
  // span for each cold phase around them.
  bool SawPhase = false, SawStepWithCounters = false;
  std::set<std::string> SpanNames;
  for (const granii::JsonValue &E : Doc->find("traceEvents")->array()) {
    std::string Cat = E.stringOr("cat", "");
    std::string Name = E.stringOr("name", "");
    if (Cat == "optimizer" &&
        (Name == "parse" || Name == "enumerate" || Name == "prune" ||
         Name == "cost-model"))
      SawPhase = true;
    if (Cat == "executor" && E.find("args") &&
        E.find("args")->find("charged_seconds"))
      SawStepWithCounters = true;
    if (Name == "graph-load") {
      // coauthors: 3500 nodes, 28152 stored edges.
      const granii::JsonValue *Args = E.find("args");
      ASSERT_TRUE(Args && Args->find("nodes") && Args->find("edges"));
      EXPECT_EQ(Args->find("nodes")->number(), 3500.0);
      EXPECT_EQ(Args->find("edges")->number(), 28152.0);
    }
    SpanNames.insert(Name);
  }
  EXPECT_TRUE(SawPhase);
  EXPECT_TRUE(SawStepWithCounters);
  for (const char *Phase :
       {"graph-load", "self-loops", "params", "write-output"})
    EXPECT_TRUE(SpanNames.count(Phase) != 0) << Phase;
  // The plan cache keys on the model text: no request hashes the graph.
  EXPECT_EQ(SpanNames.count("fingerprint"), 0u);
  std::remove(TracePath.c_str());
  std::remove(MtxPath.c_str());
  std::remove(OutPath.c_str());
}

TEST(Cli, TraceFlagRequiresAPath) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"run", gcnExamplePath(), "--trace"}, Out, Err), 2);
  EXPECT_NE(Err.find("--trace expects an output path"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Unknown-flag rejection (one regression test per subcommand)
//===----------------------------------------------------------------------===//

TEST(Cli, EverySubcommandRejectsUnknownFlags) {
  struct Case {
    std::vector<std::string> Args;
    const char *Cmd;
  };
  std::string Model = gcnExamplePath();
  const std::vector<Case> Cases = {
      {{"compile", Model, "--frobnicate"}, "compile"},
      {{"run", Model, "--frobnicate"}, "run"},
      {{"verify", Model, "--frobnicate"}, "verify"},
      {{"graphgen", "mycielskian", "/dev/null", "--frobnicate"}, "graphgen"},
      {{"serve", "--socket", "/tmp/never-bound.sock", "--frobnicate"},
       "serve"},
      {{"call", "--socket", "/tmp/never-bound.sock", "--frobnicate"}, "call"},
  };
  for (const Case &C : Cases) {
    std::string Out, Err;
    EXPECT_EQ(runCli(C.Args, Out, Err), 2) << C.Cmd;
    EXPECT_NE(Err.find("unknown flag for '" + std::string(C.Cmd) + "'"),
              std::string::npos)
        << C.Cmd << ": " << Err;
    EXPECT_NE(Err.find("--frobnicate"), std::string::npos) << C.Cmd;
    // The diagnostic lists what IS supported, so typos are self-serviceable.
    EXPECT_NE(Err.find("supported flags"), std::string::npos) << C.Cmd;
  }
}

TEST(Cli, UnknownFlagDiagnosticNamesEveryOffender) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"compile", gcnExamplePath(), "--bogus-one", "--bogus-two"},
                   Out, Err),
            2);
  EXPECT_NE(Err.find("--bogus-one"), std::string::npos);
  EXPECT_NE(Err.find("--bogus-two"), std::string::npos);
}

// A present but malformed integer flag fails like an unknown one: exit 2
// with a diagnostic naming the flag and its text, instead of silently
// running with the default (--kin 3x2 used to run with K_in 32).
TEST(Cli, RunRejectsMalformedIntegerFlags) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"run", gcnExamplePath(), "--graph", "synth:mycielskian",
                    "--kin", "3x2", "--iters", "ten"},
                   Out, Err),
            2);
  EXPECT_NE(Err.find("--kin"), std::string::npos) << Err;
  EXPECT_NE(Err.find("'3x2'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("--iters"), std::string::npos) << Err;
  EXPECT_NE(Err.find("'ten'"), std::string::npos) << Err;
  EXPECT_EQ(Out.find("forward:"), std::string::npos) << "it ran anyway";
}

// Selection multiplies every per-iteration cost by the --iters horizon, so
// zero, a negative count or one that wraps in an int would drop or invert
// that term: each is rejected like a malformed integer, before anything
// runs or binds a socket.
TEST(Cli, RunAndServeRejectAHorizonOutsideOneToIntMax) {
  for (const char *Iters : {"0", "-5", "3000000000"}) {
    const std::vector<std::vector<std::string>> Cases = {
        {"run", gcnExamplePath(), "--graph", "synth:mycielskian", "--iters",
         Iters},
        {"serve", "--socket", "/nonexistent-dir/granii.sock", "--iters", Iters},
    };
    for (const std::vector<std::string> &Args : Cases) {
      SCOPED_TRACE(Args[0] + " --iters " + Iters);
      std::string Out, Err;
      EXPECT_EQ(runCli(Args, Out, Err), 2);
      EXPECT_NE(Err.find("--iters"), std::string::npos) << Err;
      EXPECT_NE(Err.find(std::string("got ") + Iters), std::string::npos)
          << Err;
      EXPECT_TRUE(Out.empty()) << Out;
    }
  }
}

// Each connection worker is a thread the daemon starts before it serves,
// so a worker count outside [1, maxConfigurableThreads()] is rejected like a
// bad --iters, before a socket is bound or a thread started (the socket
// path's directory does not exist, so nothing could start either way).
TEST(Cli, ServeRejectsAWorkerCountOutsideItsRange) {
  for (const std::string &Workers :
       {std::string("0"), std::string("-3"),
        std::to_string(granii::maxConfigurableThreads() + 1),
        std::string("3000000000")}) {
    SCOPED_TRACE("--workers " + Workers);
    std::string Out, Err;
    EXPECT_EQ(runCli({"serve", "--socket", "/nonexistent-dir/g.sock",
                      "--workers", Workers},
                     Out, Err),
              2);
    EXPECT_NE(Err.find("--workers"), std::string::npos) << Err;
    EXPECT_NE(Err.find("got " + Workers), std::string::npos) << Err;
    EXPECT_TRUE(Out.empty()) << Out;
  }
}

// A session capacity outside [1, INT32_MAX] exits 2 before the daemon
// starts; the socket cannot be bound either, so nothing starts on a build
// that instead clamped the count and failed at the bind (exit 1).
TEST(Cli, ServeRejectsASessionCountOutsideItsRange) {
  for (const std::string &Sessions :
       {std::string("0"), std::string("-3"), std::string("3000000000")}) {
    SCOPED_TRACE("--sessions " + Sessions);
    std::string Out, Err;
    EXPECT_EQ(runCli({"serve", "--socket", "/nonexistent-dir/g.sock",
                      "--sessions", Sessions},
                     Out, Err),
              2);
    EXPECT_NE(Err.find("--sessions"), std::string::npos) << Err;
    EXPECT_NE(Err.find("got " + Sessions), std::string::npos) << Err;
    EXPECT_TRUE(Out.empty()) << Out;
  }
}

TEST(Cli, CallRejectsMalformedIntegerFlags) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"call", "--socket", "/tmp/granii-no-such-daemon.sock",
                    gcnExamplePath(), "--kout", "12abc"},
                   Out, Err),
            2);
  EXPECT_NE(Err.find("--kout"), std::string::npos) << Err;
  EXPECT_NE(Err.find("'12abc'"), std::string::npos) << Err;
  // Rejected before any connection attempt.
  EXPECT_EQ(Err.find("daemon"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// run --out and the serve/call surface
//===----------------------------------------------------------------------===//

TEST(Cli, RunWritesBinaryOutputFile) {
  std::string OutPath = ::testing::TempDir() + "/cli-run-out.bin";
  std::string Out, Err;
  ASSERT_EQ(runCli({"run", gcnExamplePath(), "--graph", "synth:mycielskian",
                    "--kin", "8", "--kout", "12", "--out", OutPath},
                   Out, Err),
            0)
      << Err;
  EXPECT_NE(Out.find("wrote output"), std::string::npos);

  std::ifstream In(OutPath, std::ios::binary);
  ASSERT_TRUE(In.good());
  uint32_t Magic = 0;
  int64_t Rows = 0, Cols = 0;
  uint64_t Count = 0;
  In.read(reinterpret_cast<char *>(&Magic), sizeof(Magic));
  In.read(reinterpret_cast<char *>(&Rows), sizeof(Rows));
  In.read(reinterpret_cast<char *>(&Cols), sizeof(Cols));
  In.read(reinterpret_cast<char *>(&Count), sizeof(Count));
  EXPECT_EQ(Magic, 0x4f4e5247u); // "GRNO"
  EXPECT_GT(Rows, 0);
  EXPECT_EQ(Cols, 12);
  EXPECT_EQ(Count, static_cast<uint64_t>(Rows) * static_cast<uint64_t>(Cols));
  In.seekg(0, std::ios::end);
  EXPECT_EQ(static_cast<uint64_t>(In.tellg()),
            sizeof(Magic) + sizeof(Rows) + sizeof(Cols) + sizeof(Count) +
                Count * sizeof(float));
  std::remove(OutPath.c_str());
}

TEST(Cli, ServeRequiresASocketPath) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"serve"}, Out, Err), 2);
  EXPECT_NE(Err.find("--socket"), std::string::npos);
}

TEST(Cli, CallRequiresASocketPath) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"call", gcnExamplePath()}, Out, Err), 2);
  EXPECT_NE(Err.find("--socket"), std::string::npos);
}

TEST(Cli, CallWithoutDaemonExplainsTheFailure) {
  std::string Out, Err;
  EXPECT_EQ(runCli({"call", "--socket", "/tmp/granii-no-such-daemon.sock",
                    gcnExamplePath()},
                   Out, Err),
            1);
  EXPECT_NE(Err.find("daemon"), std::string::npos);
}
