//===- ServeTests.cpp - Tests for the granii-serve layer --------------------===//
//
// Covers the serving stack bottom-up: the checked wire codec and framing,
// the protocol encode/decode pairs (including truncation and corruption),
// the Engine/Session amortization contract (warm runs are bitwise identical
// to cold ones and perform zero workspace allocations), and a real
// Unix-domain-socket daemon under eight concurrent clients.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphSpec.h"
#include "serve/Client.h"
#include "serve/Engine.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"

#include "support/Json.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace granii;
using namespace granii::serve;

namespace {

const char *GcnModel = "model GCN {\n"
                       "  input graph A;\n"
                       "  input features H;\n"
                       "  param weight W;\n"
                       "  d = inv_sqrt_degree(A);\n"
                       "  h = row_scale(d, H);\n"
                       "  h = aggregate(A, h);\n"
                       "  h = matmul(h, W);\n"
                       "  h = row_scale(d, h);\n"
                       "  output relu(h);\n"
                       "}\n";

JobRequest smallRequest(bool WantOutput = true) {
  JobRequest Req;
  Req.ModelText = GcnModel;
  Req.GraphSpec = "synth:mycielskian";
  Req.KIn = 8;
  Req.KOut = 12;
  Req.WantOutput = WantOutput;
  return Req;
}

EngineOptions testEngineOptions() {
  EngineOptions Opts;
  Opts.DiskSpill = false; // keep unit tests hermetic
  return Opts;
}

std::string uniqueSocketPath(const std::string &Tag) {
  // Keep it short: sun_path is ~108 bytes.
  return "/tmp/granii-" + Tag + "-" + std::to_string(::getpid()) + ".sock";
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter W;
  W.putU8(0xab);
  W.putU16(0xbeef);
  W.putU32(0xdeadbeefu);
  W.putU64(0x0123456789abcdefull);
  W.putI64(-42);
  W.putF64(3.141592653589793);
  W.putString("hello wire");
  // Special values must survive bit for bit: a NaN with a payload, -0,
  // the smallest denormal and both infinities.
  std::vector<float> Floats = {1.0f,
                               -2.5f,
                               0.0f,
                               std::bit_cast<float>(0x7fc12345u),
                               -0.0f,
                               std::numeric_limits<float>::denorm_min(),
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity()};
  W.putFloats(Floats);

  WireReader R(W.bytes());
  EXPECT_EQ(R.getU8(), 0xab);
  EXPECT_EQ(R.getU16(), 0xbeef);
  EXPECT_EQ(R.getU32(), 0xdeadbeefu);
  EXPECT_EQ(R.getU64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.getI64(), -42);
  EXPECT_DOUBLE_EQ(R.getF64(), 3.141592653589793);
  EXPECT_EQ(R.getString(), "hello wire");
  std::vector<float> Back = R.getFloats();
  ASSERT_EQ(Back.size(), Floats.size());
  for (size_t I = 0; I < Floats.size(); ++I)
    EXPECT_EQ(std::bit_cast<uint32_t>(Back[I]),
              std::bit_cast<uint32_t>(Floats[I]))
        << "float " << I;
  EXPECT_TRUE(R.atEnd());

  // The wire layout itself: u64 count, then each float's IEEE-754 bits
  // least significant byte first, whatever the host byte order.
  WireWriter Two;
  Two.putFloats(std::vector<float>{1.0f, -2.0f});
  const std::vector<uint8_t> Want = {2,    0, 0, 0,    0, 0, 0, 0,
                                     0x00, 0, 0x80, 0x3f, // 1.0f
                                     0x00, 0, 0x00, 0xc0}; // -2.0f
  EXPECT_EQ(Two.bytes(), Want);
}

TEST(Wire, TruncatedBufferLatchesPositionedError) {
  WireWriter W;
  W.putU64(7);
  std::vector<uint8_t> Bytes = W.take();
  Bytes.resize(5); // cut the u64 short
  WireReader R(Bytes);
  EXPECT_EQ(R.getU64(), 0u);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("truncated payload at byte"), std::string::npos);
  // Latched: later reads stay failed and return zero values.
  EXPECT_EQ(R.getU32(), 0u);
  EXPECT_EQ(R.getString(), "");
  EXPECT_FALSE(R.atEnd());
}

TEST(Wire, StringLengthBeyondPayloadIsRejected) {
  WireWriter W;
  W.putU32(1000); // claims 1000 bytes follow
  W.putU8('x');
  WireReader R(W.bytes());
  EXPECT_EQ(R.getString(), "");
  EXPECT_FALSE(R.ok());
}

TEST(Wire, FloatCountBeyondPayloadIsRejected) {
  WireWriter W;
  W.putU64(1ull << 40); // absurd element count, tiny payload
  WireReader R(W.bytes());
  EXPECT_TRUE(R.getFloats().empty());
  EXPECT_FALSE(R.ok());
}

TEST(Wire, FramesRoundTripOverAPipe) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  std::string Err;
  ASSERT_TRUE(writeFrame(Fds[1], 2, Payload, &Err)) << Err;
  Frame F;
  ASSERT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Ok) << Err;
  EXPECT_EQ(F.Verb, 2);
  EXPECT_EQ(F.Payload, Payload);

  // Orderly close between frames is Eof, not an error.
  ::close(Fds[1]);
  EXPECT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Eof);
  ::close(Fds[0]);
}

TEST(Wire, BadMagicAndTruncatedFrameAreErrors) {
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    const char Junk[] = "NOTAFRAMEATALL";
    ASSERT_EQ(::write(Fds[1], Junk, sizeof(Junk)),
              static_cast<ssize_t>(sizeof(Junk)));
    ::close(Fds[1]);
    Frame F;
    std::string Err;
    EXPECT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Error);
    EXPECT_NE(Err.find("magic"), std::string::npos);
    ::close(Fds[0]);
  }
  {
    // Valid header promising more payload than ever arrives.
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    WireWriter W;
    W.putU32(FrameMagic);
    W.putU16(ProtocolVersion);
    W.putU16(1);
    W.putU32(100); // payload length, but we send only 3 bytes
    W.putU8(0);
    W.putU8(0);
    W.putU8(0);
    const std::vector<uint8_t> &Bytes = W.bytes();
    ASSERT_EQ(::write(Fds[1], Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    ::close(Fds[1]);
    Frame F;
    std::string Err;
    EXPECT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Error);
    ::close(Fds[0]);
  }
}

//===----------------------------------------------------------------------===//
// Protocol messages
//===----------------------------------------------------------------------===//

TEST(Protocol, JobRequestRoundTrip) {
  JobRequest Req;
  Req.ModelText = GcnModel;
  Req.GraphSpec = "synth:reddit";
  Req.KIn = 48;
  Req.KOut = 96;
  Req.Training = true;
  Req.Reorder = "degree";
  Req.Seed = 7;
  Req.WantOutput = true;
  Req.Format = "hyb";

  JobRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeJobRequest(encodeJobRequest(Req), Out, &Err)) << Err;
  EXPECT_EQ(Out.ModelText, Req.ModelText);
  EXPECT_EQ(Out.GraphSpec, Req.GraphSpec);
  EXPECT_EQ(Out.KIn, Req.KIn);
  EXPECT_EQ(Out.KOut, Req.KOut);
  EXPECT_EQ(Out.Training, Req.Training);
  EXPECT_EQ(Out.Reorder, Req.Reorder);
  EXPECT_EQ(Out.Seed, Req.Seed);
  EXPECT_EQ(Out.WantOutput, Req.WantOutput);
  EXPECT_EQ(Out.Format, Req.Format);
}

TEST(Protocol, JobRequestRejectsTruncationAndTrailingGarbage) {
  std::vector<uint8_t> Bytes = encodeJobRequest(smallRequest());
  for (size_t Cut : {size_t(0), size_t(1), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    JobRequest Out;
    std::string Err;
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(decodeJobRequest(Short, Out, &Err)) << "cut=" << Cut;
    EXPECT_FALSE(Err.empty());
  }
  std::vector<uint8_t> Long = Bytes;
  Long.push_back(0);
  JobRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeJobRequest(Long, Out, &Err));
  EXPECT_NE(Err.find("trailing"), std::string::npos);
}

TEST(Protocol, RunResponseRoundTripIncludingOutput) {
  RunResponse Resp;
  Resp.Rows = 3;
  Resp.Cols = 2;
  Resp.Output = {1.5f, -2.0f, 0.0f, 4.25f, 1e-7f, -9.5f};
  Resp.SetupSeconds = 0.125;
  Resp.ForwardSeconds = 0.5;
  Resp.BackwardSeconds = 0.25;
  Resp.PlanIndex = 2;
  Resp.UsedCostModels = true;
  Resp.PlanCacheHit = true;
  Resp.SessionCacheHit = true;
  Resp.SteadyAllocations = 0;
  Resp.RunIndex = 5;

  RunResponse Out;
  std::string Err;
  ASSERT_TRUE(decodeRunResponse(encodeRunResponse(Resp), Out, &Err)) << Err;
  EXPECT_TRUE(Out.Status.Ok);
  EXPECT_EQ(Out.Rows, 3);
  EXPECT_EQ(Out.Cols, 2);
  EXPECT_EQ(Out.Output, Resp.Output); // bit-exact float transport
  EXPECT_DOUBLE_EQ(Out.ForwardSeconds, 0.5);
  EXPECT_EQ(Out.PlanIndex, 2u);
  EXPECT_TRUE(Out.SessionCacheHit);
  EXPECT_EQ(Out.RunIndex, 5u);
}

TEST(Protocol, ErrorResponsesCarryTheMessageForEveryVerb) {
  std::string Err;
  {
    CompileResponse Out;
    ASSERT_TRUE(decodeCompileResponse(
        encodeErrorResponse(Verb::Compile, "boom"), Out, &Err))
        << Err;
    EXPECT_FALSE(Out.Status.Ok);
    EXPECT_EQ(Out.Status.Error, "boom");
  }
  {
    RunResponse Out;
    ASSERT_TRUE(
        decodeRunResponse(encodeErrorResponse(Verb::Run, "boom"), Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
  {
    StatsResponse Out;
    ASSERT_TRUE(decodeStatsResponse(encodeErrorResponse(Verb::Stats, "boom"),
                                    Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
  {
    ShutdownResponse Out;
    ASSERT_TRUE(decodeShutdownResponse(
        encodeErrorResponse(Verb::Shutdown, "boom"), Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
}

TEST(Protocol, StatsResponseRoundTrip) {
  StatsResponse Resp;
  Resp.RequestsServed = 10;
  Resp.RunRequests = 6;
  Resp.CompileRequests = 2;
  Resp.ErrorResponses = 1;
  Resp.SessionsLive = 3;
  Resp.SessionHits = 4;
  Resp.PlanCacheHits = 5;
  Resp.PlanCacheMisses = 2;
  Resp.UptimeSeconds = 12.5;
  Resp.Threads = 4;
  Resp.Isa = "avx2";
  StatsResponse Out;
  std::string Err;
  ASSERT_TRUE(decodeStatsResponse(encodeStatsResponse(Resp), Out, &Err))
      << Err;
  EXPECT_EQ(Out.RequestsServed, 10u);
  EXPECT_EQ(Out.RunRequests, 6u);
  EXPECT_EQ(Out.SessionsLive, 3u);
  EXPECT_EQ(Out.PlanCacheHits, 5u);
  EXPECT_DOUBLE_EQ(Out.UptimeSeconds, 12.5);
  EXPECT_EQ(Out.Isa, "avx2");
}

//===----------------------------------------------------------------------===//
// Engine / Session
//===----------------------------------------------------------------------===//

TEST(Engine, RequestErrorsComeBackAsStatusNotCrashes) {
  Engine Eng(testEngineOptions());
  {
    JobRequest Req = smallRequest();
    Req.ModelText = "model Broken { this is not DSL";
    RunResponse Resp = Eng.run(Req);
    EXPECT_FALSE(Resp.Status.Ok);
    EXPECT_FALSE(Resp.Status.Error.empty());
  }
  {
    JobRequest Req = smallRequest();
    Req.GraphSpec = "synth:nosuchgraph";
    RunResponse Resp = Eng.run(Req);
    EXPECT_FALSE(Resp.Status.Ok);
    EXPECT_NE(Resp.Status.Error.find("nosuchgraph"), std::string::npos);
  }
  {
    JobRequest Req = smallRequest();
    Req.Reorder = "nosuchpolicy";
    RunResponse Resp = Eng.run(Req);
    EXPECT_FALSE(Resp.Status.Ok);
  }
  {
    JobRequest Req = smallRequest();
    Req.KIn = 0;
    RunResponse Resp = Eng.run(Req);
    EXPECT_FALSE(Resp.Status.Ok);
  }
}

TEST(Engine, WarmRunsAreBitwiseIdenticalAndAllocationFree) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest();

  RunResponse Cold = Eng.run(Req);
  ASSERT_TRUE(Cold.Status.Ok) << Cold.Status.Error;
  EXPECT_FALSE(Cold.SessionCacheHit);
  EXPECT_EQ(Cold.RunIndex, 1u);
  ASSERT_GT(Cold.Rows, 0);
  ASSERT_EQ(Cold.Output.size(),
            static_cast<size_t>(Cold.Rows) * static_cast<size_t>(Cold.Cols));

  for (int I = 0; I < 3; ++I) {
    RunResponse Warm = Eng.run(Req);
    ASSERT_TRUE(Warm.Status.Ok) << Warm.Status.Error;
    EXPECT_TRUE(Warm.SessionCacheHit);
    EXPECT_EQ(Warm.RunIndex, static_cast<uint64_t>(I + 2));
    // The amortization guarantee: no workspace growth on a warm pass.
    EXPECT_EQ(Warm.SteadyAllocations, 0u);
    // Bitwise-identical output (same session, deterministic kernels).
    ASSERT_EQ(Warm.Output.size(), Cold.Output.size());
    EXPECT_EQ(std::memcmp(Warm.Output.data(), Cold.Output.data(),
                          Cold.Output.size() * sizeof(float)),
              0);
  }
  EngineStats S = Eng.stats();
  EXPECT_EQ(S.SessionMisses, 1u);
  EXPECT_EQ(S.SessionHits, 3u);
  EXPECT_EQ(S.SessionsLive, 1u);
}

// A session keeps one result across its runs, so a warm run writes the
// output in place: two warm runs return the same bytes without allocating.
TEST(Engine, SessionReusesOneResultAcrossWarmRuns) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest();
  std::string Err;
  std::shared_ptr<Session> S = Eng.session(Req, Err);
  ASSERT_TRUE(S) << Err;
  RunResponse Cold = S->run(true);
  ASSERT_TRUE(Cold.Status.Ok) << Cold.Status.Error;
  RunResponse A = S->run(true);
  RunResponse B = S->run(true);
  EXPECT_EQ(A.SteadyAllocations, 0u);
  EXPECT_EQ(B.SteadyAllocations, 0u);
  ASSERT_EQ(A.Output.size(), Cold.Output.size());
  ASSERT_EQ(B.Output.size(), Cold.Output.size());
  EXPECT_EQ(std::memcmp(A.Output.data(), B.Output.data(),
                        A.Output.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(A.Output.data(), Cold.Output.data(),
                        A.Output.size() * sizeof(float)),
            0);
}

// The session key leaves out the request's format and reorder fields, so a
// warm lookup must check them itself: once a csr session is warm, a request
// that differs from it only in an unsupported layout is still an error, as
// it is on a cold engine. The empty names mean the defaults and hit the
// warm session.
TEST(Engine, WarmSessionStillRejectsAnUnsupportedLayout) {
  Engine Eng(testEngineOptions());
  RunResponse Warm = Eng.run(smallRequest(false));
  ASSERT_TRUE(Warm.Status.Ok) << Warm.Status.Error;
  {
    JobRequest Req = smallRequest(false);
    Req.Format = "ell";
    RunResponse Resp = Eng.run(Req);
    EXPECT_FALSE(Resp.Status.Ok);
    EXPECT_NE(Resp.Status.Error.find("'ell'"), std::string::npos)
        << Resp.Status.Error;
  }
  {
    JobRequest Req = smallRequest(false);
    Req.Reorder = "rcm";
    RunResponse Resp = Eng.run(Req);
    EXPECT_FALSE(Resp.Status.Ok);
    EXPECT_NE(Resp.Status.Error.find("'rcm'"), std::string::npos)
        << Resp.Status.Error;
    CompileResponse Compiled = Eng.compile(Req);
    EXPECT_FALSE(Compiled.Status.Ok);
  }
  {
    JobRequest Req = smallRequest(false);
    Req.Format = "";
    Req.Reorder = "";
    RunResponse Resp = Eng.run(Req);
    ASSERT_TRUE(Resp.Status.Ok) << Resp.Status.Error;
    EXPECT_TRUE(Resp.SessionCacheHit);
  }
  EngineStats S = Eng.stats();
  EXPECT_EQ(S.SessionMisses, 1u);
  EXPECT_EQ(S.SessionHits, 1u);
}

// A session selects from its parameters' self-loop graph and statistics
// instead of letting Optimizer::select rebuild them; the choice must be
// the one Optimizer::select makes on the same graph.
TEST(Engine, SessionSelectionMatchesOptimizerSelect) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest(false);
  std::string Err;
  std::shared_ptr<Session> S = Eng.session(Req, Err);
  ASSERT_TRUE(S) << Err;
  std::optional<Graph> G = loadGraphSpec(Req.GraphSpec, &Err);
  ASSERT_TRUE(G) << Err;
  Selection Want = S->optimizer().select(*G, Req.KIn, Req.KOut);
  EXPECT_EQ(S->selection().PlanIndex, Want.PlanIndex);
  EXPECT_EQ(S->selection().PredictedSeconds, Want.PredictedSeconds);
}

// The one-shot CLI hands the engine the graph it already loaded; a session
// built on it answers exactly like one that loads the spec itself.
TEST(Engine, SessionOnACallerLoadedGraphMatchesALoadingOne) {
  JobRequest Req = smallRequest();
  std::string Err;
  std::optional<Graph> G = loadGraphSpec(Req.GraphSpec, &Err);
  ASSERT_TRUE(G) << Err;
  Engine Loading(testEngineOptions());
  Engine Given(testEngineOptions());
  std::shared_ptr<Session> A = Loading.session(Req, Err);
  ASSERT_TRUE(A) << Err;
  std::shared_ptr<Session> B = Given.session(Req, Err, nullptr, nullptr, &*G);
  ASSERT_TRUE(B) << Err;
  EXPECT_EQ(A->selection().PlanIndex, B->selection().PlanIndex);
  RunResponse RA = A->run(true);
  RunResponse RB = B->run(true);
  ASSERT_EQ(RA.Output.size(), RB.Output.size());
  EXPECT_EQ(std::memcmp(RA.Output.data(), RB.Output.data(),
                        RA.Output.size() * sizeof(float)),
            0);
}

TEST(Engine, CompileVerbPopulatesPlanCacheForLaterRuns) {
  Engine Eng(testEngineOptions());
  JobRequest Req = smallRequest(false);

  CompileResponse First = Eng.compile(Req);
  ASSERT_TRUE(First.Status.Ok) << First.Status.Error;
  EXPECT_GT(First.Enumerated, 0u);
  EXPECT_GT(First.Promoted, 0u);
  EXPECT_FALSE(First.PlanCacheHit);
  EXPECT_FALSE(First.CacheKey.empty());

  CompileResponse Second = Eng.compile(Req);
  ASSERT_TRUE(Second.Status.Ok);
  EXPECT_TRUE(Second.PlanCacheHit);
  EXPECT_EQ(Second.Promoted, First.Promoted);
  EXPECT_EQ(Second.CacheKey, First.CacheKey);

  // A fresh session rides the cached plan set instead of re-enumerating.
  RunResponse Run = Eng.run(Req);
  ASSERT_TRUE(Run.Status.Ok) << Run.Status.Error;
  EXPECT_TRUE(Run.PlanCacheHit);
}

// CSR is the only format: the request field accepts "csr" or empty and
// answers every other value, the deleted padded formats and auto included,
// with an error on both verbs.
TEST(Engine, UnknownOrBackwardOnlyFormatIsARequestError) {
  Engine Eng(testEngineOptions());
  for (const char *Format :
       {"csc", "coo", "banana", "ell", "sell", "hyb", "auto"}) {
    SCOPED_TRACE(Format);
    JobRequest Req = smallRequest();
    Req.Format = Format;
    RunResponse R = Eng.run(Req);
    EXPECT_FALSE(R.Status.Ok);
    EXPECT_NE(R.Status.Error.find("format"), std::string::npos);
    JobRequest CReq = smallRequest(false);
    CReq.Format = Format;
    EXPECT_FALSE(Eng.compile(CReq).Status.Ok);
  }
  for (const char *Format : {"", "csr"}) {
    SCOPED_TRACE(Format);
    JobRequest CReq = smallRequest(false);
    CReq.Format = Format;
    CompileResponse Resp = Eng.compile(CReq);
    EXPECT_TRUE(Resp.Status.Ok) << Resp.Status.Error;
  }
}

// An embedding size the host cannot hold is a request error naming the
// sizes on both verbs, never an abort in an allocation: on this small graph
// K = 2^40 counts fine in int64 but needs more bytes than any physical
// memory, and K = 2^62 overflows the element counts. The same engine then
// serves a valid request.
TEST(Engine, OversizedEmbeddingIsARequestError) {
  Engine Eng(testEngineOptions());
  for (int64_t K : {int64_t{1} << 40, int64_t{1} << 62}) {
    const std::string Sizes = std::to_string(K);
    SCOPED_TRACE("K = " + Sizes);
    JobRequest Req = smallRequest();
    Req.KIn = K;
    RunResponse R = Eng.run(Req);
    EXPECT_FALSE(R.Status.Ok);
    EXPECT_NE(R.Status.Error.find(Sizes), std::string::npos)
        << R.Status.Error;
    JobRequest CReq = smallRequest(false);
    CReq.KOut = K;
    CompileResponse C = Eng.compile(CReq);
    EXPECT_FALSE(C.Status.Ok);
    EXPECT_NE(C.Status.Error.find(Sizes), std::string::npos)
        << C.Status.Error;
  }
  RunResponse Valid = Eng.run(smallRequest());
  EXPECT_TRUE(Valid.Status.Ok) << Valid.Status.Error;
  EXPECT_EQ(Valid.Cols, 12);
}

TEST(Engine, SessionLruEvictsButEvictedConfigStillRuns) {
  EngineOptions Opts = testEngineOptions();
  Opts.SessionCapacity = 2;
  Engine Eng(Opts);

  JobRequest A = smallRequest();
  JobRequest B = smallRequest();
  B.KOut = 16; // different session key
  JobRequest C = smallRequest();
  C.KOut = 20;

  ASSERT_TRUE(Eng.run(A).Status.Ok);
  ASSERT_TRUE(Eng.run(B).Status.Ok);
  ASSERT_TRUE(Eng.run(C).Status.Ok); // evicts A's session
  EXPECT_EQ(Eng.stats().SessionEvictions, 1u);
  EXPECT_EQ(Eng.stats().SessionsLive, 2u);

  RunResponse Again = Eng.run(A); // rebuilt, not a crash
  ASSERT_TRUE(Again.Status.Ok);
  EXPECT_FALSE(Again.SessionCacheHit);
  EXPECT_EQ(Again.RunIndex, 1u);
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end over a real Unix socket
//===----------------------------------------------------------------------===//

TEST(Server, EightConcurrentClientsGetIdenticalAnswers) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("conc");
  Opts.Engine = testEngineOptions();
  Server Srv(Opts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  // Reference answer from the engine directly (same process, same pool).
  JobRequest Req = smallRequest();
  RunResponse Reference = Srv.engine().run(Req);
  ASSERT_TRUE(Reference.Status.Ok) << Reference.Status.Error;

  constexpr int NumClients = 8;
  std::vector<RunResponse> Got(NumClients);
  std::vector<std::string> ClientErr(NumClients);
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumClients; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      if (!C.connect(Opts.SocketPath, &ClientErr[I]))
        return;
      C.run(Req, Got[I], &ClientErr[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  for (int I = 0; I < NumClients; ++I) {
    ASSERT_TRUE(ClientErr[I].empty()) << "client " << I << ": " << ClientErr[I];
    ASSERT_TRUE(Got[I].Status.Ok) << Got[I].Status.Error;
    ASSERT_EQ(Got[I].Output.size(), Reference.Output.size());
    EXPECT_EQ(std::memcmp(Got[I].Output.data(), Reference.Output.data(),
                          Reference.Output.size() * sizeof(float)),
              0)
        << "client " << I << " diverged";
    EXPECT_TRUE(Got[I].SessionCacheHit) << "client " << I;
  }

  // Stats + graceful shutdown through the protocol.
  Client C;
  ASSERT_TRUE(C.connect(Opts.SocketPath, &Err)) << Err;
  StatsResponse Stats;
  ASSERT_TRUE(C.stats(Stats, &Err)) << Err;
  EXPECT_TRUE(Stats.Status.Ok);
  EXPECT_GE(Stats.RunRequests, static_cast<uint64_t>(NumClients));
  EXPECT_GE(Stats.SessionHits, static_cast<uint64_t>(NumClients));

  ShutdownResponse Ack;
  ASSERT_TRUE(C.shutdown(Ack, &Err)) << Err;
  EXPECT_TRUE(Ack.Status.Ok);
  Srv.wait();
  EXPECT_FALSE(Srv.running());
  // Socket file is unlinked on drain.
  EXPECT_NE(::access(Opts.SocketPath.c_str(), F_OK), 0);
}

TEST(Server, MalformedFramesGetFramedErrorsAndServerSurvives) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("mal");
  Opts.Engine = testEngineOptions();
  Server Srv(Opts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  {
    // A frame whose payload is not a valid request: expect a framed error
    // response with the status byte set, not a dropped connection.
    Client C;
    ASSERT_TRUE(C.connect(Opts.SocketPath, &Err)) << Err;
    // Client enforces verb echo, so drive this via compile with an empty
    // model: the server answers with a decoded, framed error response.
    JobRequest Bad;
    Bad.ModelText = ""; // parse failure server-side
    Bad.GraphSpec = "synth:mycielskian";
    CompileResponse CompResp;
    ASSERT_TRUE(C.compile(Bad, CompResp, &Err)) << Err;
    EXPECT_FALSE(CompResp.Status.Ok);
    EXPECT_FALSE(CompResp.Status.Error.empty());
  }

  // The daemon still serves good requests afterwards.
  Client C2;
  ASSERT_TRUE(C2.connect(Opts.SocketPath, &Err)) << Err;
  RunResponse Good;
  ASSERT_TRUE(C2.run(smallRequest(), Good, &Err)) << Err;
  EXPECT_TRUE(Good.Status.Ok) << Good.Status.Error;

  Srv.requestStop();
  Srv.wait();
  EXPECT_GE(Srv.counters().RequestsServed, 2u);
}

// With tracing on, the daemon's run-response encode is its own span,
// carrying the encoded byte count, so a traced request attributes the
// output copy instead of leaving it unaccounted.
TEST(Server, TracedRunRequestSpansTheResponseEncode) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("trace");
  Opts.Engine = testEngineOptions();
  Server Srv(Opts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  Trace::get().start();
  Client C;
  ASSERT_TRUE(C.connect(Opts.SocketPath, &Err)) << Err;
  RunResponse Resp;
  ASSERT_TRUE(C.run(smallRequest(), Resp, &Err)) << Err;
  ASSERT_TRUE(Resp.Status.Ok) << Resp.Status.Error;
  Srv.requestStop();
  Srv.wait();
  Trace::get().stop();

  std::optional<JsonValue> Doc = parseJson(Trace::get().toJson(), &Err);
  Trace::get().clear();
  ASSERT_TRUE(Doc) << Err;
  const JsonValue *Encode = nullptr;
  for (const JsonValue &E : Doc->find("traceEvents")->array())
    if (E.stringOr("ph", "") == "X" &&
        E.stringOr("name", "") == "encode-response")
      Encode = &E;
  ASSERT_NE(Encode, nullptr) << "no encode-response span";
  const JsonValue *Args = Encode->find("args");
  ASSERT_NE(Args, nullptr);
  // The encoded response holds the output floats plus its header.
  EXPECT_GT(Args->numberOr("bytes", 0.0),
            static_cast<double>(Resp.Output.size() * sizeof(float)));
}
