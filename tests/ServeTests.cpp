//===- ServeTests.cpp - Tests for the granii-serve layer --------------------===//
//
// Covers the serving stack bottom-up: the checked wire codec and framing,
// the protocol encode/decode pairs (including truncation and corruption),
// the Engine/Session amortization contract (warm runs are bitwise identical
// to cold ones and perform zero workspace allocations; one compile per
// model), a real Unix-domain-socket daemon under eight concurrent clients,
// and a seeded mutation test of every wire decoder.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/GraphSpec.h"
#include "graph/MatrixMarket.h"
#include "serve/Client.h"
#include "serve/Engine.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"

#include "support/Json.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <utility>
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
    // A framed request cut at every byte: an end before the first byte is
    // an orderly Eof, anywhere else an error (a header promising more
    // payload than ever arrives, or a short header), never a frame.
    std::vector<uint8_t> Payload = encodeJobRequest(smallRequest());
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    std::string Err;
    ASSERT_TRUE(writeFrame(Fds[1], 2, Payload, &Err)) << Err;
    ::close(Fds[1]);
    std::vector<uint8_t> Whole(FrameHeaderBytes + Payload.size());
    ASSERT_EQ(::read(Fds[0], Whole.data(), Whole.size()),
              static_cast<ssize_t>(Whole.size()));
    ::close(Fds[0]);
    for (size_t Cut = 0; Cut < Whole.size(); ++Cut) {
      ASSERT_EQ(::pipe(Fds), 0);
      ASSERT_EQ(::write(Fds[1], Whole.data(), Cut),
                static_cast<ssize_t>(Cut));
      ::close(Fds[1]);
      Frame F;
      ReadStatus Status = readFrame(Fds[0], F, &Err);
      ::close(Fds[0]);
      EXPECT_EQ(Status, Cut == 0 ? ReadStatus::Eof : ReadStatus::Error)
          << "cut " << Cut;
    }
  }
}

// A header alone claims no memory: the payload buffer grows with the bytes
// that arrive, one chunk at a time, not with the length the header states.
TEST(Wire, FrameHeaderAloneClaimsNoPayloadMemory) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const uint32_t Claimed = 256u << 20;
  ASSERT_LE(Claimed, MaxPayloadBytes);
  WireWriter Header;
  Header.putU32(FrameMagic);
  Header.putU16(ProtocolVersion);
  Header.putU16(2);
  Header.putU32(Claimed);
  const uint8_t Body[16] = {1, 2, 3};
  ASSERT_EQ(::write(Fds[1], Header.bytes().data(), Header.bytes().size()),
            static_cast<ssize_t>(Header.bytes().size()));
  ASSERT_EQ(::write(Fds[1], Body, sizeof(Body)),
            static_cast<ssize_t>(sizeof(Body)));
  ::close(Fds[1]);
  Frame F;
  std::string Err;
  EXPECT_EQ(readFrame(Fds[0], F, &Err), ReadStatus::Error);
  EXPECT_FALSE(Err.empty());
  EXPECT_LE(F.Payload.size(), sizeof(Body) + FrameReadChunkBytes)
      << "a " << Claimed << "-byte header grew the payload buffer to "
      << F.Payload.size() << " bytes after " << sizeof(Body) << " arrived";
  ::close(Fds[0]);
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
        encodeErrorResponse("boom"), Out, &Err))
        << Err;
    EXPECT_FALSE(Out.Status.Ok);
    EXPECT_EQ(Out.Status.Error, "boom");
  }
  {
    RunResponse Out;
    ASSERT_TRUE(
        decodeRunResponse(encodeErrorResponse("boom"), Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
  {
    StatsResponse Out;
    ASSERT_TRUE(decodeStatsResponse(encodeErrorResponse("boom"),
                                    Out, &Err));
    EXPECT_FALSE(Out.Status.Ok);
  }
  {
    ShutdownResponse Out;
    ASSERT_TRUE(decodeShutdownResponse(
        encodeErrorResponse("boom"), Out, &Err));
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

// Protocol version 3's bytes for one sample of every message and for an
// error response: a field walk that reorders, drops or re-encodes a field
// fails here, and each pinned payload decodes into a message that encodes
// back to it. The error response is the same bytes whichever verb it
// answers.
TEST(Protocol, EncodingsMatchThePinnedBytes) {
  auto Hex = [](const std::vector<uint8_t> &Bytes) {
    std::string Out;
    for (uint8_t B : Bytes) {
      char Digits[3];
      std::snprintf(Digits, sizeof(Digits), "%02x", B);
      Out += Digits;
    }
    return Out;
  };
  auto Pin = [&](const auto &Msg, auto Encode, auto Decode,
                 const std::string &Want) {
    std::vector<uint8_t> Bytes = Encode(Msg);
    EXPECT_EQ(Hex(Bytes), Want);
    std::remove_cvref_t<decltype(Msg)> Back;
    std::string Err;
    ASSERT_TRUE(Decode(Bytes, Back, &Err)) << Err;
    EXPECT_EQ(Encode(Back), Bytes);
  };

  JobRequest Req;
  Req.ModelText = "M";
  Req.GraphSpec = "g.mtx";
  Req.KIn = 8;
  Req.KOut = 12;
  Req.Training = true;
  Req.Reorder = "none";
  Req.Seed = 7;
  Req.WantOutput = false;
  Req.Format = "csr";
  Pin(Req, encodeJobRequest, decodeJobRequest,
      "010000004d05000000672e6d747808000000000000000c00000000000000010400"
      "00006e6f6e6507000000000000000003000000637372");

  CompileResponse Compiled;
  Compiled.Enumerated = 16;
  Compiled.Pruned = 12;
  Compiled.Promoted = 4;
  Compiled.PlanCacheHit = true;
  Compiled.CompileSeconds = 0.25;
  Compiled.CacheKey = "m01";
  Pin(Compiled, encodeCompileResponse, decodeCompileResponse,
      "0010000000000000000c00000000000000040000000000000001000000000000d0"
      "3f030000006d3031");

  RunResponse Ran;
  Ran.Rows = 2;
  Ran.Cols = 1;
  Ran.Output = {1.0f, -2.0f};
  Ran.SetupSeconds = 0.5;
  Ran.ForwardSeconds = 0.25;
  Ran.BackwardSeconds = 0.125;
  Ran.PlanIndex = 3;
  Ran.UsedCostModels = true;
  Ran.PlanCacheHit = false;
  Ran.SessionCacheHit = true;
  Ran.SteadyAllocations = 5;
  Ran.RunIndex = 6;
  Pin(Ran, encodeRunResponse, decodeRunResponse,
      "000200000000000000010000000000000002000000000000000000803f000000c0"
      "000000000000e03f000000000000d03f000000000000c03f030000000000000001"
      "000105000000000000000600000000000000");

  StatsResponse Stats;
  Stats.RequestsServed = 1;
  Stats.RunRequests = 2;
  Stats.CompileRequests = 3;
  Stats.ErrorResponses = 4;
  Stats.SessionsLive = 5;
  Stats.SessionHits = 6;
  Stats.SessionEvictions = 7;
  Stats.PlanCacheHits = 8;
  Stats.PlanCacheMisses = 9;
  Stats.PlanCacheEvictions = 10;
  Stats.UptimeSeconds = 2.0;
  Stats.Threads = 4;
  Stats.Isa = "avx2";
  Pin(Stats, encodeStatsResponse, decodeStatsResponse,
      "00010000000000000002000000000000000300000000000000040000000000000005"
      "00000000000000060000000000000007000000000000000800000000000000090000"
      "00000000000a0000000000000000000000000000400400000000000000040000006176"
      "7832");

  Pin(ShutdownResponse(), encodeShutdownResponse, decodeShutdownResponse,
      "00");

  EXPECT_EQ(Hex(encodeErrorResponse("boom")), "0104000000626f6f6d");
}

//===----------------------------------------------------------------------===//
// Engine / Session
//===----------------------------------------------------------------------===//

TEST(Engine, RequestErrorsComeBackAsStatusNotCrashes) {
  Engine Eng;
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
  Engine Eng;
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
  Engine Eng;
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
  Engine Eng;
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
  Engine Eng;
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
  Engine Loading;
  Engine Given;
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

// A warm session answers only for the graph file it was built on. Once
// another graph replaces the file, the same request runs on the new graph,
// bitwise as a fresh engine does; once the file is gone, it is the load
// error, not the warm session.
TEST(Engine, ReplacedGraphFileIsNotServedFromAWarmSession) {
  const std::string Path = ::testing::TempDir() + "/serve-replaced-" +
                           std::to_string(::getpid()) + ".mtx";
  std::string Err;
  ASSERT_TRUE(writeMatrixMarket(makeEvaluationGraph("mycielskian"), Path,
                                &Err))
      << Err;
  JobRequest Req = smallRequest();
  Req.GraphSpec = Path;
  Engine Eng;
  RunResponse First = Eng.run(Req);
  ASSERT_TRUE(First.Status.Ok) << First.Status.Error;
  ASSERT_TRUE(Eng.run(Req).SessionCacheHit);

  ASSERT_TRUE(
      writeMatrixMarket(makeEvaluationGraph("coauthors"), Path, &Err))
      << Err;
  RunResponse Second = Eng.run(Req);
  ASSERT_TRUE(Second.Status.Ok) << Second.Status.Error;
  EXPECT_FALSE(Second.SessionCacheHit);
  Engine Fresh;
  RunResponse Want = Fresh.run(Req);
  ASSERT_TRUE(Want.Status.Ok) << Want.Status.Error;
  EXPECT_NE(Want.Rows, First.Rows);
  EXPECT_EQ(Second.Rows, Want.Rows);
  EXPECT_EQ(Second.Cols, Want.Cols);
  ASSERT_EQ(Second.Output.size(), Want.Output.size());
  EXPECT_EQ(std::memcmp(Second.Output.data(), Want.Output.data(),
                        Want.Output.size() * sizeof(float)),
            0);

  std::remove(Path.c_str());
  RunResponse Gone = Eng.run(Req);
  EXPECT_FALSE(Gone.Status.Ok);
  EXPECT_NE(Gone.Status.Error.find(Path), std::string::npos)
      << Gone.Status.Error;
}

TEST(Engine, CompileVerbPopulatesPlanCacheForLaterRuns) {
  Engine Eng;
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

// Each run response reports its own request's plan lookup: the cold run
// compiles the model (a miss), the warm run reuses its session (a hit, as
// session() tells Compile), and a new session of the cached model is a hit.
TEST(Engine, WarmRunReportsAPlanCacheHit) {
  Engine Eng;
  JobRequest Req = smallRequest(false);
  RunResponse Cold = Eng.run(Req);
  ASSERT_TRUE(Cold.Status.Ok) << Cold.Status.Error;
  EXPECT_FALSE(Cold.SessionCacheHit);
  EXPECT_FALSE(Cold.PlanCacheHit);

  RunResponse Warm = Eng.run(Req);
  ASSERT_TRUE(Warm.Status.Ok) << Warm.Status.Error;
  EXPECT_TRUE(Warm.SessionCacheHit);
  EXPECT_TRUE(Warm.PlanCacheHit);

  Req.KOut = 6;
  RunResponse Resized = Eng.run(Req);
  ASSERT_TRUE(Resized.Status.Ok) << Resized.Status.Error;
  EXPECT_FALSE(Resized.SessionCacheHit);
  EXPECT_TRUE(Resized.PlanCacheHit);
}

// A compile response reports the counts of the compile that produced its
// plan set, however the set was found: the miss, a plan-cache hit, a cold
// session on the cached set and a warm session all answer GCN's 16
// enumerated, 12 pruned, 4 promoted, and so does the session's optimizer.
TEST(Engine, PlanCacheHitReportsTheCompiledCounts) {
  auto ExpectGcnCounts = [](const CompileResponse &C) {
    EXPECT_EQ(C.Enumerated, 16u);
    EXPECT_EQ(C.Pruned, 12u);
    EXPECT_EQ(C.Promoted, 4u);
  };
  Engine Eng;
  JobRequest Req = smallRequest(false);
  CompileResponse Miss = Eng.compile(Req);
  ASSERT_TRUE(Miss.Status.Ok) << Miss.Status.Error;
  EXPECT_FALSE(Miss.PlanCacheHit);
  ExpectGcnCounts(Miss);
  CompileResponse Hit = Eng.compile(Req);
  ASSERT_TRUE(Hit.Status.Ok) << Hit.Status.Error;
  EXPECT_TRUE(Hit.PlanCacheHit);
  ExpectGcnCounts(Hit);

  std::string Err;
  bool SessionHit = true;
  CompileResponse Cold;
  std::shared_ptr<Session> S = Eng.session(Req, Err, &SessionHit, &Cold);
  ASSERT_TRUE(S) << Err;
  EXPECT_FALSE(SessionHit);
  EXPECT_TRUE(Cold.PlanCacheHit);
  ExpectGcnCounts(Cold);
  CompileResponse Warm;
  ASSERT_EQ(Eng.session(Req, Err, &SessionHit, &Warm), S) << Err;
  EXPECT_TRUE(SessionHit);
  EXPECT_TRUE(Warm.PlanCacheHit);
  ExpectGcnCounts(Warm);

  const PruneStats &Stats = S->optimizer().pruneStats();
  EXPECT_EQ(Stats.Enumerated, 16u);
  EXPECT_EQ(Stats.Pruned, 12u);
  EXPECT_EQ(Stats.Promoted, 4u);
}

// CSR is the only format: the request field accepts "csr" or empty and
// answers every other value, the deleted padded formats and auto included,
// with an error on both verbs.
TEST(Engine, UnknownOrBackwardOnlyFormatIsARequestError) {
  Engine Eng;
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
  Engine Eng;
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

// A graph spec the host cannot build is a request error on both verbs,
// before the generator sizes anything: 1000 nodes have at most 499,500
// distinct edges, and 10^10 R-MAT edges would reserve a dedup set of 2·10^10
// buckets (std::bad_alloc, or the OOM killer, at the parent).
TEST(Engine, OversizedGraphSpecIsARequestError) {
  Engine Eng;
  JobRequest Req = smallRequest();
  Req.GraphSpec = "synth:rmat:1000:10000000000";
  RunResponse R = Eng.run(Req);
  EXPECT_FALSE(R.Status.Ok);
  EXPECT_NE(R.Status.Error.find("at most 499500 distinct edges"),
            std::string::npos)
      << R.Status.Error;
  CompileResponse C = Eng.compile(Req);
  EXPECT_FALSE(C.Status.Ok);
  EXPECT_NE(C.Status.Error.find("at most 499500 distinct edges"),
            std::string::npos)
      << C.Status.Error;
  // As many edges as node pairs is within the bound, but not the memory a
  // 2^30-node graph with 2^40 edges needs.
  Req.GraphSpec = "synth:rmat:1073741824:1099511627776";
  R = Eng.run(Req);
  EXPECT_FALSE(R.Status.Ok);
  EXPECT_NE(R.Status.Error.find("bytes of physical memory"),
            std::string::npos)
      << R.Status.Error;
  RunResponse Valid = Eng.run(smallRequest());
  EXPECT_TRUE(Valid.Status.Ok) << Valid.Status.Error;
}

// A request's model text never aborts the daemon: a model the IR builders
// or the executor cannot accept is a parse error, and a model whose output
// reads no weight is a request error, on both verbs. The same engine then
// serves a valid request.
TEST(Engine, ModelTextErrorsAreRequestErrors) {
  const std::string Decls = "model M {\n"
                            "  input graph A;\n"
                            "  input features H;\n"
                            "  param weight W;\n"
                            "  param attn_src s;\n"
                            "  param attn_dst t;\n";
  const std::pair<const char *, const char *> Cases[] = {
      {"output A;", "output must be computed"},
      {"output relu(aggregate(A, H));", "no weight"},
      {"output row_scale(H, H);", "diagonal"},
      {"h = matmul(H, W); output add(h, H);", "shape"},
      {"h = matmul(H, W); output col_scale(h, h);", "diagonal"},
      {"h = matmul(H, W); output relu(attention(h, h, s, t));",
       "input graph"},
  };
  Engine Eng;
  for (const auto &[Body, Want] : Cases) {
    SCOPED_TRACE(Body);
    JobRequest Req = smallRequest();
    Req.ModelText = Decls + "  " + Body + "\n}\n";
    RunResponse R = Eng.run(Req);
    EXPECT_FALSE(R.Status.Ok);
    EXPECT_NE(R.Status.Error.find(Want), std::string::npos)
        << R.Status.Error;
    CompileResponse C = Eng.compile(Req);
    EXPECT_FALSE(C.Status.Ok);
    EXPECT_NE(C.Status.Error.find(Want), std::string::npos)
        << C.Status.Error;
  }
  RunResponse Valid = Eng.run(smallRequest());
  EXPECT_TRUE(Valid.Status.Ok) << Valid.Status.Error;
}

namespace {

bool sameBits(const DenseMatrix &A, const DenseMatrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

} // namespace

// The offline stage reads only the model, so one engine compiles a model
// once, whatever graphs and embedding sizes it then serves, and sessions
// built on the shared plan set answer bitwise like a fresh engine's:
// outputs, and in training every weight and feature gradient.
TEST(Engine, OneCompilePerModelAcrossGraphsAndSizes) {
  Engine Shared;
  for (const char *GraphSpec : {"synth:mycielskian", "synth:coauthors"})
    for (auto [KIn, KOut] : {std::pair<int64_t, int64_t>{8, 12}, {12, 8}})
      for (bool Training : {false, true}) {
        SCOPED_TRACE(std::string(GraphSpec) + " " + std::to_string(KIn) +
                     "->" + std::to_string(KOut) +
                     (Training ? " training" : " inference"));
        JobRequest Req = smallRequest();
        Req.GraphSpec = GraphSpec;
        Req.KIn = KIn;
        Req.KOut = KOut;
        Req.Training = Training;
        Engine Fresh;
        std::string Err;
        std::shared_ptr<Session> A = Shared.session(Req, Err);
        ASSERT_TRUE(A) << Err;
        std::shared_ptr<Session> B = Fresh.session(Req, Err);
        ASSERT_TRUE(B) << Err;
        EXPECT_EQ(A->selection().PlanIndex, B->selection().PlanIndex);
        RunResponse RA = A->run(true);
        RunResponse RB = B->run(true);
        ASSERT_TRUE(RA.Status.Ok) << RA.Status.Error;
        ASSERT_TRUE(RB.Status.Ok) << RB.Status.Error;
        ASSERT_EQ(RA.Output.size(), RB.Output.size());
        EXPECT_EQ(std::memcmp(RA.Output.data(), RB.Output.data(),
                              RA.Output.size() * sizeof(float)),
                  0);
        if (!Training)
          continue;
        ExecResult GA =
            A->optimizer().execute(A->selection(), A->params(), true);
        ExecResult GB =
            B->optimizer().execute(B->selection(), B->params(), true);
        ASSERT_FALSE(GA.WeightGrads.empty());
        ASSERT_EQ(GA.WeightGrads.size(), GB.WeightGrads.size());
        for (const auto &[Name, Grad] : GA.WeightGrads) {
          auto It = GB.WeightGrads.find(Name);
          ASSERT_NE(It, GB.WeightGrads.end()) << Name;
          EXPECT_TRUE(sameBits(Grad, It->second)) << Name;
        }
        EXPECT_TRUE(sameBits(GA.FeatureGrad, GB.FeatureGrad));
      }
  LruStats Plans = Shared.stats().PlanCache;
  EXPECT_EQ(Plans.Misses, 1u);
  EXPECT_EQ(Plans.Hits, 7u);
}

TEST(Engine, SessionLruEvictsButEvictedConfigStillRuns) {
  EngineOptions Opts;
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

// Server::start bounds its connection workers before it makes a socket or
// starts a thread. The path cannot be bound, so a server that clamped the
// count instead fails at the bind and starts nothing either.
TEST(Server, StartRejectsAWorkerCountOutsideItsRange) {
  for (int Workers : {0, -3, maxConfigurableThreads() + 1}) {
    SCOPED_TRACE("ConnWorkers " + std::to_string(Workers));
    ServerOptions Opts;
    Opts.SocketPath = "/nonexistent-dir/g.sock";
    Opts.ConnWorkers = Workers;
    Server S(Opts);
    std::string Err;
    EXPECT_FALSE(S.start(&Err));
    EXPECT_NE(Err.find("connection worker count"), std::string::npos) << Err;
    EXPECT_NE(Err.find("got " + std::to_string(Workers)), std::string::npos)
        << Err;
  }
}

TEST(Server, EightConcurrentClientsGetIdenticalAnswers) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("conc");
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

namespace {

/// A bare stream connection to the daemon, for clients that misbehave.
int rawConnect(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (Fd >= 0 &&
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

// A client that hangs up mid-frame, or before reading its response, costs
// the daemon one write to a closed socket: an EPIPE for that connection,
// not a SIGPIPE that ends the process. The daemon serves the next client.
TEST(Server, ClientsThatHangUpDoNotKillTheDaemon) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("hangup");
  Server Srv(Opts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  int Fd = rawConnect(Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  WireWriter Partial;
  Partial.putU32(FrameMagic);
  Partial.putU16(ProtocolVersion);
  Partial.putU16(static_cast<uint16_t>(Verb::Run));
  Partial.putU32(100); // promises 100 payload bytes, sends 3
  Partial.putU8(1);
  Partial.putU8(2);
  Partial.putU8(3);
  ASSERT_EQ(::write(Fd, Partial.bytes().data(), Partial.bytes().size()),
            static_cast<ssize_t>(Partial.bytes().size()));
  ::close(Fd);

  Fd = rawConnect(Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(writeFrame(Fd, static_cast<uint16_t>(Verb::Run),
                         encodeJobRequest(smallRequest()), &Err))
      << Err;
  ::close(Fd); // before the response arrives

  // Both connections reach the daemon's dispatch (a drain would skip a
  // connection that no worker has started), then their answers go into
  // closed sockets.
  for (int I = 0; I < 3000; ++I) {
    ServerCounters C = Srv.counters();
    if (C.ErrorResponses >= 1 && C.RunRequests >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Client Good;
  ASSERT_TRUE(Good.connect(Opts.SocketPath, &Err)) << Err;
  RunResponse Resp;
  ASSERT_TRUE(Good.run(smallRequest(), Resp, &Err)) << Err;
  EXPECT_TRUE(Resp.Status.Ok) << Resp.Status.Error;
  Srv.requestStop();
  Srv.wait();
  EXPECT_EQ(Srv.counters().RunRequests, 2u);
  EXPECT_EQ(Srv.counters().ErrorResponses, 1u);
}

// With tracing on, the daemon's run-response encode is its own span,
// carrying the encoded byte count, so a traced request attributes the
// output copy instead of leaving it unaccounted.
TEST(Server, TracedRunRequestSpansTheResponseEncode) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("trace");
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

//===----------------------------------------------------------------------===//
// Seeded mutation test of the wire decoders
//===----------------------------------------------------------------------===//

namespace {

/// Mutated inputs per kind (bit flips, truncations, splices) per decoder.
constexpr int MutationsPerKind = 100000;

enum class Mutation { BitFlips, Truncation, Splice };

/// One mutation of a seed drawn from \p Seeds: one to eight bit flips; a
/// cut at a random length with one bit flip in what remains (so repeated
/// cuts of one seed still differ); or a prefix of one seed joined to a
/// suffix of another.
std::vector<uint8_t> mutate(const std::vector<std::vector<uint8_t>> &Seeds,
                            Mutation Kind, Rng &R) {
  std::vector<uint8_t> Bytes = Seeds[R.nextBelow(Seeds.size())];
  auto FlipBits = [&](uint64_t Count) {
    for (uint64_t I = 0; I < Count && !Bytes.empty(); ++I)
      Bytes[R.nextBelow(Bytes.size())] ^=
          static_cast<uint8_t>(1u << R.nextBelow(8));
  };
  switch (Kind) {
  case Mutation::BitFlips:
    FlipBits(1 + R.nextBelow(8));
    break;
  case Mutation::Truncation:
    Bytes.resize(R.nextBelow(Bytes.size() + 1));
    FlipBits(R.nextBelow(2));
    break;
  case Mutation::Splice: {
    const std::vector<uint8_t> &Other = Seeds[R.nextBelow(Seeds.size())];
    Bytes.resize(R.nextBelow(Bytes.size() + 1));
    Bytes.insert(Bytes.end(),
                 Other.begin() + static_cast<std::ptrdiff_t>(
                                     R.nextBelow(Other.size() + 1)),
                 Other.end());
    break;
  }
  }
  return Bytes;
}

/// Feeds MutationsPerKind mutations of each kind to \p Decode, which
/// returns whether it accepted the bytes and sets its error text when it
/// did not. A rejection must say why; \returns the accepted count, so a
/// caller can see the mutations reach past the first field.
template <typename DecodeFn>
size_t fuzzDecoder(const char *Name,
                   const std::vector<std::vector<uint8_t>> &Seeds,
                   uint64_t Seed, DecodeFn Decode) {
  Rng R(Seed);
  size_t Accepted = 0, SilentRejections = 0;
  for (Mutation Kind :
       {Mutation::BitFlips, Mutation::Truncation, Mutation::Splice})
    for (int I = 0; I < MutationsPerKind; ++I) {
      std::vector<uint8_t> Bytes = mutate(Seeds, Kind, R);
      std::string Err;
      if (Decode(std::span<const uint8_t>(Bytes), Err))
        ++Accepted;
      else if (Err.empty())
        ++SilentRejections;
    }
  EXPECT_EQ(SilentRejections, 0u) << Name;
  return Accepted;
}

} // namespace

// ROADMAP 4(c), the wire part: every decoder a daemon or client runs on
// bytes from its peer takes 300k seeded mutations of valid encodings (100k
// each of bit flips, truncations and splices) without crashing, hanging or
// aborting, and explains every rejection. The ASan and TSan jobs run it.
TEST(WireFuzz, DecodersSurviveMutatedEncodings) {
  std::vector<std::vector<uint8_t>> Headers;
  for (uint16_t Verb = 1; Verb <= 4; ++Verb)
    for (uint32_t Length : {0u, 17u, 4096u, MaxPayloadBytes}) {
      WireWriter W;
      W.putU32(FrameMagic);
      W.putU16(ProtocolVersion);
      W.putU16(Verb);
      W.putU32(Length);
      Headers.push_back(W.take());
    }
  size_t HeadersAccepted = fuzzDecoder(
      "frame header", Headers, 1,
      [](std::span<const uint8_t> Bytes, std::string &Err) {
        uint16_t Verb = 0;
        uint32_t Length = 0;
        bool Ok = decodeFrameHeader(Bytes, Verb, Length, &Err);
        EXPECT_TRUE(!Ok || Length <= MaxPayloadBytes);
        return Ok;
      });

  JobRequest Training = smallRequest();
  Training.Training = true;
  Training.Seed = 7;
  Training.GraphSpec = "synth:coauthors";
  size_t RequestsAccepted = fuzzDecoder(
      "job request",
      {encodeJobRequest(smallRequest()), encodeJobRequest(Training),
       encodeJobRequest(JobRequest())},
      2, [](std::span<const uint8_t> Bytes, std::string &Err) {
        JobRequest Out;
        bool Ok = decodeJobRequest(Bytes, Out, &Err);
        EXPECT_TRUE(!Ok || (Out.KIn >= 1 && Out.KOut >= 1));
        return Ok;
      });

  CompileResponse Compiled;
  Compiled.Enumerated = 12;
  Compiled.Pruned = 8;
  Compiled.Promoted = 4;
  Compiled.PlanCacheHit = true;
  Compiled.CompileSeconds = 0.25;
  Compiled.CacheKey = "m0123456789abcdef";
  fuzzDecoder("compile response",
              {encodeCompileResponse(Compiled),
               encodeErrorResponse("model parse failed")},
              3, [](std::span<const uint8_t> Bytes, std::string &Err) {
                CompileResponse Out;
                return decodeCompileResponse(Bytes, Out, &Err);
              });

  RunResponse Ran;
  Ran.Rows = 3;
  Ran.Cols = 2;
  Ran.Output = {1.5f, -2.0f, 0.0f, 4.25f, 1e-7f, -9.5f};
  Ran.ForwardSeconds = 0.5;
  Ran.PlanIndex = 1;
  Ran.RunIndex = 4;
  RunResponse NoOutput = Ran;
  NoOutput.Output.clear();
  size_t RunsAccepted = fuzzDecoder(
      "run response",
      {encodeRunResponse(Ran), encodeRunResponse(NoOutput),
       encodeErrorResponse("unknown graph")},
      4, [](std::span<const uint8_t> Bytes, std::string &Err) {
        RunResponse Out;
        bool Ok = decodeRunResponse(Bytes, Out, &Err);
        int64_t Count = 0;
        EXPECT_TRUE(!Ok || (!__builtin_mul_overflow(Out.Rows, Out.Cols,
                                                    &Count) &&
                            Count >= 0 &&
                            (Out.Output.empty() ||
                             static_cast<int64_t>(Out.Output.size()) ==
                                 Count)));
        return Ok;
      });

  StatsResponse Stats;
  Stats.RequestsServed = 10;
  Stats.PlanCacheHits = 5;
  Stats.PlanCacheMisses = 1;
  Stats.UptimeSeconds = 12.5;
  Stats.Threads = 4;
  Stats.Isa = "avx512";
  fuzzDecoder("stats response",
              {encodeStatsResponse(Stats),
               encodeErrorResponse("boom")},
              5, [](std::span<const uint8_t> Bytes, std::string &Err) {
                StatsResponse Out;
                return decodeStatsResponse(Bytes, Out, &Err);
              });

  fuzzDecoder("shutdown response",
              {encodeShutdownResponse(ShutdownResponse()),
               encodeErrorResponse("draining")},
              6, [](std::span<const uint8_t> Bytes, std::string &Err) {
                ShutdownResponse Out;
                return decodeShutdownResponse(Bytes, Out, &Err);
              });

  // The mutations reach past the first field: some survive decoding
  // (flipped bits inside strings, floats and counters).
  EXPECT_GT(HeadersAccepted, 0u);
  EXPECT_GT(RequestsAccepted, 0u);
  EXPECT_GT(RunsAccepted, 0u);
}
