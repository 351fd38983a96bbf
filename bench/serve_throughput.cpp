//===- serve_throughput.cpp - granii-serve request throughput ---------------===//
//
// Measures the serving daemon end to end: an in-process Server on a real
// Unix socket, N concurrent clients each issuing a stream of run requests
// against a warm session. Reports requests/second for the concurrent sweep
// plus the warm single-client round-trip latency (socket + framing + one
// executed pass), i.e. what the paper's amortization argument buys once the
// offline stage and the session setup are off the request path.
//
// Flags: --clients N (default 8), --requests N per client (default 32),
// --json=<file> for a granii-bench-v1 report, --smoke for the small CI
// subset (fewer requests, small graph), --threads N to pin the kernel pool.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Str.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace granii;
using namespace granii::bench;
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

struct SweepResult {
  double WallSeconds = 0.0;
  uint64_t Requests = 0;
  bool Ok = true;
};

/// One concurrent batch: \p Clients connections, \p PerClient requests
/// each, all against the same warm session.
SweepResult runBatch(const std::string &Socket, const JobRequest &Req,
                     int Clients, int PerClient) {
  SweepResult Result;
  std::vector<std::thread> Threads;
  std::vector<bool> ClientOk(Clients, false);
  Timer Wall;
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      std::string Err;
      if (!C.connect(Socket, &Err)) {
        std::fprintf(stderr, "client %d: %s\n", I, Err.c_str());
        return;
      }
      for (int R = 0; R < PerClient; ++R) {
        RunResponse Resp;
        if (!C.run(Req, Resp, &Err) || !Resp.Status.Ok) {
          std::fprintf(stderr, "client %d request %d failed: %s\n", I, R,
                       (Err.empty() ? Resp.Status.Error : Err).c_str());
          return;
        }
      }
      ClientOk[I] = true;
    });
  for (std::thread &T : Threads)
    T.join();
  Result.WallSeconds = Wall.seconds();
  Result.Requests = static_cast<uint64_t>(Clients) * PerClient;
  for (bool Ok : ClientOk)
    Result.Ok = Result.Ok && Ok;
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = consumeValueFlag(argc, argv, "json");
  bool Smoke = consumeBoolFlag(argc, argv, "smoke");
  std::string ThreadsFlag = consumeValueFlag(argc, argv, "threads");
  std::string ClientsFlag = consumeValueFlag(argc, argv, "clients");
  std::string RequestsFlag = consumeValueFlag(argc, argv, "requests");
  auto ParseCount = [](const std::string &Flag, const char *Name,
                       int Default) {
    if (Flag.empty())
      return Default;
    int64_t Value = 0;
    if (!granii::parseInt64(Flag, Value) || Value < 1 || Value > 1 << 20) {
      std::fprintf(stderr, "invalid --%s value: %s\n", Name, Flag.c_str());
      std::exit(2);
    }
    return static_cast<int>(Value);
  };
  if (!ThreadsFlag.empty())
    BenchContext::get().setThreads(ParseCount(ThreadsFlag, "threads", 1));

  int Clients = ParseCount(ClientsFlag, "clients", 8);
  int PerClient = ParseCount(RequestsFlag, "requests", 32);
  if (Smoke) {
    Clients = 8;
    PerClient = 4;
  }
  const int Reps = Smoke ? 3 : 5;

  JobRequest Req;
  Req.ModelText = GcnModel;
  const std::string GraphName = Smoke ? "mycielskian" : "coauthors";
  Req.GraphSpec = "synth:" + GraphName;
  Req.KIn = Smoke ? 8 : 32;
  Req.KOut = Smoke ? 12 : 32;
  Req.WantOutput = false; // measure serving, not output transport

  ServerOptions Options;
  Options.SocketPath =
      "/tmp/granii-bench-" + std::to_string(::getpid()) + ".sock";
  Options.ConnWorkers = Clients;
  Server Srv(Options);
  std::string Err;
  if (!Srv.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  std::printf("granii-serve throughput (GCN, %s, K=%lldx%lld, %d kernel "
              "thread(s))\n\n",
              Req.GraphSpec.c_str(), static_cast<long long>(Req.KIn),
              static_cast<long long>(Req.KOut),
              static_cast<int>(ThreadPool::get().numThreads()));

  // Warm up: first request pays compile + session setup; everything the
  // sweep measures is the amortized steady state.
  {
    Client C;
    RunResponse Resp;
    if (!C.connect(Options.SocketPath, &Err) || !C.run(Req, Resp, &Err) ||
        !Resp.Status.Ok) {
      std::fprintf(stderr, "warmup failed: %s%s\n", Err.c_str(),
                   Resp.Status.Error.c_str());
      Srv.requestStop();
      Srv.wait();
      return 1;
    }
  }

  BenchReport Report;
  int ExitCode = 0;

  // Warm single-client latency: one connection, sequential round trips.
  {
    Client C;
    if (!C.connect(Options.SocketPath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      Srv.requestStop();
      Srv.wait();
      return 1;
    }
    const int LatencyCalls = Smoke ? 16 : 64;
    std::vector<double> Samples;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      Timer T;
      for (int I = 0; I < LatencyCalls; ++I) {
        RunResponse Resp;
        if (!C.run(Req, Resp, &Err) || !Resp.Status.Ok ||
            Resp.SteadyAllocations != 0) {
          std::fprintf(stderr, "latency call failed (allocs=%llu): %s%s\n",
                       static_cast<unsigned long long>(
                           Resp.SteadyAllocations),
                       Err.c_str(), Resp.Status.Error.c_str());
          ExitCode = 1;
          break;
        }
      }
      Samples.push_back(T.seconds() / LatencyCalls);
    }
    std::sort(Samples.begin(), Samples.end());
    std::printf("warm latency: %.3f ms/request (1 client, median of %d "
                "runs of %d calls)\n",
                Samples[Samples.size() / 2] * 1e3, Reps, LatencyCalls);
    Report.add(BenchReport::makeRecord("serve/latency/warm", GraphName,
                                       Req.KIn, Req.KOut, Samples, 0.0));
  }

  // Concurrent throughput sweep.
  {
    std::vector<double> Samples;
    double BestReqPerSec = 0.0;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      SweepResult R = runBatch(Options.SocketPath, Req, Clients, PerClient);
      if (!R.Ok) {
        ExitCode = 1;
        break;
      }
      Samples.push_back(R.WallSeconds / static_cast<double>(R.Requests));
      BestReqPerSec = std::max(
          BestReqPerSec, static_cast<double>(R.Requests) / R.WallSeconds);
    }
    if (!Samples.empty()) {
      std::sort(Samples.begin(), Samples.end());
      std::printf("throughput: %.0f req/sec best of %d (%d clients x %d "
                  "requests, %.3f ms/request median)\n",
                  BestReqPerSec, Reps, Clients, PerClient,
                  Samples[Samples.size() / 2] * 1e3);
      Report.add(BenchReport::makeRecord(
          "serve/throughput/c" + std::to_string(Clients), GraphName,
          Req.KIn, Req.KOut, Samples, 0.0));
    }
  }

  // Protocol-level stats, then drain through the shutdown verb so the
  // graceful path is exercised on every bench run.
  {
    Client C;
    StatsResponse Stats;
    ShutdownResponse Ack;
    if (C.connect(Options.SocketPath, &Err) && C.stats(Stats, &Err) &&
        Stats.Status.Ok) {
      std::printf("\ndaemon: %llu request(s), %llu session hit(s), "
                  "%llu plan-cache hit(s), %llu error(s)\n",
                  static_cast<unsigned long long>(Stats.RequestsServed),
                  static_cast<unsigned long long>(Stats.SessionHits),
                  static_cast<unsigned long long>(Stats.PlanCacheHits),
                  static_cast<unsigned long long>(Stats.ErrorResponses));
      if (Stats.ErrorResponses != 0)
        ExitCode = 1;
    }
    if (!C.shutdown(Ack, &Err) || !Ack.Status.Ok) {
      std::fprintf(stderr, "shutdown failed: %s\n", Err.c_str());
      ExitCode = 1;
    }
  }
  Srv.wait();

  if (!JsonPath.empty() && !Report.write(JsonPath, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  return ExitCode;
}
