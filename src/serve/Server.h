//===- Server.h - Unix-domain-socket plan-serving daemon --------*- C++ -*-===//
///
/// \file
/// The granii-serve daemon: a Unix-domain stream socket speaking the framed
/// protocol of Wire.h/Protocol.h, dispatching requests into a shared
/// Engine. One accept thread hands connections to a small pool of
/// connection workers; each worker services frames on its connection until
/// the peer closes or the server drains. Kernel execution itself is NOT
/// per-connection-parallel — every session's run multiplexes over the
/// process-wide ThreadPool, which serializes jobs while letting each job
/// use all configured threads. That preserves the executor's determinism
/// contract: a daemon answer is bitwise identical to a one-shot
/// `granii-cli run` of the same request.
///
/// Shutdown is graceful from three triggers — the shutdown verb, SIGINT,
/// and SIGTERM (installed by serveForever): the listener closes, in-flight
/// requests finish, connection workers join, the kernel pool quiesces, and
/// the socket file is unlinked.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SERVE_SERVER_H
#define GRANII_SERVE_SERVER_H

#include "serve/Engine.h"
#include "support/ThreadSafety.h"
#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

namespace granii {
namespace serve {

struct ServerOptions {
  /// Filesystem path of the listening socket. An existing file at the path
  /// is unlinked at start (a daemon that died without cleanup must not
  /// block its successor).
  std::string SocketPath;
  /// Connection workers: how many clients can have a request in flight at
  /// once (their kernel work still serializes on the shared ThreadPool).
  /// start() refuses a count outside [1, maxConfigurableThreads()].
  int ConnWorkers = 8;
  EngineOptions Engine;
};

/// Request counters the stats verb reports on top of the engine's.
struct ServerCounters {
  uint64_t RequestsServed = 0;
  uint64_t RunRequests = 0;
  uint64_t CompileRequests = 0;
  uint64_t ErrorResponses = 0;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and spawns the accept + worker threads. \returns
  /// false with \p Err on a connection worker count outside
  /// [1, maxConfigurableThreads()] (checked before anything is created) and
  /// on socket errors (path too long, bind failure, ...).
  bool start(std::string *Err = nullptr);

  /// Triggers a graceful drain; safe from any thread and idempotent (the
  /// shutdown verb and the signal handlers both funnel here). Wakes the
  /// accept loop via the internal stop pipe, so no new connections are
  /// admitted; in-flight requests run to completion.
  void requestStop();

  /// Blocks until the server has drained: accept + connection workers
  /// joined, kernel pool quiesced, socket unlinked.
  void wait();

  /// Convenience for the CLI: start(), install SIGINT/SIGTERM handlers
  /// that requestStop(), then wait(). Restores the previous handlers
  /// before returning. Only one Server may serveForever at a time.
  bool serveForever(std::string *Err = nullptr);

  bool running() const { return Running.load(); }
  const std::string &socketPath() const { return Opts.SocketPath; }
  Engine &engine() { return Eng; }
  ServerCounters counters() const;

private:
  void acceptLoop();
  void workerLoop();
  /// Services every frame on \p Fd until EOF, error, or drain.
  void handleConnection(int Fd);
  /// Decodes and dispatches one frame; \returns the response payload and
  /// sets \p RespVerb (== the request verb).
  std::vector<uint8_t> dispatch(const Frame &In, uint16_t &RespVerb);

  ServerOptions Opts;
  Engine Eng;
  Timer Uptime;

  int ListenFd = -1;
  int StopPipe[2] = {-1, -1}; ///< [0] polled by accept, [1] written to stop
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};

  std::thread Acceptor;
  std::vector<std::thread> Workers;

  /// Accepted connections awaiting a worker.
  Mutex QueueMutex{"Server::QueueMutex"};
  CondVar QueueCv;
  std::deque<int> PendingConns GRANII_GUARDED_BY(QueueMutex);

  mutable Mutex CountersMutex{"Server::CountersMutex"};
  ServerCounters Counters GRANII_GUARDED_BY(CountersMutex);
};

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_SERVER_H
