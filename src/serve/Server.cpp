//===- Server.cpp - Unix-domain-socket plan-serving daemon --------------------===//

#include "serve/Server.h"

#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace granii;
using namespace granii::serve;

namespace {

/// Write end of the stop pipe of the Server currently in serveForever();
/// the installed signal handlers write one byte to it. A single global is
/// enough because serveForever is documented single-instance.
std::atomic<int> SignalStopFd{-1};

void onStopSignal(int) {
  int Fd = SignalStopFd.load();
  if (Fd >= 0) {
    // Only async-signal-safe calls here; the byte value is irrelevant.
    char B = 's';
    [[maybe_unused]] ssize_t N = ::write(Fd, &B, 1);
  }
}

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

} // namespace

Server::Server(ServerOptions OptsIn)
    : Opts(std::move(OptsIn)), Eng(Opts.Engine) {}

Server::~Server() {
  requestStop();
  wait();
}

bool Server::start(std::string *Err) {
  if (Running.load())
    return true;
  // Each connection worker is a thread started below: bound the count
  // before anything is created.
  if (Opts.ConnWorkers < 1 || Opts.ConnWorkers > maxConfigurableThreads()) {
    if (Err)
      *Err = "connection worker count must be in [1, " +
             std::to_string(maxConfigurableThreads()) + "], got " +
             std::to_string(Opts.ConnWorkers);
    return false;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path must be 1.." +
             std::to_string(sizeof(Addr.sun_path) - 1) + " bytes, got " +
             std::to_string(Opts.SocketPath.size());
    return false;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  if (::pipe(StopPipe) != 0) {
    if (Err)
      // NOLINTNEXTLINE(concurrency-mt-unsafe): errno text, error path
      *Err = std::string("pipe failed: ") + std::strerror(errno);
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Err)
      // NOLINTNEXTLINE(concurrency-mt-unsafe): errno text, error path
      *Err = std::string("socket failed: ") + std::strerror(errno);
    closeFd(StopPipe[0]);
    closeFd(StopPipe[1]);
    return false;
  }
  // A stale socket file from a crashed daemon must not block the bind.
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      ::listen(ListenFd, 64) != 0) {
    if (Err)
      // NOLINTNEXTLINE(concurrency-mt-unsafe): errno text, error path
      *Err = "cannot listen on '" + Opts.SocketPath +
             "': " + std::strerror(errno);
    closeFd(ListenFd);
    closeFd(StopPipe[0]);
    closeFd(StopPipe[1]);
    return false;
  }

  Stopping.store(false);
  Running.store(true);
  Acceptor = std::thread([this] { acceptLoop(); });
  for (int I = 0; I < Opts.ConnWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  return true;
}

void Server::requestStop() {
  if (!Running.load() || Stopping.exchange(true))
    return;
  // Wake the accept loop; it closes the listener and notifies the workers.
  char B = 'q';
  if (StopPipe[1] >= 0)
    [[maybe_unused]] ssize_t N = ::write(StopPipe[1], &B, 1);
}

void Server::acceptLoop() {
  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {StopPipe[0], POLLIN, 0}};
    int N = ::poll(Fds, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if ((Fds[1].revents & POLLIN) != 0 || Stopping.load())
      break;
    if ((Fds[0].revents & POLLIN) == 0)
      continue;
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn < 0)
      continue;
    {
      MutexLock Lock(QueueMutex);
      PendingConns.push_back(Conn);
    }
    QueueCv.notifyOne();
  }
  // Drain trigger: stop admitting connections, then wake every worker so
  // they can observe Stopping once their current request finishes.
  Stopping.store(true);
  closeFd(ListenFd);
  QueueCv.notifyAll();
}

void Server::workerLoop() {
  for (;;) {
    int Conn = -1;
    {
      MutexLock Lock(QueueMutex);
      while (!Stopping.load() && PendingConns.empty())
        QueueCv.wait(Lock);
      if (PendingConns.empty())
        return; // draining and nothing queued
      Conn = PendingConns.front();
      PendingConns.pop_front();
    }
    handleConnection(Conn);
  }
}

void Server::handleConnection(int Fd) {
  // Between frames, poll with a timeout so an idle persistent connection
  // notices the drain; a request already being read or served always runs
  // to completion.
  while (!Stopping.load()) {
    pollfd P{Fd, POLLIN, 0};
    int N = ::poll(&P, 1, 100);
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0)
      continue;

    Frame In;
    std::string FrameErr;
    ReadStatus Status = readFrame(Fd, In, &FrameErr);
    if (Status == ReadStatus::Eof)
      break;
    if (Status == ReadStatus::Error) {
      // A framing error (bad magic, truncation) poisons the stream: there
      // is no frame boundary to resynchronize on, so answer with a framed
      // error (best effort) and drop the connection.
      std::vector<uint8_t> Payload =
          encodeErrorResponse("protocol error: " + FrameErr);
      writeFrame(Fd, 0, Payload);
      MutexLock Lock(CountersMutex);
      ++Counters.ErrorResponses;
      break;
    }

    uint16_t RespVerb = In.Verb;
    std::vector<uint8_t> Payload = dispatch(In, RespVerb);
    std::string WriteErr;
    if (!writeFrame(Fd, RespVerb, Payload, &WriteErr))
      break;
  }
  ::close(Fd);
}

std::vector<uint8_t> Server::dispatch(const Frame &In, uint16_t &RespVerb) {
  auto CountError = [this] {
    MutexLock Lock(CountersMutex);
    ++Counters.ErrorResponses;
  };
  {
    MutexLock Lock(CountersMutex);
    ++Counters.RequestsServed;
  }

  Verb V = static_cast<Verb>(In.Verb);
  RespVerb = In.Verb;
  TraceSpan Span(std::string("request:") + verbName(V), "serve");
  Span.setArg("payload_bytes", static_cast<double>(In.Payload.size()));

  switch (V) {
  case Verb::Compile:
  case Verb::Run: {
    {
      MutexLock Lock(CountersMutex);
      ++(V == Verb::Run ? Counters.RunRequests : Counters.CompileRequests);
    }
    JobRequest Req;
    std::string DecodeErr;
    if (!decodeJobRequest(In.Payload, Req, &DecodeErr)) {
      CountError();
      return encodeErrorResponse(std::string("bad ") + verbName(V) +
                                 " request: " + DecodeErr);
    }
    if (V == Verb::Compile) {
      CompileResponse Resp = Eng.compile(Req);
      if (!Resp.Status.Ok)
        CountError();
      return encodeCompileResponse(Resp);
    }
    RunResponse Resp = Eng.run(Req);
    if (!Resp.Status.Ok)
      CountError();
    TraceSpan EncodeSpan("encode-response", "serve");
    std::vector<uint8_t> Payload = encodeRunResponse(Resp);
    EncodeSpan.setArg("bytes", static_cast<double>(Payload.size()));
    return Payload;
  }
  case Verb::Stats: {
    StatsResponse Resp;
    {
      MutexLock Lock(CountersMutex);
      Resp.RequestsServed = Counters.RequestsServed;
      Resp.RunRequests = Counters.RunRequests;
      Resp.CompileRequests = Counters.CompileRequests;
      Resp.ErrorResponses = Counters.ErrorResponses;
    }
    Eng.fillStats(Resp);
    Resp.UptimeSeconds = Uptime.seconds();
    return encodeStatsResponse(Resp);
  }
  case Verb::Shutdown: {
    ShutdownResponse Resp;
    std::vector<uint8_t> Payload = encodeShutdownResponse(Resp);
    requestStop();
    return Payload;
  }
  }
  CountError();
  return encodeErrorResponse("unknown verb " + std::to_string(In.Verb));
}

void Server::wait() {
  if (!Running.load())
    return;
  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();
  // Close any connections that were accepted but never claimed. Workers
  // are joined, but the lock is still taken — the annotation contract on
  // PendingConns is unconditional, and the uncontended acquisition is free.
  {
    MutexLock Lock(QueueMutex);
    for (int Fd : PendingConns)
      ::close(Fd);
    PendingConns.clear();
  }
  closeFd(StopPipe[0]);
  closeFd(StopPipe[1]);
  ::unlink(Opts.SocketPath.c_str());
  // Drain the kernel pool so process exit never races a worker thread.
  ThreadPool::get().quiesce();
  Running.store(false);
}

bool Server::serveForever(std::string *Err) {
  if (!start(Err))
    return false;
  SignalStopFd.store(StopPipe[1]);
  struct sigaction Action {};
  Action.sa_handler = onStopSignal;
  sigemptyset(&Action.sa_mask);
  struct sigaction OldInt {}, OldTerm {};
  ::sigaction(SIGINT, &Action, &OldInt);
  ::sigaction(SIGTERM, &Action, &OldTerm);
  wait();
  ::sigaction(SIGINT, &OldInt, nullptr);
  ::sigaction(SIGTERM, &OldTerm, nullptr);
  SignalStopFd.store(-1);
  return true;
}

ServerCounters Server::counters() const {
  MutexLock Lock(CountersMutex);
  return Counters;
}
