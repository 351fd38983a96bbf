//===- Client.cpp - granii-serve client library -------------------------------===//

#include "serve/Client.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace granii;
using namespace granii::serve;

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Client::connect(const std::string &SocketPath, std::string *Err) {
  close();
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path must be 1.." +
             std::to_string(sizeof(Addr.sun_path) - 1) + " bytes, got " +
             std::to_string(SocketPath.size());
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Err)
      // NOLINTNEXTLINE(concurrency-mt-unsafe): errno text, error path
      *Err = std::string("socket failed: ") + std::strerror(errno);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Err)
      // NOLINTNEXTLINE(concurrency-mt-unsafe): errno text, error path
      *Err = "cannot connect to '" + SocketPath +
             "': " + std::strerror(errno) +
             " (is the daemon running? start it with 'granii-cli serve')";
    close();
    return false;
  }
  return true;
}

template <typename Response>
bool Client::call(Verb V, const std::vector<uint8_t> &Payload,
                  bool (*Decode)(std::span<const uint8_t>, Response &,
                                 std::string *),
                  Response &Resp, std::string *Err) {
  if (Fd < 0) {
    if (Err)
      *Err = "client is not connected";
    return false;
  }
  if (!writeFrame(Fd, static_cast<uint16_t>(V), Payload, Err))
    return false;
  Frame In;
  ReadStatus Status = readFrame(Fd, In, Err);
  if (Status == ReadStatus::Eof) {
    if (Err)
      *Err = "daemon closed the connection without responding";
    return false;
  }
  if (Status == ReadStatus::Error)
    return false;
  if (In.Verb != static_cast<uint16_t>(V)) {
    if (Err)
      *Err = "response verb " + std::to_string(In.Verb) +
             " does not match request verb '" + verbName(V) + "'";
    return false;
  }
  return Decode(In.Payload, Resp, Err);
}

bool Client::compile(const JobRequest &Req, CompileResponse &Resp,
                     std::string *Err) {
  return call(Verb::Compile, encodeJobRequest(Req), decodeCompileResponse,
              Resp, Err);
}

bool Client::run(const JobRequest &Req, RunResponse &Resp, std::string *Err) {
  return call(Verb::Run, encodeJobRequest(Req), decodeRunResponse, Resp, Err);
}

bool Client::stats(StatsResponse &Resp, std::string *Err) {
  return call(Verb::Stats, {}, decodeStatsResponse, Resp, Err);
}

bool Client::shutdown(ShutdownResponse &Resp, std::string *Err) {
  return call(Verb::Shutdown, {}, decodeShutdownResponse, Resp, Err);
}
