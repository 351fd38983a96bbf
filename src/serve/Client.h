//===- Client.h - granii-serve client library -------------------*- C++ -*-===//
///
/// \file
/// Synchronous client for the granii-serve daemon: connects to the Unix
/// socket, sends one framed request per call, and decodes the typed
/// response. Transport failures and protocol violations return false with
/// a message; server-side failures come back as a decoded response whose
/// Status carries the daemon's diagnostic. `granii-cli call` and the
/// serve_throughput bench are both thin wrappers over this class.
///
/// A Client is one connection and is not thread-safe; concurrent callers
/// use one Client each (the daemon multiplexes them).
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SERVE_CLIENT_H
#define GRANII_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include <string>

namespace granii {
namespace serve {

class Client {
public:
  Client() = default;
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to the daemon at \p SocketPath.
  bool connect(const std::string &SocketPath, std::string *Err = nullptr);
  bool connected() const { return Fd >= 0; }
  void close();

  bool compile(const JobRequest &Req, CompileResponse &Resp,
               std::string *Err = nullptr);
  bool run(const JobRequest &Req, RunResponse &Resp,
           std::string *Err = nullptr);
  bool stats(StatsResponse &Resp, std::string *Err = nullptr);
  bool shutdown(ShutdownResponse &Resp, std::string *Err = nullptr);

private:
  /// Sends \p Payload under \p V, reads one response frame, enforcing that
  /// its verb echoes the request verb, and decodes it into \p Resp.
  template <typename Response>
  bool call(Verb V, const std::vector<uint8_t> &Payload,
            bool (*Decode)(std::span<const uint8_t>, Response &,
                           std::string *),
            Response &Resp, std::string *Err);

  int Fd = -1;
};

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_CLIENT_H
