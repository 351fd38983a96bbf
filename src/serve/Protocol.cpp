//===- Protocol.cpp - granii-serve request/response messages ------------------===//

#include "serve/Protocol.h"

#include <type_traits>

using namespace granii;
using namespace granii::serve;

const char *granii::serve::verbName(Verb V) {
  switch (V) {
  case Verb::Compile:
    return "compile";
  case Verb::Run:
    return "run";
  case Verb::Stats:
    return "stats";
  case Verb::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

namespace {

/// Responses lead with a status; the job request has none.
template <typename Msg>
constexpr bool IsResponse = !std::is_same_v<Msg, JobRequest>;

void putStatus(WireWriter &W, const ResponseStatus &Status) {
  W.put(!Status.Ok);
  if (!Status.Ok)
    W.put(Status.Error);
}

/// Reads the leading status. \returns whether the message's fields follow:
/// the read was clean and the status is ok.
bool getStatus(WireReader &R, ResponseStatus &Status) {
  bool Failed = false;
  R.get(Failed);
  Status.Ok = !Failed;
  if (Failed)
    R.get(Status.Error);
  return R.ok() && Status.Ok;
}

/// The one encoder: a response's status, then, unless it is an error, the
/// message's fields in the order its walk lists them.
template <typename Msg> std::vector<uint8_t> encode(const Msg &M) {
  WireWriter W;
  if constexpr (IsResponse<Msg>) {
    putStatus(W, M.Status);
    if (!M.Status.Ok)
      return W.take();
  }
  Msg::fields(M, [&W](const auto &...Field) { (W.put(Field), ...); });
  return W.take();
}

struct NoCheck {
  template <typename Msg> void operator()(const Msg &, WireReader &) const {}
};

/// The one decoder, the encoder's mirror: a response's status, then, unless
/// it is an error, every field of the walk, after which \p Check may fail
/// the reader on the decoded message. The payload must be consumed exactly.
template <typename Msg, typename CheckFn = NoCheck>
bool decode(std::span<const uint8_t> Payload, Msg &Out, std::string *Err,
            CheckFn Check = {}) {
  WireReader R(Payload);
  bool HasFields = true;
  if constexpr (IsResponse<Msg>)
    HasFields = getStatus(R, Out.Status);
  if (HasFields) {
    Msg::fields(Out, [&R](auto &...Field) { (R.get(Field), ...); });
    if (R.ok())
      Check(Out, R);
  }
  if (R.atEnd())
    return true;
  if (Err)
    *Err = !R.ok() ? R.error()
                   : "trailing garbage after payload at byte " +
                         std::to_string(R.offset());
  return false;
}

} // namespace

std::vector<uint8_t> granii::serve::encodeJobRequest(const JobRequest &Req) {
  return encode(Req);
}

bool granii::serve::decodeJobRequest(std::span<const uint8_t> Payload,
                                     JobRequest &Out, std::string *Err) {
  return decode(Payload, Out, Err, [](const JobRequest &Req, WireReader &R) {
    if (Req.KIn < 1 || Req.KOut < 1)
      R.fail("embedding sizes must be >= 1 (got " + std::to_string(Req.KIn) +
             "x" + std::to_string(Req.KOut) + ")");
  });
}

std::vector<uint8_t>
granii::serve::encodeCompileResponse(const CompileResponse &Resp) {
  return encode(Resp);
}

bool granii::serve::decodeCompileResponse(std::span<const uint8_t> Payload,
                                          CompileResponse &Out,
                                          std::string *Err) {
  return decode(Payload, Out, Err);
}

std::vector<uint8_t>
granii::serve::encodeRunResponse(const RunResponse &Resp) {
  return encode(Resp);
}

bool granii::serve::decodeRunResponse(std::span<const uint8_t> Payload,
                                      RunResponse &Out, std::string *Err) {
  return decode(Payload, Out, Err, [](const RunResponse &Resp, WireReader &R) {
    // Corrupt dimensions must not overflow the element count.
    int64_t Count = 0;
    if (Resp.Rows < 0 || Resp.Cols < 0 ||
        __builtin_mul_overflow(Resp.Rows, Resp.Cols, &Count) ||
        (!Resp.Output.empty() &&
         static_cast<int64_t>(Resp.Output.size()) != Count))
      R.fail("output payload has " + std::to_string(Resp.Output.size()) +
             " values for a " + std::to_string(Resp.Rows) + "x" +
             std::to_string(Resp.Cols) + " matrix");
  });
}

std::vector<uint8_t>
granii::serve::encodeStatsResponse(const StatsResponse &Resp) {
  return encode(Resp);
}

bool granii::serve::decodeStatsResponse(std::span<const uint8_t> Payload,
                                        StatsResponse &Out,
                                        std::string *Err) {
  return decode(Payload, Out, Err);
}

std::vector<uint8_t>
granii::serve::encodeShutdownResponse(const ShutdownResponse &Resp) {
  return encode(Resp);
}

bool granii::serve::decodeShutdownResponse(std::span<const uint8_t> Payload,
                                           ShutdownResponse &Out,
                                           std::string *Err) {
  return decode(Payload, Out, Err);
}

std::vector<uint8_t>
granii::serve::encodeErrorResponse(const std::string &Message) {
  WireWriter W;
  putStatus(W, {false, Message});
  return W.take();
}
