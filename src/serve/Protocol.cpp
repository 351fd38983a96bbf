//===- Protocol.cpp - granii-serve request/response messages ------------------===//

#include "serve/Protocol.h"

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

void putStatus(WireWriter &W, const ResponseStatus &Status) {
  W.putU8(Status.Ok ? 0 : 1);
  if (!Status.Ok)
    W.putString(Status.Error);
}

/// Reads the leading status byte (+ error string when nonzero). \returns
/// false when the payload is an error response or malformed — in both
/// cases the caller should stop decoding the body.
bool getStatus(WireReader &R, ResponseStatus &Status) {
  uint8_t Code = R.getU8();
  if (!R.ok())
    return false;
  Status.Ok = Code == 0;
  if (!Status.Ok) {
    Status.Error = R.getString();
    return false;
  }
  return true;
}

/// Finalizes a decode: the reader must be clean and fully consumed.
bool finish(const WireReader &R, std::string *Err) {
  if (!R.ok()) {
    if (Err)
      *Err = R.error();
    return false;
  }
  if (!R.atEnd()) {
    if (Err)
      *Err = "trailing garbage after payload at byte " +
             std::to_string(R.offset());
    return false;
  }
  return true;
}

/// Error responses short-circuit getStatus; a well-formed error payload is
/// still a successful decode (the caller inspects Status.Ok).
bool finishStatusOnly(const WireReader &R, const ResponseStatus &Status,
                      std::string *Err) {
  if (!R.ok()) {
    if (Err)
      *Err = R.error();
    return false;
  }
  if (Status.Ok) {
    if (Err)
      *Err = "internal decode error: ok status in error path";
    return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// JobRequest
//===----------------------------------------------------------------------===//

std::vector<uint8_t> granii::serve::encodeJobRequest(const JobRequest &Req) {
  WireWriter W;
  W.putString(Req.ModelText);
  W.putString(Req.GraphSpec);
  W.putI64(Req.KIn);
  W.putI64(Req.KOut);
  W.putU8(Req.Training ? 1 : 0);
  W.putString(Req.Reorder);
  W.putU64(Req.Seed);
  W.putU8(Req.WantOutput ? 1 : 0);
  W.putString(Req.Format);
  return W.take();
}

bool granii::serve::decodeJobRequest(std::span<const uint8_t> Payload,
                                     JobRequest &Out, std::string *Err) {
  WireReader R(Payload);
  Out.ModelText = R.getString();
  Out.GraphSpec = R.getString();
  Out.KIn = R.getI64();
  Out.KOut = R.getI64();
  Out.Training = R.getU8() != 0;
  Out.Reorder = R.getString();
  Out.Seed = R.getU64();
  Out.WantOutput = R.getU8() != 0;
  Out.Format = R.getString();
  if (R.ok() && (Out.KIn < 1 || Out.KOut < 1))
    R.fail("embedding sizes must be >= 1 (got " + std::to_string(Out.KIn) +
           "x" + std::to_string(Out.KOut) + ")");
  return finish(R, Err);
}

//===----------------------------------------------------------------------===//
// CompileResponse
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
granii::serve::encodeCompileResponse(const CompileResponse &Resp) {
  WireWriter W;
  putStatus(W, Resp.Status);
  if (!Resp.Status.Ok)
    return W.take();
  W.putU64(Resp.Enumerated);
  W.putU64(Resp.Pruned);
  W.putU64(Resp.Promoted);
  W.putU8(Resp.PlanCacheHit ? 1 : 0);
  W.putU8(Resp.DiskHit ? 1 : 0);
  W.putF64(Resp.CompileSeconds);
  W.putString(Resp.CacheKey);
  return W.take();
}

bool granii::serve::decodeCompileResponse(std::span<const uint8_t> Payload,
                                          CompileResponse &Out,
                                          std::string *Err) {
  WireReader R(Payload);
  if (!getStatus(R, Out.Status))
    return finishStatusOnly(R, Out.Status, Err);
  Out.Enumerated = R.getU64();
  Out.Pruned = R.getU64();
  Out.Promoted = R.getU64();
  Out.PlanCacheHit = R.getU8() != 0;
  Out.DiskHit = R.getU8() != 0;
  Out.CompileSeconds = R.getF64();
  Out.CacheKey = R.getString();
  return finish(R, Err);
}

//===----------------------------------------------------------------------===//
// RunResponse
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
granii::serve::encodeRunResponse(const RunResponse &Resp) {
  WireWriter W;
  putStatus(W, Resp.Status);
  if (!Resp.Status.Ok)
    return W.take();
  W.putI64(Resp.Rows);
  W.putI64(Resp.Cols);
  W.putFloats(Resp.Output);
  W.putF64(Resp.SetupSeconds);
  W.putF64(Resp.ForwardSeconds);
  W.putF64(Resp.BackwardSeconds);
  W.putU64(Resp.PlanIndex);
  W.putU8(Resp.UsedCostModels ? 1 : 0);
  W.putU8(Resp.PlanCacheHit ? 1 : 0);
  W.putU8(Resp.SessionCacheHit ? 1 : 0);
  W.putU64(Resp.SteadyAllocations);
  W.putU64(Resp.RunIndex);
  return W.take();
}

bool granii::serve::decodeRunResponse(std::span<const uint8_t> Payload,
                                      RunResponse &Out, std::string *Err) {
  WireReader R(Payload);
  if (!getStatus(R, Out.Status))
    return finishStatusOnly(R, Out.Status, Err);
  Out.Rows = R.getI64();
  Out.Cols = R.getI64();
  Out.Output = R.getFloats();
  Out.SetupSeconds = R.getF64();
  Out.ForwardSeconds = R.getF64();
  Out.BackwardSeconds = R.getF64();
  Out.PlanIndex = R.getU64();
  Out.UsedCostModels = R.getU8() != 0;
  Out.PlanCacheHit = R.getU8() != 0;
  Out.SessionCacheHit = R.getU8() != 0;
  Out.SteadyAllocations = R.getU64();
  Out.RunIndex = R.getU64();
  if (R.ok() && !Out.Output.empty() &&
      static_cast<int64_t>(Out.Output.size()) != Out.Rows * Out.Cols)
    R.fail("output payload has " + std::to_string(Out.Output.size()) +
           " values for a " + std::to_string(Out.Rows) + "x" +
           std::to_string(Out.Cols) + " matrix");
  return finish(R, Err);
}

//===----------------------------------------------------------------------===//
// StatsResponse
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
granii::serve::encodeStatsResponse(const StatsResponse &Resp) {
  WireWriter W;
  putStatus(W, Resp.Status);
  if (!Resp.Status.Ok)
    return W.take();
  W.putU64(Resp.RequestsServed);
  W.putU64(Resp.RunRequests);
  W.putU64(Resp.CompileRequests);
  W.putU64(Resp.ErrorResponses);
  W.putU64(Resp.SessionsLive);
  W.putU64(Resp.SessionHits);
  W.putU64(Resp.SessionEvictions);
  W.putU64(Resp.PlanCacheHits);
  W.putU64(Resp.PlanCacheMisses);
  W.putU64(Resp.PlanCacheDiskHits);
  W.putU64(Resp.PlanCacheEvictions);
  W.putF64(Resp.UptimeSeconds);
  W.putI64(Resp.Threads);
  W.putString(Resp.Isa);
  return W.take();
}

bool granii::serve::decodeStatsResponse(std::span<const uint8_t> Payload,
                                        StatsResponse &Out,
                                        std::string *Err) {
  WireReader R(Payload);
  if (!getStatus(R, Out.Status))
    return finishStatusOnly(R, Out.Status, Err);
  Out.RequestsServed = R.getU64();
  Out.RunRequests = R.getU64();
  Out.CompileRequests = R.getU64();
  Out.ErrorResponses = R.getU64();
  Out.SessionsLive = R.getU64();
  Out.SessionHits = R.getU64();
  Out.SessionEvictions = R.getU64();
  Out.PlanCacheHits = R.getU64();
  Out.PlanCacheMisses = R.getU64();
  Out.PlanCacheDiskHits = R.getU64();
  Out.PlanCacheEvictions = R.getU64();
  Out.UptimeSeconds = R.getF64();
  Out.Threads = R.getI64();
  Out.Isa = R.getString();
  return finish(R, Err);
}

//===----------------------------------------------------------------------===//
// ShutdownResponse
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
granii::serve::encodeShutdownResponse(const ShutdownResponse &Resp) {
  WireWriter W;
  putStatus(W, Resp.Status);
  return W.take();
}

bool granii::serve::decodeShutdownResponse(std::span<const uint8_t> Payload,
                                           ShutdownResponse &Out,
                                           std::string *Err) {
  WireReader R(Payload);
  if (!getStatus(R, Out.Status))
    return finishStatusOnly(R, Out.Status, Err);
  return finish(R, Err);
}

std::vector<uint8_t>
granii::serve::encodeErrorResponse(Verb V, const std::string &Message) {
  ResponseStatus Status;
  Status.Ok = false;
  Status.Error = Message;
  switch (V) {
  case Verb::Compile: {
    CompileResponse Resp;
    Resp.Status = Status;
    return encodeCompileResponse(Resp);
  }
  case Verb::Run: {
    RunResponse Resp;
    Resp.Status = Status;
    return encodeRunResponse(Resp);
  }
  case Verb::Stats: {
    StatsResponse Resp;
    Resp.Status = Status;
    return encodeStatsResponse(Resp);
  }
  case Verb::Shutdown: {
    ShutdownResponse Resp;
    Resp.Status = Status;
    return encodeShutdownResponse(Resp);
  }
  }
  WireWriter W;
  putStatus(W, Status);
  return W.take();
}
