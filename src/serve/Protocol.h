//===- Protocol.h - granii-serve request/response messages ------*- C++ -*-===//
///
/// \file
/// The verb-level layer of the granii-serve protocol: typed request and
/// response structs with encode/decode functions over the Wire format.
///
/// Four verbs:
///   compile   — run (or fetch from the plan cache) the offline stage for a
///               model, after the same request checks a run makes; no
///               execution.
///   run       — full online path: session lookup or creation, selection,
///               one executed forward (or forward+backward) pass.
///   stats     — server counters (requests, sessions, plan-cache hits, ...).
///   shutdown  — ask the daemon to drain in-flight requests and exit.
///
/// Every response payload starts with a status byte (0 = ok) followed by an
/// error string when nonzero, so clients surface server-side diagnostics
/// verbatim. All decoders are total: any malformed payload yields false
/// plus a positioned error message.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SERVE_PROTOCOL_H
#define GRANII_SERVE_PROTOCOL_H

#include "serve/Wire.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace granii {
namespace serve {

enum class Verb : uint16_t {
  Compile = 1,
  Run = 2,
  Stats = 3,
  Shutdown = 4,
};

/// Printable verb name for logs and traces ("compile", ...).
const char *verbName(Verb V);

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

/// Shared request body for compile and run: everything that identifies one
/// serving configuration. The daemon resolves GraphSpec itself (same
/// loadGraphSpec path as the CLI), so requests stay small even for the
/// built-in synthetic graphs.
struct JobRequest {
  std::string ModelText; ///< DSL source of the model
  std::string GraphSpec; ///< "synth:<name>" or a Matrix Market path
  int64_t KIn = 32;
  int64_t KOut = 32;
  bool Training = false;
  /// Vertex order name. Execution keeps the graph's order, so the engine
  /// rejects anything but "none" or empty; like Format, the field stays on
  /// the wire because the end-to-end benchmark sets it, and goes with the
  /// next change to the benchmark.
  std::string Reorder = "none";
  uint64_t Seed = 1;       ///< makeLayerParams parameter seed
  bool WantOutput = false; ///< run only: return the output matrix
  /// Sparse storage format name. CSR is the only format, so the engine
  /// rejects anything but "csr" or empty; the field stays on the wire
  /// because the end-to-end benchmark sets it, and goes with the next
  /// change to the benchmark.
  std::string Format = "csr";
};

std::vector<uint8_t> encodeJobRequest(const JobRequest &Req);
bool decodeJobRequest(std::span<const uint8_t> Payload, JobRequest &Out,
                      std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

/// Leading status of every response payload.
struct ResponseStatus {
  bool Ok = true;
  std::string Error;
};

struct CompileResponse {
  ResponseStatus Status;
  uint64_t Enumerated = 0;
  uint64_t Pruned = 0;
  uint64_t Promoted = 0;
  bool PlanCacheHit = false; ///< promoted set came from the plan cache
  double CompileSeconds = 0.0;
  /// The model's plan-cache identity, "m<hex16>": FNV-1a of the model text
  /// (the cache itself keys on the text).
  std::string CacheKey;
};

struct RunResponse {
  ResponseStatus Status;
  int64_t Rows = 0;
  int64_t Cols = 0;
  /// Row-major output values; empty unless the request set WantOutput.
  std::vector<float> Output;
  double SetupSeconds = 0.0;
  double ForwardSeconds = 0.0;
  double BackwardSeconds = 0.0;
  uint64_t PlanIndex = 0;
  bool UsedCostModels = false;
  bool PlanCacheHit = false;
  bool SessionCacheHit = false; ///< reused a warm session (amortized path)
  /// Workspace allocation count of this run; 0 on every warm run is the
  /// zero-steady-state-allocation guarantee, surfaced per response so
  /// clients (and CI) can assert it remotely.
  uint64_t SteadyAllocations = 0;
  uint64_t RunIndex = 0; ///< how many times this session has run (1-based)
};

struct StatsResponse {
  ResponseStatus Status;
  uint64_t RequestsServed = 0;
  uint64_t RunRequests = 0;
  uint64_t CompileRequests = 0;
  uint64_t ErrorResponses = 0;
  uint64_t SessionsLive = 0;
  uint64_t SessionHits = 0;
  uint64_t SessionEvictions = 0;
  uint64_t PlanCacheHits = 0;
  uint64_t PlanCacheMisses = 0;
  uint64_t PlanCacheEvictions = 0;
  double UptimeSeconds = 0.0;
  int64_t Threads = 0;
  std::string Isa;
};

/// Shutdown acknowledgement carries only the status.
struct ShutdownResponse {
  ResponseStatus Status;
};

std::vector<uint8_t> encodeCompileResponse(const CompileResponse &Resp);
bool decodeCompileResponse(std::span<const uint8_t> Payload,
                           CompileResponse &Out, std::string *Err = nullptr);

std::vector<uint8_t> encodeRunResponse(const RunResponse &Resp);
bool decodeRunResponse(std::span<const uint8_t> Payload, RunResponse &Out,
                       std::string *Err = nullptr);

std::vector<uint8_t> encodeStatsResponse(const StatsResponse &Resp);
bool decodeStatsResponse(std::span<const uint8_t> Payload, StatsResponse &Out,
                         std::string *Err = nullptr);

std::vector<uint8_t> encodeShutdownResponse(const ShutdownResponse &Resp);
bool decodeShutdownResponse(std::span<const uint8_t> Payload,
                            ShutdownResponse &Out,
                            std::string *Err = nullptr);

/// Builds an error response payload for \p V (the verb-specific struct with
/// Status.Ok = false and the message set).
std::vector<uint8_t> encodeErrorResponse(Verb V, const std::string &Message);

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_PROTOCOL_H
