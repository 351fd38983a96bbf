//===- CliDriver.h - granii-cli command implementation ----------*- C++ -*-===//
///
/// \file
/// The granii-cli compiler driver, factored as a library so the command
/// logic is unit-testable. Subcommands:
///
///   granii-cli compile <model.gnn> [--dot]
///       Parse a DSL model, run the offline stage with every check, print
///       the IR, the enumeration/pruning statistics and the promoted
///       candidates with their setup steps and the embedding-size scenarios
///       each is viable in; optionally emit Graphviz DOT.
///
///   granii-cli run <model.gnn> [--graph <spec>] --kin N --kout N
///              [--hw cpu|a100|h100] [--iters N] [--train] [--profile]
///       Full pipeline: offline compile, online selection for the given
///       input, execution, and a timing report. <spec> is a Matrix Market
///       path or "synth:<name>" for a built-in evaluation graph (default
///       synth:coauthors). With --profile, the session runs once more and
///       the report reads that warm run's own step records: a per-step
///       table (time, the selecting cost model's prediction and their
///       ratio, bytes, GFLOP/s, GB/s; a backward table in training), the
///       planned peak/arena/baseline memory of the same buffer plan, and
///       the run's workspace allocation count (nonzero fails the run with
///       exit code 1).
///
///   granii-cli graphgen <name> <out.mtx>
///       Write one of the built-in synthetic evaluation graphs to disk.
///
///   granii-cli serve --socket <path> [--workers N] [--sessions N]
///              [--iters N]
///       Run the persistent plan-serving daemon on a Unix socket: each
///       model compiles once (an in-memory LRU keyed by the model text),
///       sessions stay warm between requests, and shutdown (SIGINT/SIGTERM
///       or the shutdown verb) drains gracefully. --workers (default 8)
///       must lie in [1, maxConfigurableThreads()]; anything else exits 2.
///       See docs/SERVING.md.
///
///   granii-cli call --socket <path> <model.gnn> [run flags] [--out <file>]
///   granii-cli call --socket <path> --stats | --shutdown
///       One request against a running daemon. `--out` writes the output
///       matrix in the same binary format as `run --out`, so the two can
///       be compared bit for bit.
///
/// Global flags: --threads N pins the kernel thread pool; --trace=<file>
/// records a Chrome-trace (chrome://tracing / Perfetto JSON) of the
/// optimizer phases and executor steps and writes it when the command
/// finishes, even on failure. Every subcommand rejects flags it does not
/// understand with a structured diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TOOLS_CLIDRIVER_H
#define GRANII_TOOLS_CLIDRIVER_H

#include <string>
#include <vector>

namespace granii {
namespace cli {

/// Executes the driver on \p Args (excluding argv[0]); human-readable
/// output and diagnostics are appended to \p Out and \p Err.
/// \returns the process exit code.
int runCli(const std::vector<std::string> &Args, std::string &Out,
           std::string &Err);

} // namespace cli
} // namespace granii

#endif // GRANII_TOOLS_CLIDRIVER_H
