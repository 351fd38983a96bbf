//===- GraphSpec.h - Textual graph specifications ---------------*- C++ -*-===//
///
/// \file
/// Resolves the textual graph specifications shared by granii-cli and the
/// serving daemon: "synth:<name>" names one of the built-in evaluation
/// graphs, anything else is read as a Matrix Market file. Factoring the
/// resolution here keeps the one-shot CLI and a daemon request that carries
/// the same spec string on one code path, which is what makes their outputs
/// bitwise comparable.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_GRAPH_GRAPHSPEC_H
#define GRANII_GRAPH_GRAPHSPEC_H

#include "graph/Graph.h"

#include <optional>
#include <string>

namespace granii {

/// Loads the graph named by \p Spec ("synth:<name>" or a Matrix Market
/// path). \returns nullopt with a one-line reason appended to \p Err (if
/// non-null; the bare message, which the CLI prints as an "error: " line
/// and the daemon sends as a request error) when the spec names an unknown
/// synthetic graph, the file cannot be read, or the host cannot build the
/// graph: an R-MAT spec asking for more edges than its nodes have distinct
/// pairs, or a graph whose build would exceed physical memory (checked
/// before anything is sized).
std::optional<Graph> loadGraphSpec(const std::string &Spec,
                                   std::string *Err = nullptr);

/// What a cached answer for \p Spec must match to stay current. A
/// "synth:" spec names a deterministic generator, so its identity is its
/// text. A file's is its path plus, from one stat(), its device, inode,
/// size and modification and status-change times to the nanosecond:
/// replacing or rewriting the file changes it, except a rewrite in place to
/// the same size within one timestamp tick. \returns nullopt when the path
/// does not stat (loadGraphSpec then reports why it cannot be read).
std::optional<std::string> graphSpecIdentity(const std::string &Spec);

/// Stable content fingerprint of \p G: hashes the name, shape, and the raw
/// CSR arrays (offsets, columns, explicit values). No request path calls
/// it (the plan cache keys on the model text); the end-to-end benchmark
/// times it as `graph.fingerprint_ms`.
uint64_t graphFingerprint(const Graph &G);

} // namespace granii

#endif // GRANII_GRAPH_GRAPHSPEC_H
