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
/// non-null) when the spec names an unknown synthetic graph or the file
/// cannot be read.
std::optional<Graph> loadGraphSpec(const std::string &Spec,
                                   std::string *Err = nullptr);

/// Stable content fingerprint of \p G: hashes the name, shape, and the raw
/// CSR arrays (offsets, columns, explicit values). No request path calls
/// it (the plan cache keys on the model text); the end-to-end benchmark
/// times it as `graph.fingerprint_ms`.
uint64_t graphFingerprint(const Graph &G);

} // namespace granii

#endif // GRANII_GRAPH_GRAPHSPEC_H
