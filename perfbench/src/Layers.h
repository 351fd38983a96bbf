//===- Layers.h - Traced per-layer run --------------------------*- C++ -*-===//
///
/// \file
/// The traced run: on a workload's own inputs, the benchmark calls each
/// layer's public entry points itself, wraps every call in a span, and
/// reports per-layer times and counts, the unattributed remainder of each
/// opaque entry point, and its own overhead against an untraced loop.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

namespace perfbench {

class Flags;

int runTrace(const Flags &Args);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
