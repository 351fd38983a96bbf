//===- Workloads.h - Timed end-to-end workloads -----------------*- C++ -*-===//
///
/// \file
/// The subcommands run.py drives, one fresh process per workload run. Each
/// prints one JSON object as its last stdout line: the raw per-request
/// samples, set-up times, CPU and peak RSS of the timed part, and the output
/// checks. Percentiles and the final report are computed by run.py.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

namespace perfbench {

class Flags;

/// gcn-infer-warm: an in-process Server with one connection worker and one
/// Client sending run requests back to back.
int runServeWarm(const Flags &Args);

/// gat-train-warm: Optimizer::select once, then execute(Training=true) plus
/// an SGD step per iteration.
int runTrainWarm(const Flags &Args);

/// Checks granii-cli output files listed in a manifest (oneshot-cold).
int runCheck(const Flags &Args);

/// Generates one seeded graph into a directory (graph.mtx + adj.bin).
int runGenerate(const Flags &Args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
