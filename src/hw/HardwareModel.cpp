//===- HardwareModel.cpp - Target hardware latency models ------------------===//

#include "hw/HardwareModel.h"

#include "kernels/Dispatch.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace granii;

DeviceParams DeviceParams::cpu() {
  DeviceParams P;
  P.Name = "cpu";
  // One Xeon-class core running the scalar kernels; the kernel library
  // row-partitions across NumCores of them. The active SIMD dispatch level
  // multiplies both throughputs by its measured speedup over scalar (see
  // docs/SIMD.md for the calibration procedure), so plan selection keeps
  // ranking dense-vs-sparse trades correctly under GRANII_ISA overrides.
  const kernels::SimdOps &Ops = kernels::simdOps();
  P.Isa = kernels::isaLevelName(Ops.Level);
  P.DenseGflops = 4.0 * Ops.DenseThroughputScale;
  P.SparseGflops = 1.0 * Ops.SparseThroughputScale;
  // The sparse scale doubles as the effective-bandwidth scale: it is
  // calibrated from the g-SpMM/SDDMM medians, which are memory-traffic
  // dominated, so the same factor describes how much more bandwidth the
  // vector loads/gathers sustain than the scalar loops (a single core is
  // load-port-limited, not DRAM-limited). Leaving bandwidth at the scalar
  // calibration would make every sparse primitive memory-bound at a rate
  // the measured kernels demonstrably exceed.
  P.BandwidthGBs = 12.0 * Ops.SparseThroughputScale;
  P.LaunchMicros = 0.05;
  P.SaturationMflops = 0.01;
  P.AtomicCoef = 0.0; // Row-exclusive increments do not contend.
  P.IrregularityCoef = 0.15;
  P.NumCores = ThreadPool::get().numThreads();
  return P;
}

DeviceParams DeviceParams::a100() {
  DeviceParams P;
  P.Name = "a100";
  P.DenseGflops = 17000.0;
  P.SparseGflops = 700.0;
  P.BandwidthGBs = 1400.0;
  // Scaled to the reduced graph sizes of this reproduction: what matters
  // is the launch-to-kernel-time ratio, not the absolute microseconds.
  P.LaunchMicros = 0.5;
  P.SaturationMflops = 2.0;
  // The paper traces WiseGraph's large GCN/SGC/TAGCN losses on A100 to a
  // PyTorch binning normalization whose atomics contend badly when few
  // bins receive many edges (dense graphs).
  P.AtomicCoef = 1.2;
  P.IrregularityCoef = 0.5;
  return P;
}

DeviceParams DeviceParams::h100() {
  DeviceParams P;
  P.Name = "h100";
  // Dense ops improve more than sparse ops generation over generation
  // (paper §VI-C1 "Difference Across Hardware").
  P.DenseGflops = 48000.0;
  P.SparseGflops = 1300.0;
  P.BandwidthGBs = 3200.0;
  P.LaunchMicros = 0.3;
  P.SaturationMflops = 3.0;
  P.AtomicCoef = 0.05; // Much-improved atomics.
  P.IrregularityCoef = 0.35;
  return P;
}

double HardwareModel::estimateSeconds(const PrimitiveDesc &Desc,
                                      const GraphStats *Stats) const {
  double Flops = Desc.flops();
  double Bytes = Desc.bytes();
  bool Sparse = isSparsePrimitive(Desc.Kind);

  double PeakGflops = Sparse ? Params.SparseGflops : Params.DenseGflops;
  // Small kernels do not saturate the device; ramp throughput with a
  // saturating curve on total work.
  double SaturationFlops = Params.SaturationMflops * 1e6;
  double Utilization = Flops / (Flops + SaturationFlops);
  double EffectiveGflops = std::max(PeakGflops * Utilization, 1e-3);

  double ComputeSec = Flops / (EffectiveGflops * 1e9);
  // Multi-core platforms split the compute side across cores at less than
  // ideal efficiency; the memory side stays whole-device (shared bus).
  if (Params.NumCores > 1)
    ComputeSec /=
        1.0 + (Params.NumCores - 1) * std::clamp(Params.ParallelEfficiency,
                                                 0.0, 1.0);
  double MemorySec = Bytes / (Params.BandwidthGBs * 1e9);
  double Time = std::max(ComputeSec, MemorySec);

  if (Sparse && Stats) {
    Time *= 1.0 + Params.IrregularityCoef * Stats->DegreeCv;
    // Sharded aggregation re-reads every cut edge's halo row once per
    // shard boundary it crosses; the analytic model prices that extra
    // memory traffic proportionally to the partition's edge-cut fraction
    // (whole-graph stats keep the defaults, leaving this factor at 1).
    if (Stats->ShardCount > 1.0)
      Time *= 1.0 + 0.25 * Stats->ShardEdgeCutFraction;
  }

  if (Desc.Kind == PrimitiveKind::DegreeBinning && Stats)
    // Scatter-add contention grows with edges per bin (average degree).
    Time *= 1.0 + Params.AtomicCoef * Stats->AvgDegree;

  return Time + Params.LaunchMicros * 1e-6;
}

std::vector<HardwareModel> HardwareModel::paperPlatforms() {
  return {HardwareModel(PlatformKind::Simulated, DeviceParams::h100()),
          HardwareModel(PlatformKind::Simulated, DeviceParams::a100()),
          HardwareModel(PlatformKind::Measured, DeviceParams::cpu())};
}

HardwareModel HardwareModel::byName(const std::string &Name) {
  if (Name == "cpu")
    return HardwareModel(PlatformKind::Measured, DeviceParams::cpu());
  if (Name == "a100")
    return HardwareModel(PlatformKind::Simulated, DeviceParams::a100());
  if (Name == "h100")
    return HardwareModel(PlatformKind::Simulated, DeviceParams::h100());
  GRANII_FATAL("unknown hardware platform: " + Name);
}
