//===- micro_kernels.cpp - Measured kernel micro-benchmarks -----------------===//
//
// Wall-clock timings of the primitive kernel library on the machine running
// the reproduction (the "real measurement" counterpart of the simulated
// platforms). Every kernel runs in its destination-passing `...Into` form
// against a preallocated destination, mirroring the runtime's buffer-arena
// execution: the loops measure kernel compute, not the allocator.
//
// Usage: micro_kernels [--threads N] [--json=<report.json>]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "graph/Generators.h"
#include "kernels/Dispatch.h"
#include "kernels/Kernels.h"
#include "support/Diag.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdio>
#include <map>

using namespace granii;

namespace {

DenseMatrix randomDense(int64_t Rows, int64_t Cols, uint64_t Seed) {
  Rng R(Seed);
  DenseMatrix M(Rows, Cols);
  M.fillRandom(R);
  return M;
}

const Graph &benchGraph() {
  static Graph G = makeRmat(2000, 30000, 0.55, 0.2, 0.15, 77);
  return G;
}

/// A warmup + 11-repetition Timer loop over every kernel, printed one line
/// per record and, with \p JsonPath set, written as a granii-bench-v1
/// report granii-bench-diff can consume. The set runs once per SIMD level
/// the host supports (record ids carry a "/<isa>" suffix), so one report
/// both tracks regressions per level and yields the SIMD-vs-scalar speedups
/// docs/SIMD.md calibrates from. These are measured wall-clock numbers:
/// machine-dependent, so CI baselines mark them gate=false (reported, never
/// failing) — and levels the CI host lacks are simply absent, which
/// granii-bench-diff reports as skipped rather than missing.
int runKernels(const std::string &JsonPath) {
  using bench::BenchRecord;
  using bench::BenchReport;
  const Graph &G = benchGraph();
  BenchReport Report;
  /// median seconds per (kernel id, isa) for the speedup summary.
  std::map<std::string, std::map<std::string, double>> Medians;
  std::string Isa;

  auto Measure = [&](const std::string &Id, const std::string &GraphName,
                     int64_t KIn, int64_t KOut, const PrimitiveDesc &Desc,
                     auto &&Fn) {
    Fn(); // warm-up: faults pages, warms caches and the thread pool
    const int Reps = 11;
    std::vector<double> Samples;
    Samples.reserve(Reps);
    for (int I = 0; I < Reps; ++I) {
      Timer T;
      Fn();
      Samples.push_back(T.seconds());
    }
    BenchRecord R = BenchReport::makeRecord("micro/" + Id + "/" + Isa,
                                            GraphName, KIn, KOut, Samples,
                                            Desc.bytes());
    std::printf("%-44s median %9.4f ms  p10 %9.4f  p90 %9.4f\n",
                R.Id.c_str(), R.MedianSeconds * 1e3, R.P10Seconds * 1e3,
                R.P90Seconds * 1e3);
    Medians[Id][Isa] = R.MedianSeconds;
    Report.add(std::move(R));
  };

  auto MeasureAll = [&] {
    {
      const int64_t N = 1024, K = 64;
      DenseMatrix A = randomDense(N, K, 1), B = randomDense(K, K, 2);
      DenseMatrix C(N, K);
      Measure("gemm/1024x64", "-", K, K, {PrimitiveKind::Gemm, N, K, K, 0},
              [&] { kernels::gemmInto(A, B, C); });
    }
    {
      const int64_t K = 64;
      DenseMatrix H = randomDense(G.numNodes(), K, 3);
      DenseMatrix Out(G.numNodes(), K);
      Measure("spmm_u/64", G.name(), K, K,
              {PrimitiveKind::SpMMUnweighted, G.numNodes(), K, 0,
               G.numEdges()},
              [&] {
                kernels::spmmInto(G.adjacency(), H, Semiring::plusCopy(),
                                  Out);
              });
    }
    {
      const int64_t K = 64;
      CsrMatrix A = G.adjacency();
      std::vector<float> Vals(static_cast<size_t>(A.nnz()), 0.5f);
      A.setValues(std::move(Vals));
      DenseMatrix H = randomDense(G.numNodes(), K, 4);
      DenseMatrix Out(G.numNodes(), K);
      Measure("spmm_w/64", G.name(), K, K,
              {PrimitiveKind::SpMMWeighted, G.numNodes(), K, 0,
               G.numEdges()},
              [&] { kernels::spmmInto(A, H, Semiring::plusTimes(), Out); });
    }
    {
      // The weight-gradient shape A^T * B of 8192 nodes, K 64 -> 128: the
      // contraction spans eight windows of GemmTLhsWindowRows rows.
      const int64_t M = 8192, KIn = 64, KOut = 128;
      DenseMatrix A = randomDense(M, KIn, 7), B = randomDense(M, KOut, 8);
      DenseMatrix C(KIn, KOut);
      Measure("gemm_t_lhs/8192x64x128", "-", KIn, KOut,
              {PrimitiveKind::Gemm, KIn, KOut, M, 0},
              [&] { kernels::gemmTransposedLhsInto(A, B, C); });
    }
    {
      // The aggregation width of the warm GCN workload.
      const int64_t K = 128;
      DenseMatrix H = randomDense(G.numNodes(), K, 3);
      DenseMatrix Out(G.numNodes(), K);
      Measure("spmm_u/128", G.name(), K, K,
              {PrimitiveKind::SpMMUnweighted, G.numNodes(), K, 0,
               G.numEdges()},
              [&] {
                kernels::spmmInto(G.adjacency(), H, Semiring::plusCopy(),
                                  Out);
              });
    }
    {
      // The backward aggregation A^T (x) H over the CSC view, its values
      // read through the CSC->CSR index.
      const int64_t K = 64;
      const CsrMatrix &A = G.adjacency();
      CscMatrix Csc = CscMatrix::fromCsr(A);
      std::vector<float> Vals(static_cast<size_t>(A.nnz()), 0.5f);
      DenseMatrix H = randomDense(G.numNodes(), K, 4);
      DenseMatrix Out(G.numNodes(), K);
      Measure("spmm_csc_t/64", G.name(), K, K,
              {PrimitiveKind::SpMMWeighted, G.numNodes(), K, 0,
               G.numEdges()},
              [&] {
                kernels::spmmCscTransposedInto(Csc, Vals, H,
                                               Semiring::plusTimes(), Out);
              });
    }
    {
      const int64_t K = 32;
      DenseMatrix U = randomDense(G.numNodes(), K, 5);
      std::vector<float> Out(static_cast<size_t>(G.numEdges()));
      Measure("sddmm_dot/32", G.name(), K, K,
              {PrimitiveKind::SddmmDot, G.numNodes(), 0, K, G.numEdges()},
              [&] {
                kernels::sddmmInto(G.adjacency(), U, U,
                                   Semiring::plusTimes(), Out);
              });
    }
    {
      const int64_t K = 128;
      DenseMatrix H = randomDense(4096, K, 6);
      std::vector<float> D(4096, 1.1f);
      DenseMatrix Out(4096, K);
      Measure("row_broadcast/128", "-", K, K,
              {PrimitiveKind::RowBroadcast, 4096, K, 0, 0},
              [&] { kernels::rowBroadcastMulInto(D, H, Out); });
    }
    {
      // The two-sided normalization D A D of GCN's precomputed adjacency.
      std::vector<float> D(static_cast<size_t>(G.numNodes()), 0.7f);
      std::vector<float> OutVals(static_cast<size_t>(G.numEdges()));
      Measure("scale_sparse_both", G.name(), 0, 0,
              {PrimitiveKind::SddmmScale, G.numNodes(), 0, 2, G.numEdges()},
              [&] {
                kernels::scaleSparseBothInto(G.adjacency(), D, D, OutVals);
              });
    }
    {
      // The degree vector two ways: from the CSR offsets, and by per-edge
      // binning (the baselines' atomic-style computation).
      std::vector<float> Out(static_cast<size_t>(G.numNodes()));
      Measure("degree_offsets", G.name(), 0, 0,
              {PrimitiveKind::DegreeOffsets, G.numNodes(), 0, 0,
               G.numEdges()},
              [&] { kernels::degreeFromOffsetsInto(G.adjacency(), Out); });
      Measure("degree_binning", G.name(), 0, 0,
              {PrimitiveKind::DegreeBinning, G.numNodes(), 0, 0,
               G.numEdges()},
              [&] { kernels::degreeByBinningInto(G.adjacency(), Out); });
    }
    {
      std::vector<float> Vals(static_cast<size_t>(G.numEdges()), 0.3f);
      std::vector<float> Out(static_cast<size_t>(G.numEdges()));
      Measure("edge_softmax", G.name(), 0, 0,
              {PrimitiveKind::EdgeSoftmax, G.numNodes(), 0, 0,
               G.numEdges()},
              [&] { kernels::edgeSoftmaxInto(G.adjacency(), Vals, Out); });
    }
    // The training backward's rewritten primitives.
    {
      // The ReLU gradient, accumulated as the backward pass does.
      const int64_t K = 128;
      DenseMatrix Pre = randomDense(4096, K, 9);
      DenseMatrix Grad = randomDense(4096, K, 10);
      DenseMatrix Acc(4096, K);
      Measure("relu_backward", "-", K, K,
              {PrimitiveKind::DenseMap, 4096, K, 0, 0}, [&] {
                kernels::reluBackwardAccumulateInto(Pre, Grad, Acc,
                                                    /*First=*/true);
              });
    }
    {
      // The SpMM's edge gradient at the GAT training width.
      const int64_t K = 64;
      DenseMatrix U = randomDense(G.numNodes(), K, 11);
      DenseMatrix V = randomDense(G.numNodes(), K, 12);
      std::vector<float> Out(static_cast<size_t>(G.numEdges()));
      Measure("sddmm_dot/64", G.name(), K, K,
              {PrimitiveKind::SddmmDot, G.numNodes(), 0, K, G.numEdges()},
              [&] {
                kernels::sddmmInto(G.adjacency(), U, V,
                                   Semiring::plusTimes(), Out);
              });
    }
    {
      // The input gradient dY * W^T of the GAT training layer: 25000
      // nodes, K 64 -> 128.
      const int64_t N = 25000, KIn = 64, KOut = 128;
      DenseMatrix Dy = randomDense(N, KOut, 13), W = randomDense(KIn, KOut, 14);
      DenseMatrix Dx(N, KIn);
      Measure("gemm_t_rhs/25000x128x64", "-", KIn, KOut,
              {PrimitiveKind::Gemm, N, KIn, KOut, 0},
              [&] { kernels::gemmTransposedRhsInto(Dy, W, Dx); });
    }
    {
      const CsrMatrix &A = G.adjacency();
      const size_t Nnz = static_cast<size_t>(A.nnz());
      std::vector<float> Logits(Nnz), Alpha(Nnz), Grad(Nnz, 0.25f), DIn(Nnz);
      Rng R(15);
      for (float &X : Logits)
        X = R.nextFloat(-1.0f, 1.0f);
      kernels::edgeSoftmaxInto(A, Logits, Alpha);
      const PrimitiveDesc Desc{PrimitiveKind::EdgeElementwise, G.numNodes(),
                               0, 0, G.numEdges()};
      Measure("edge_softmax_backward", G.name(), 0, 0,
              {PrimitiveKind::EdgeSoftmax, G.numNodes(), 0, 0, G.numEdges()},
              [&] {
                kernels::edgeSoftmaxBackwardInto(A, Alpha, Grad, DIn,
                                                 /*First=*/true);
              });
      Measure("edge_leaky_relu_backward", G.name(), 0, 0, Desc, [&] {
        kernels::leakyReluEdgesBackwardInto(Logits, Grad, 0.2f, DIn,
                                            /*First=*/true);
      });
    }
  };

  // Sweep every SIMD level the host supports, scalar first, then restore
  // the level the process started with.
  kernels::IsaLevel Entry = kernels::activeIsaLevel();
  for (kernels::IsaLevel Level : kernels::supportedIsaLevels()) {
    kernels::setIsaLevel(Level);
    Isa = kernels::isaLevelName(Level);
    std::fprintf(stderr, "[micro_kernels] measuring isa level: %s\n",
                 Isa.c_str());
    MeasureAll();
  }
  kernels::setIsaLevel(Entry);

  // Speedup summary over scalar: the calibration input for the
  // DeviceParams::cpu() throughput scales (docs/SIMD.md) and the
  // acceptance view for the SIMD microkernels.
  for (const auto &[Id, PerIsa] : Medians) {
    auto Scalar = PerIsa.find("scalar");
    if (Scalar == PerIsa.end() || Scalar->second <= 0.0)
      continue;
    std::string Line = "[micro_kernels] " + Id + ":";
    for (const auto &[Name, Median] : PerIsa) {
      if (Name == "scalar" || Median <= 0.0)
        continue;
      char Buffer[64];
      std::snprintf(Buffer, sizeof(Buffer), " %s %.2fx", Name.c_str(),
                    Scalar->second / Median);
      Line += Buffer;
    }
    std::fprintf(stderr, "%s\n", Line.c_str());
  }

  if (JsonPath.empty())
    return 0;
  std::string WriteError;
  if (!Report.write(JsonPath, &WriteError)) {
    std::fprintf(stderr, "error: %s\n", WriteError.c_str());
    return 1;
  }
  std::fprintf(stderr, "[micro_kernels] wrote machine-readable report to "
               "%s\n",
               JsonPath.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string Threads = bench::consumeValueFlag(argc, argv, "threads");
  if (!Threads.empty()) {
    std::string Warning;
    int Count = parseThreadCount(Threads, /*Fallback=*/0, &Warning);
    if (!Warning.empty())
      std::fprintf(stderr, "%s\n",
                   Diag{DiagSeverity::Warning, "bench", "--threads", Warning,
                        "pass a positive integer thread count"}
                       .toString()
                       .c_str());
    if (Count > 0)
      ThreadPool::get().setNumThreads(Count);
  }
  std::string JsonPath = bench::consumeValueFlag(argc, argv, "json");
  if (argc > 1) {
    std::fprintf(stderr,
                 "error: unknown argument '%s'\n"
                 "usage: micro_kernels [--threads N] [--json=<report.json>]\n",
                 argv[1]);
    return 2;
  }
  std::fprintf(stderr, "[micro_kernels] threads: %d\n",
               ThreadPool::get().numThreads());
  return runKernels(JsonPath);
}
