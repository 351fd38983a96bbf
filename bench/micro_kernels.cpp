//===- micro_kernels.cpp - Measured kernel micro-benchmarks -----------------===//
//
// google-benchmark timings of the primitive kernel library on the machine
// running the reproduction (the "real measurement" counterpart of the
// simulated platforms). Every benchmark drives the destination-passing
// `...Into` kernel forms against a preallocated destination, mirroring the
// runtime's buffer-arena execution: the loops measure kernel compute, not
// the allocator.
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

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

} // namespace

static void BM_Gemm(benchmark::State &State) {
  int64_t N = State.range(0), K = State.range(1);
  DenseMatrix A = randomDense(N, K, 1), B = randomDense(K, K, 2);
  DenseMatrix C(N, K);
  for (auto _ : State) {
    kernels::gemmInto(A, B, C);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * 2 * N * K * K);
}
BENCHMARK(BM_Gemm)->Args({1024, 32})->Args({1024, 64})->Args({2048, 64});

static void BM_SpmmUnweighted(benchmark::State &State) {
  const Graph &G = benchGraph();
  DenseMatrix H = randomDense(G.numNodes(), State.range(0), 3);
  DenseMatrix Out(G.numNodes(), State.range(0));
  for (auto _ : State) {
    kernels::spmmInto(G.adjacency(), H, Semiring::plusCopy(), Out);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * G.numEdges() * State.range(0));
}
BENCHMARK(BM_SpmmUnweighted)->Arg(32)->Arg(64)->Arg(128);

static void BM_SpmmWeighted(benchmark::State &State) {
  const Graph &G = benchGraph();
  CsrMatrix A = G.adjacency();
  std::vector<float> Vals(static_cast<size_t>(A.nnz()), 0.5f);
  A.setValues(std::move(Vals));
  DenseMatrix H = randomDense(G.numNodes(), State.range(0), 4);
  DenseMatrix Out(G.numNodes(), State.range(0));
  for (auto _ : State) {
    kernels::spmmInto(A, H, Semiring::plusTimes(), Out);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * 2 * G.numEdges() *
                          State.range(0));
}
BENCHMARK(BM_SpmmWeighted)->Arg(32)->Arg(64)->Arg(128);

static void BM_SddmmDot(benchmark::State &State) {
  const Graph &G = benchGraph();
  DenseMatrix U = randomDense(G.numNodes(), State.range(0), 5);
  std::vector<float> Out(static_cast<size_t>(G.numEdges()));
  for (auto _ : State) {
    kernels::sddmmInto(G.adjacency(), U, U, Semiring::plusTimes(), Out);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_SddmmDot)->Arg(32)->Arg(64);

static void BM_ScaleSparseBoth(benchmark::State &State) {
  const Graph &G = benchGraph();
  std::vector<float> D(static_cast<size_t>(G.numNodes()), 0.7f);
  std::vector<float> OutVals(static_cast<size_t>(G.numEdges()));
  for (auto _ : State) {
    kernels::scaleSparseBothInto(G.adjacency(), D, D, OutVals);
    benchmark::DoNotOptimize(OutVals.data());
  }
}
BENCHMARK(BM_ScaleSparseBoth);

static void BM_RowBroadcast(benchmark::State &State) {
  DenseMatrix H = randomDense(4096, State.range(0), 6);
  std::vector<float> D(4096, 1.1f);
  DenseMatrix Out(4096, State.range(0));
  for (auto _ : State) {
    kernels::rowBroadcastMulInto(D, H, Out);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_RowBroadcast)->Arg(32)->Arg(128);

static void BM_DegreeOffsets(benchmark::State &State) {
  const Graph &G = benchGraph();
  std::vector<float> Out(static_cast<size_t>(G.numNodes()));
  for (auto _ : State) {
    kernels::degreeFromOffsetsInto(G.adjacency(), Out);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_DegreeOffsets);

static void BM_DegreeBinning(benchmark::State &State) {
  const Graph &G = benchGraph();
  std::vector<float> Out(static_cast<size_t>(G.numNodes()));
  for (auto _ : State) {
    kernels::degreeByBinningInto(G.adjacency(), Out);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_DegreeBinning);

static void BM_EdgeSoftmax(benchmark::State &State) {
  const Graph &G = benchGraph();
  std::vector<float> Vals(static_cast<size_t>(G.numEdges()), 0.3f);
  std::vector<float> Out(static_cast<size_t>(G.numEdges()));
  for (auto _ : State) {
    kernels::edgeSoftmaxInto(G.adjacency(), Vals, Out);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_EdgeSoftmax);

namespace {

/// --json mode: a hand-rolled warmup + 11-repetition Timer loop over a
/// representative kernel subset, bypassing google-benchmark so the output
/// is a granii-bench-v1 report granii-bench-diff can consume. The subset
/// runs once per SIMD level the host supports (record ids carry a
/// "/<isa>" suffix), so one report both tracks regressions per level and
/// yields the SIMD-vs-scalar speedups docs/SIMD.md calibrates from. These
/// are measured wall-clock numbers: machine-dependent, so CI baselines
/// mark them gate=false (reported, never failing) — and levels the CI
/// host lacks are simply absent, which granii-bench-diff reports as
/// skipped rather than missing.
int runJsonMode(const std::string &Path) {
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
  // the level the process started with so a trailing google-benchmark run
  // (or the caller's environment override) is unaffected.
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

  std::string WriteError;
  if (!Report.write(Path, &WriteError)) {
    std::fprintf(stderr, "error: %s\n", WriteError.c_str());
    return 1;
  }
  std::fprintf(stderr, "[micro_kernels] wrote machine-readable report to "
               "%s\n",
               Path.c_str());
  return 0;
}

} // namespace

// Custom main instead of BENCHMARK_MAIN(): consume --threads=N (or
// "--threads N") before google-benchmark sees the argument list, so the
// kernel pool size can be swept, e.g. for the 1-vs-8-thread speedup runs.
int main(int argc, char **argv) {
  auto SetThreads = [](const char *Text) {
    std::string Warning;
    int Threads = parseThreadCount(Text, /*Fallback=*/0, &Warning);
    if (!Warning.empty())
      std::fprintf(stderr, "%s\n",
                   Diag{DiagSeverity::Warning, "bench", "--threads", Warning,
                        "pass a positive integer thread count"}
                       .toString()
                       .c_str());
    if (Threads > 0)
      ThreadPool::get().setNumThreads(Threads);
  };
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--threads=", 10) == 0) {
      SetThreads(Arg + 10);
      continue;
    }
    if (std::strcmp(Arg, "--threads") == 0 && I + 1 < argc) {
      SetThreads(argv[++I]);
      continue;
    }
    argv[Kept++] = argv[I];
  }
  argc = Kept;
  std::fprintf(stderr, "[micro_kernels] threads: %d\n",
               ThreadPool::get().numThreads());
  std::string JsonPath = bench::consumeValueFlag(argc, argv, "json");
  if (!JsonPath.empty())
    return runJsonMode(JsonPath);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
