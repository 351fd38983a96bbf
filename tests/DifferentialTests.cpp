//===- DifferentialTests.cpp - Randomized differential-testing harness ------===//
//
// Seeded property-based testing of the whole execution stack: random graphs
// and embedding sizes drive every surviving plan candidate of GCN / GAT /
// SAGE through fresh, warm, and reordered workspaces at 1 and 4 threads,
// comparing everything against a from-scratch double-precision reference
// implementation written with plain loops (no kernel-library code on the
// reference side).
//
// Comparison contract (see Executor.h):
//  - a by-value run (fresh workspace) vs a caller-held workspace, warm or
//    rebound to another graph, and 1 thread vs 4 threads: bitwise identical
//    (row-parallelism never splits one row's accumulation),
//  - reordered vs unreordered: <= 1e-5 relative after the executor's
//    inverse row permutation (relabeling reorders each row's neighbor
//    summation, so bitwise equality is impossible by construction),
//  - naive reference: small tolerance (float kernels vs double loops).
//
// Every instance is deterministic in its seed; failures print the seed so a
// reproduction is one test-filter run away.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "graph/Generators.h"
#include "graph/Reorder.h"
#include "granii/Granii.h"
#include "kernels/Dispatch.h"
#include "models/Models.h"
#include "runtime/Executor.h"
#include "support/Diag.h"
#include "support/Rng.h"
#include "verify/VerifyBuffers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace granii;

namespace {

//===----------------------------------------------------------------------===//
// Naive dense reference (double accumulation, plain loops)
//===----------------------------------------------------------------------===//

DenseMatrix refGemm(const DenseMatrix &A, const DenseMatrix &B) {
  DenseMatrix C(A.rows(), B.cols());
  for (int64_t I = 0; I < A.rows(); ++I)
    for (int64_t J = 0; J < B.cols(); ++J) {
      double Acc = 0.0;
      for (int64_t K = 0; K < A.cols(); ++K)
        Acc += static_cast<double>(A.at(I, K)) * B.at(K, J);
      C.at(I, J) = static_cast<float>(Acc);
    }
  return C;
}

/// Sum of neighbor rows: Out[i, :] = sum_{j in N(i)} H[j, :].
DenseMatrix refAggregate(const CsrMatrix &A, const DenseMatrix &H) {
  DenseMatrix Out(A.rows(), H.cols());
  const auto &Off = A.rowOffsets();
  const auto &Col = A.colIndices();
  for (int64_t I = 0; I < A.rows(); ++I)
    for (int64_t C = 0; C < H.cols(); ++C) {
      double Acc = 0.0;
      for (int64_t K = Off[static_cast<size_t>(I)];
           K < Off[static_cast<size_t>(I) + 1]; ++K)
        Acc += H.at(Col[static_cast<size_t>(K)], C);
      Out.at(I, C) = static_cast<float>(Acc);
    }
  return Out;
}

void refRowScale(const std::vector<double> &D, DenseMatrix &H) {
  for (int64_t I = 0; I < H.rows(); ++I)
    for (int64_t C = 0; C < H.cols(); ++C)
      H.at(I, C) = static_cast<float>(D[static_cast<size_t>(I)] * H.at(I, C));
}

void refRelu(DenseMatrix &H) {
  for (int64_t I = 0; I < H.rows(); ++I)
    for (int64_t C = 0; C < H.cols(); ++C)
      H.at(I, C) = std::max(0.0f, H.at(I, C));
}

std::vector<double> refInvSqrtDegree(const CsrMatrix &A) {
  std::vector<double> D(static_cast<size_t>(A.rows()));
  for (int64_t I = 0; I < A.rows(); ++I)
    D[static_cast<size_t>(I)] =
        A.rowNnz(I) > 0 ? 1.0 / std::sqrt(static_cast<double>(A.rowNnz(I)))
                        : 0.0;
  return D;
}

/// relu(D^-1/2 A D^-1/2 H W).
DenseMatrix refGcn(const CsrMatrix &A, const DenseMatrix &H,
                   const DenseMatrix &W) {
  std::vector<double> D = refInvSqrtDegree(A);
  DenseMatrix X = H;
  refRowScale(D, X);
  X = refAggregate(A, X);
  X = refGemm(X, W);
  refRowScale(D, X);
  refRelu(X);
  return X;
}

/// relu(H Wself + D^-1 A H Wneigh).
DenseMatrix refSage(const CsrMatrix &A, const DenseMatrix &H,
                    const DenseMatrix &Wself, const DenseMatrix &Wneigh) {
  std::vector<double> Dinv(static_cast<size_t>(A.rows()));
  for (int64_t I = 0; I < A.rows(); ++I)
    Dinv[static_cast<size_t>(I)] =
        A.rowNnz(I) > 0 ? 1.0 / static_cast<double>(A.rowNnz(I)) : 0.0;
  DenseMatrix Mean = refAggregate(A, H);
  refRowScale(Dinv, Mean);
  DenseMatrix Out = refGemm(H, Wself);
  DenseMatrix Neigh = refGemm(Mean, Wneigh);
  for (int64_t I = 0; I < Out.rows(); ++I)
    for (int64_t C = 0; C < Out.cols(); ++C)
      Out.at(I, C) += Neigh.at(I, C);
  refRelu(Out);
  return Out;
}

/// Theta = H W; e_ij = leakyrelu(asrc . Theta_i + adst . Theta_j);
/// alpha = row-softmax(e); relu(alpha Theta).
DenseMatrix refGat(const CsrMatrix &A, const DenseMatrix &H,
                   const DenseMatrix &W, const std::vector<float> &Asrc,
                   const std::vector<float> &Adst) {
  DenseMatrix Theta = refGemm(H, W);
  auto Dot = [&](const std::vector<float> &V, int64_t Row) {
    double Acc = 0.0;
    for (int64_t C = 0; C < Theta.cols(); ++C)
      Acc += static_cast<double>(V[static_cast<size_t>(C)]) * Theta.at(Row, C);
    return Acc;
  };
  const auto &Off = A.rowOffsets();
  const auto &Col = A.colIndices();
  std::vector<double> Alpha(static_cast<size_t>(A.nnz()));
  for (int64_t I = 0; I < A.rows(); ++I) {
    int64_t B = Off[static_cast<size_t>(I)], E = Off[static_cast<size_t>(I) + 1];
    if (B == E)
      continue;
    double RowMax = 0.0;
    for (int64_t K = B; K < E; ++K) {
      double S = Dot(Asrc, I) + Dot(Adst, Col[static_cast<size_t>(K)]);
      if (S < 0.0)
        S *= 0.2; // leaky ReLU, default slope
      Alpha[static_cast<size_t>(K)] = S;
      RowMax = K == B ? S : std::max(RowMax, S);
    }
    double Sum = 0.0;
    for (int64_t K = B; K < E; ++K) {
      Alpha[static_cast<size_t>(K)] =
          std::exp(Alpha[static_cast<size_t>(K)] - RowMax);
      Sum += Alpha[static_cast<size_t>(K)];
    }
    for (int64_t K = B; K < E; ++K)
      Alpha[static_cast<size_t>(K)] /= Sum;
  }
  DenseMatrix Out(A.rows(), Theta.cols());
  for (int64_t I = 0; I < A.rows(); ++I)
    for (int64_t C = 0; C < Theta.cols(); ++C) {
      double Acc = 0.0;
      for (int64_t K = Off[static_cast<size_t>(I)];
           K < Off[static_cast<size_t>(I) + 1]; ++K)
        Acc += Alpha[static_cast<size_t>(K)] *
               Theta.at(Col[static_cast<size_t>(K)], C);
      Out.at(I, C) = std::max(0.0f, static_cast<float>(Acc));
    }
  return Out;
}

DenseMatrix naiveReference(const GnnModel &M, const LayerParams &Params) {
  switch (M.Kind) {
  case ModelKind::GCN:
    return refGcn(Params.AdjSelf, Params.Features, Params.Weights.at("W"));
  case ModelKind::SAGE:
    return refSage(Params.AdjSelf, Params.Features,
                   Params.Weights.at("Wself"), Params.Weights.at("Wneigh"));
  case ModelKind::GAT:
    return refGat(Params.AdjSelf, Params.Features, Params.Weights.at("W"),
                  Params.AttnVecs.at("asrc"), Params.AttnVecs.at("adst"));
  default:
    ADD_FAILURE() << "no naive reference for model";
    return DenseMatrix();
  }
}

//===----------------------------------------------------------------------===//
// Random instance generation
//===----------------------------------------------------------------------===//

struct Instance {
  uint64_t Seed = 0;
  ModelKind Kind = ModelKind::GCN;
  Graph G;
  int64_t KIn = 0, KOut = 0;
  std::string Desc; ///< printed on failure for reproduction
};

Instance makeInstance(uint64_t Seed) {
  Rng R(Seed);
  Instance Inst;
  Inst.Seed = Seed;
  const ModelKind Kinds[] = {ModelKind::GCN, ModelKind::GAT, ModelKind::SAGE};
  Inst.Kind = Kinds[R.nextBelow(3)];
  int64_t N = 50 + static_cast<int64_t>(R.nextBelow(200));
  int64_t E = N * (2 + static_cast<int64_t>(R.nextBelow(6)));
  switch (R.nextBelow(3)) {
  case 0:
    // Skewed power-law: the case reordering exists for.
    Inst.G = makeRmat(N, E, 0.55, 0.2, 0.15, Seed * 11 + 1);
    break;
  case 1:
    Inst.G = makeErdosRenyi(N, E, Seed * 13 + 2);
    break;
  default:
    Inst.G = makeCommunityGraph(8, N / 8, 0.5, E / 4, Seed * 17 + 3);
    break;
  }
  // Cover both K_in >= K_out and K_in < K_out scenarios (the dispatch the
  // plan-viability conditions key on).
  Inst.KIn = 3 + static_cast<int64_t>(R.nextBelow(30));
  Inst.KOut = 3 + static_cast<int64_t>(R.nextBelow(30));
  Inst.Desc = "seed=" + std::to_string(Seed) + " model=" +
              modelName(Inst.Kind) + " graph=" + Inst.G.name() +
              " n=" + std::to_string(Inst.G.numNodes()) +
              " e=" + std::to_string(Inst.G.numEdges()) +
              " kin=" + std::to_string(Inst.KIn) +
              " kout=" + std::to_string(Inst.KOut);
  return Inst;
}

std::vector<CompositionPlan> survivingPlans(const GnnModel &M) {
  return pruneCompositions(enumerateCompositions(M.Root));
}

} // namespace

//===----------------------------------------------------------------------===//
// Main differential property: >= 20 random instances, every surviving plan,
// {by-value, caller-held workspace, reordered} x {1, 4 threads}, vs the
// naive reference.
//===----------------------------------------------------------------------===//

TEST(Differential, AllPathsAgreeOnRandomInstances) {
  constexpr uint64_t NumInstances = 24; // acceptance floor is 20
  for (uint64_t I = 0; I < NumInstances; ++I) {
    Instance Inst = makeInstance(1000 + I);
    SCOPED_TRACE(Inst.Desc);
    GnnModel M = makeModel(Inst.Kind);
    LayerParams Params =
        makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
    DenseMatrix Naive = naiveReference(M, Params);
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    // Alternate the policy so both orderings see every model/graph class.
    ReorderPolicy Policy = I % 2 == 0 ? ReorderPolicy::Rcm
                                      : ReorderPolicy::Degree;

    for (size_t PI = 0; PI < Plans.size(); ++PI) {
      SCOPED_TRACE("plan " + std::to_string(PI));
      const CompositionPlan &Plan = Plans[PI];
      DimBinding Binding = Params.inputs().binding(&Plan);

      // --- 1 thread ---------------------------------------------------
      // "Legacy" names the by-value run, which uses a fresh workspace.
      Executor E1(HardwareModel::byName("cpu"), /*NumThreads=*/1);
      DenseMatrix Legacy1 =
          E1.run(Plan, Params.inputs(), Params.Stats).Output;

      // Semantics: every surviving candidate computes the model.
      EXPECT_TRUE(Legacy1.approxEquals(Naive, 3e-3f, 3e-3f))
          << "diverges from naive reference by " << Legacy1.maxAbsDiff(Naive);

      // A caller-held workspace is bitwise identical to the by-value run's
      // fresh one, and its slot assignment keeps every two simultaneously
      // live values apart.
      PlanWorkspace Ws;
      Ws.configure(Plan, Binding, /*Training=*/false);
      DiagEngine Diags;
      verifyBufferPlan(Plan, Binding, *Ws.bufferPlan(), Diags);
      EXPECT_FALSE(Diags.hasErrors()) << Diags.render();
      ExecResult Arena1;
      E1.run(Plan, Params.inputs(), Params.Stats, Ws, Arena1);
      EXPECT_EQ(Arena1.Output.maxAbsDiff(Legacy1), 0.0f)
          << "arena output differs from legacy";

      // Reordered execution matches within 1e-5 relative after the inverse
      // permutation (summation order differs, bitwise cannot hold).
      PlanWorkspace WsR;
      WsR.configure(Plan, Binding, /*Training=*/false);
      ExecResult Reord1;
      E1.run(Plan, Params.inputs(), Params.Stats, WsR, Reord1, Policy);
      EXPECT_EQ(Reord1.Output.rows(), Legacy1.rows());
      EXPECT_TRUE(Reord1.Output.approxEquals(Legacy1, 1e-5f, 1e-5f))
          << reorderPolicyName(Policy) << " output differs by "
          << Reord1.Output.maxAbsDiff(Legacy1);

      // --- 4 threads --------------------------------------------------
      Executor E4(HardwareModel::byName("cpu"), /*NumThreads=*/4);
      DenseMatrix Legacy4 =
          E4.run(Plan, Params.inputs(), Params.Stats).Output;
      // Row-parallel kernels never split one row's reduction, so thread
      // count must not change a single bit.
      EXPECT_EQ(Legacy4.maxAbsDiff(Legacy1), 0.0f)
          << "thread count changed the output";

      ExecResult Arena4, Reord4;
      E4.run(Plan, Params.inputs(), Params.Stats, Ws, Arena4);
      EXPECT_EQ(Arena4.Output.maxAbsDiff(Legacy1), 0.0f);
      E4.run(Plan, Params.inputs(), Params.Stats, WsR, Reord4, Policy);
      EXPECT_EQ(Reord4.Output.maxAbsDiff(Reord1.Output), 0.0f)
          << "reordered path not thread-deterministic";

      // --- zero steady-state allocations ------------------------------
      // The warm-up runs above populated every buffer (including the
      // reorder staging); from here on, repeated runs allocate nothing.
      Ws.resetAllocationCount();
      WsR.resetAllocationCount();
      E4.run(Plan, Params.inputs(), Params.Stats, Ws, Arena4);
      E4.run(Plan, Params.inputs(), Params.Stats, WsR, Reord4, Policy);
      EXPECT_EQ(Ws.allocationCount(), 0u) << "arena steady state allocated";
      EXPECT_EQ(WsR.allocationCount(), 0u)
          << "reordered steady state allocated";
    }
  }
}

//===----------------------------------------------------------------------===//
// Cross-ISA differential: every SIMD level this build/host supports
//===----------------------------------------------------------------------===//

namespace {

/// Restores the entry ISA level even when an ASSERT unwinds the test body.
struct IsaLevelGuard {
  kernels::IsaLevel Entry = kernels::activeIsaLevel();
  ~IsaLevelGuard() { kernels::setIsaLevel(Entry); }
};

} // namespace

// For each supported level: 1 vs 4 threads stays bitwise identical (the
// dispatched routines never split one row's reduction), the level agrees
// with the scalar level within 1e-5 relative (vector FMA contraction and
// grouped horizontal sums are the only differences), and everything stays
// within the float-vs-double tolerance of the naive reference.
TEST(Differential, IsaLevelsAgreeAndStayThreadDeterministic) {
  IsaLevelGuard Guard;
  for (uint64_t I = 0; I < 6; ++I) {
    Instance Inst = makeInstance(4000 + I);
    SCOPED_TRACE(Inst.Desc);
    GnnModel M = makeModel(Inst.Kind);
    LayerParams Params =
        makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
    DenseMatrix Naive = naiveReference(M, Params);
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    const CompositionPlan &Plan = Plans[I % Plans.size()];

    std::optional<DenseMatrix> ScalarOut;
    for (kernels::IsaLevel Level : kernels::supportedIsaLevels()) {
      SCOPED_TRACE(kernels::isaLevelName(Level));
      ASSERT_TRUE(kernels::setIsaLevel(Level));

      Executor E1(HardwareModel::byName("cpu"), /*NumThreads=*/1);
      DenseMatrix Out1 = E1.run(Plan, Params.inputs(), Params.Stats).Output;
      Executor E4(HardwareModel::byName("cpu"), /*NumThreads=*/4);
      DenseMatrix Out4 = E4.run(Plan, Params.inputs(), Params.Stats).Output;
      EXPECT_EQ(Out4.maxAbsDiff(Out1), 0.0f)
          << "thread count changed the output at this ISA level";

      EXPECT_TRUE(Out1.approxEquals(Naive, 3e-3f, 3e-3f))
          << "diverges from naive reference by " << Out1.maxAbsDiff(Naive);
      if (!ScalarOut) {
        // supportedIsaLevels() always starts with Scalar.
        ASSERT_EQ(Level, kernels::IsaLevel::Scalar);
        ScalarOut = std::move(Out1);
      } else {
        EXPECT_TRUE(Out1.approxEquals(*ScalarOut, 1e-5f, 1e-5f))
            << "diverges from the scalar level by "
            << Out1.maxAbsDiff(*ScalarOut);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Training differential: gradients under reordering
//===----------------------------------------------------------------------===//

TEST(Differential, ReorderedTrainingMatchesUnreordered) {
  for (uint64_t I = 0; I < 6; ++I) {
    Instance Inst = makeInstance(9000 + I);
    SCOPED_TRACE(Inst.Desc);
    GnnModel M = makeModel(Inst.Kind);
    LayerParams Params =
        makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    const CompositionPlan &Plan = Plans[I % Plans.size()];
    DimBinding Binding = Params.inputs().binding(&Plan);
    Executor Exec(HardwareModel::byName("cpu"), /*NumThreads=*/2);

    PlanWorkspace Ws, WsR;
    Ws.configure(Plan, Binding, /*Training=*/true);
    WsR.configure(Plan, Binding, /*Training=*/true);
    ExecResult Base, Reord;
    Exec.runTraining(Plan, Params.inputs(), Params.Stats, Ws, Base);
    Exec.runTraining(Plan, Params.inputs(), Params.Stats, WsR, Reord,
                     ReorderPolicy::Rcm);

    EXPECT_TRUE(Reord.Output.approxEquals(Base.Output, 1e-5f, 1e-5f));
    // Weight and attention gradients are sums over rows/edges: invariant
    // under relabeling up to summation order.
    for (const auto &[Name, DW] : Base.WeightGrads) {
      ASSERT_TRUE(Reord.WeightGrads.count(Name));
      EXPECT_TRUE(Reord.WeightGrads.at(Name).approxEquals(DW, 1e-4f, 1e-4f))
          << "grad " << Name << " differs by "
          << Reord.WeightGrads.at(Name).maxAbsDiff(DW);
    }
    // The feature gradient is row-indexed and must come back in the
    // caller's vertex order.
    if (!Base.FeatureGrad.empty()) {
      ASSERT_EQ(Reord.FeatureGrad.rows(), Base.FeatureGrad.rows());
      EXPECT_TRUE(
          Reord.FeatureGrad.approxEquals(Base.FeatureGrad, 1e-4f, 1e-4f))
          << "feature grad differs by "
          << Reord.FeatureGrad.maxAbsDiff(Base.FeatureGrad);
    }
  }
}

//===----------------------------------------------------------------------===//
// The identity policy is exactly the arena path
//===----------------------------------------------------------------------===//

TEST(Differential, NonePolicyIsBitwiseBaseline) {
  Instance Inst = makeInstance(777);
  GnnModel M = makeModel(Inst.Kind);
  LayerParams Params =
      makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
  std::vector<CompositionPlan> Plans = survivingPlans(M);
  ASSERT_FALSE(Plans.empty());
  DimBinding Binding = Params.inputs().binding(&Plans[0]);
  Executor Exec(HardwareModel::byName("cpu"), /*NumThreads=*/2);
  PlanWorkspace A, B;
  A.configure(Plans[0], Binding, false);
  B.configure(Plans[0], Binding, false);
  ExecResult Ra, Rb;
  Exec.run(Plans[0], Params.inputs(), Params.Stats, A, Ra);
  Exec.run(Plans[0], Params.inputs(), Params.Stats, B, Rb,
           ReorderPolicy::None);
  EXPECT_EQ(Rb.Output.maxAbsDiff(Ra.Output), 0.0f);
}

//===----------------------------------------------------------------------===//
// End-to-end through the public Optimizer API with reordering enabled
//===----------------------------------------------------------------------===//

TEST(Differential, OptimizerReorderOptionMatchesBaseline) {
  Graph G = makeRmat(220, 1400, 0.55, 0.2, 0.15, 42);
  for (ModelKind Kind : {ModelKind::GCN, ModelKind::SAGE, ModelKind::GAT}) {
    SCOPED_TRACE(modelName(Kind));
    GnnModel M = makeModel(Kind);
    OptimizerOptions Base;
    Base.Hw = HardwareModel::byName("cpu");
    // The differential harness runs the strictest verification: every
    // enumerated candidate is checked pre-prune and each execution
    // cross-checks its buffer schedule and row partition.
    Base.Verify = VerifyLevel::Full;
    AnalyticCostModel Cost(Base.Hw);
    OptimizerOptions WithReorder = Base;
    WithReorder.Reorder = ReorderPolicy::Rcm;
    Optimizer Plain(M, Base, &Cost);
    Optimizer Reordered(M, WithReorder, &Cost);

    LayerParams Params = makeLayerParams(M, G, 16, 24, 5);
    Selection SelP = Plain.select(G, 16, 24);
    Selection SelR = Reordered.select(G, 16, 24);
    EXPECT_EQ(SelP.PlanIndex, SelR.PlanIndex); // same candidates, same stats
    DenseMatrix OutP = Plain.execute(SelP, Params, false).Output;
    DenseMatrix OutR = Reordered.execute(SelR, Params, false).Output;
    EXPECT_TRUE(OutR.approxEquals(OutP, 1e-5f, 1e-5f))
        << "differs by " << OutR.maxAbsDiff(OutP);
  }
}

//===----------------------------------------------------------------------===//
// Sharded execution: bitwise identical to the whole-graph CSR path
//===----------------------------------------------------------------------===//
//
// The sharding contract (docs/SHARDING.md) is stronger than the reorder
// one: partitioning must not change a single bit of the output or the
// gradients, at any shard count and any thread count, because every owned
// row's neighbor reduction replays the whole-graph kernel's operation
// order exactly. These sweeps drive the full Executor path (setup, halo
// staging, forward, backward) rather than the shard kernels in isolation.

namespace {

bool bitwiseEqualDense(const DenseMatrix &A, const DenseMatrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.size()) * sizeof(float)) == 0;
}

} // namespace

TEST(Differential, ShardedForwardIsBitwiseWholeGraph) {
  for (uint64_t I = 0; I < 6; ++I) {
    Instance Inst = makeInstance(8000 + I);
    SCOPED_TRACE(Inst.Desc);
    GnnModel M = makeModel(Inst.Kind);
    LayerParams Params =
        makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    const CompositionPlan &Plan = Plans[I % Plans.size()];
    DimBinding Binding = Params.inputs().binding(&Plan);

    Executor E1(HardwareModel::byName("cpu"), /*NumThreads=*/1);
    PlanWorkspace WsBase;
    WsBase.configure(Plan, Binding, /*Training=*/false);
    ExecResult Base;
    E1.run(Plan, Params.inputs(), Params.Stats, WsBase, Base);

    for (int Shards : {2, 4}) {
      for (int Threads : {1, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(Shards) +
                     " threads=" + std::to_string(Threads));
        Executor E(HardwareModel::byName("cpu"), Threads);
        PlanWorkspace Ws;
        Ws.configure(Plan, Binding, /*Training=*/false);
        ExecResult R;
        E.run(Plan, Params.inputs(), Params.Stats, Ws, R,
              ReorderPolicy::None, SparseFormat::Csr,
              ShardSpec{Shards, ""});
        EXPECT_TRUE(bitwiseEqualDense(R.Output, Base.Output))
            << "sharded forward differs from whole-graph by "
            << R.Output.maxAbsDiff(Base.Output);
      }
    }
  }
}

TEST(Differential, ShardedTrainingGradientsAreBitwise) {
  for (uint64_t I = 0; I < 4; ++I) {
    Instance Inst = makeInstance(8100 + I);
    SCOPED_TRACE(Inst.Desc);
    GnnModel M = makeModel(Inst.Kind);
    LayerParams Params =
        makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    const CompositionPlan &Plan = Plans[I % Plans.size()];
    DimBinding Binding = Params.inputs().binding(&Plan);

    Executor E1(HardwareModel::byName("cpu"), /*NumThreads=*/1);
    PlanWorkspace WsBase;
    WsBase.configure(Plan, Binding, /*Training=*/true);
    ExecResult Base;
    E1.runTraining(Plan, Params.inputs(), Params.Stats, WsBase, Base);

    for (int Shards : {2, 4}) {
      for (int Threads : {1, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(Shards) +
                     " threads=" + std::to_string(Threads));
        Executor E(HardwareModel::byName("cpu"), Threads);
        PlanWorkspace Ws;
        Ws.configure(Plan, Binding, /*Training=*/true);
        ExecResult R;
        E.runTraining(Plan, Params.inputs(), Params.Stats, Ws, R,
                      ReorderPolicy::None, SparseFormat::Csr,
                      ShardSpec{Shards, ""});
        EXPECT_TRUE(bitwiseEqualDense(R.Output, Base.Output))
            << "sharded training output differs from whole-graph";
        for (const auto &[Name, DW] : Base.WeightGrads) {
          ASSERT_TRUE(R.WeightGrads.count(Name));
          EXPECT_TRUE(bitwiseEqualDense(R.WeightGrads.at(Name), DW))
              << "grad " << Name << " differs by "
              << R.WeightGrads.at(Name).maxAbsDiff(DW);
        }
        if (!Base.FeatureGrad.empty()) {
          EXPECT_TRUE(bitwiseEqualDense(R.FeatureGrad, Base.FeatureGrad))
              << "feature grad differs by "
              << R.FeatureGrad.maxAbsDiff(Base.FeatureGrad);
        }
      }
    }
  }
}

// Warm-workspace contract under sharding: the second run of a sharded
// workspace performs zero allocations (halo staging reaches its
// high-water marks on run one) and stays bitwise stable.
TEST(Differential, ShardedSteadyStateAllocatesNothing) {
  Instance Inst = makeInstance(8200);
  GnnModel M = makeModel(Inst.Kind);
  LayerParams Params =
      makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
  std::vector<CompositionPlan> Plans = survivingPlans(M);
  ASSERT_FALSE(Plans.empty());
  DimBinding Binding = Params.inputs().binding(&Plans[0]);
  Executor Exec(HardwareModel::byName("cpu"), /*NumThreads=*/2);
  PlanWorkspace Ws;
  Ws.configure(Plans[0], Binding, /*Training=*/true);
  ExecResult First, Second;
  ShardSpec Sharding{3, ""};
  Exec.runTraining(Plans[0], Params.inputs(), Params.Stats, Ws, First,
                   ReorderPolicy::None, SparseFormat::Csr, Sharding);
  Ws.resetAllocationCount();
  Exec.runTraining(Plans[0], Params.inputs(), Params.Stats, Ws, Second,
                   ReorderPolicy::None, SparseFormat::Csr, Sharding);
  EXPECT_EQ(Ws.allocationCount(), 0u)
      << "sharded steady state still allocates";
  EXPECT_TRUE(bitwiseEqualDense(First.Output, Second.Output));
}

//===----------------------------------------------------------------------===//
// In-place output: one reused result across warm arena runs
//===----------------------------------------------------------------------===//
//
// The plan's final step writes the caller's ExecResult::Output directly.
// A result reused across arena runs therefore keeps its output buffer, and
// under every layout its bytes equal a by-value run's: the plain CSR run
// for shards (their bitwise contract), and for a reorder policy the
// by-value run on the relabeled graph, scattered back the way the arena
// does it.

namespace {

struct Layout {
  const char *Name;
  ReorderPolicy Policy;
  int Shards;
};

ExecResult byValueReference(const Executor &Exec, const CompositionPlan &Plan,
                            const LayerParams &Params, ReorderPolicy Policy,
                            bool Training) {
  if (Policy == ReorderPolicy::None)
    return Training ? Exec.runTraining(Plan, Params.inputs(), Params.Stats)
                    : Exec.run(Plan, Params.inputs(), Params.Stats);
  Permutation Perm = makeReorderPermutation(Policy, Params.AdjSelf);
  CsrMatrix Adj = permuteSymmetric(Params.AdjSelf, Perm);
  DenseMatrix H(Params.Features.rows(), Params.Features.cols());
  permuteRowsInto(Params.Features, Perm, H);
  LayerInputs In = Params.inputs();
  In.Adjacency = &Adj;
  In.Features = &H;
  GraphStats Stats = computeGraphStats(Adj);
  ExecResult R = Training ? Exec.runTraining(Plan, In, Stats)
                          : Exec.run(Plan, In, Stats);
  DenseMatrix Out(R.Output.rows(), R.Output.cols());
  inversePermuteRowsInto(R.Output, Perm, Out);
  R.Output = std::move(Out);
  return R;
}

} // namespace

TEST(Differential, ReusedResultKeepsItsOutputBufferAndBytes) {
  const Layout Layouts[] = {
      {"csr", ReorderPolicy::None, 0},
      {"rcm", ReorderPolicy::Rcm, 0},
      {"2 shards", ReorderPolicy::None, 2},
  };
  for (uint64_t I = 0; I < 3; ++I) {
    Instance Inst = makeInstance(8300 + I);
    SCOPED_TRACE(Inst.Desc);
    GnnModel M = makeModel(Inst.Kind);
    LayerParams Params =
        makeLayerParams(M, Inst.G, Inst.KIn, Inst.KOut, Inst.Seed);
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    const CompositionPlan &Plan = Plans[I % Plans.size()];
    Executor Exec(HardwareModel::byName("cpu"), /*NumThreads=*/2);
    for (bool Training : {false, true}) {
      for (const Layout &L : Layouts) {
        SCOPED_TRACE(std::string(L.Name) +
                     (Training ? " training" : " inference"));
        ExecResult Want =
            byValueReference(Exec, Plan, Params, L.Policy, Training);
        PlanWorkspace Ws;
        ExecResult R;
        const float *Buffer = nullptr;
        for (int Run = 0; Run < 3; ++Run) {
          SCOPED_TRACE("run " + std::to_string(Run));
          Ws.resetAllocationCount();
          ShardSpec Sharding{L.Shards, ""};
          if (Training)
            Exec.runTraining(Plan, Params.inputs(), Params.Stats, Ws, R,
                             L.Policy, SparseFormat::Csr, Sharding);
          else
            Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R, L.Policy,
                     SparseFormat::Csr, Sharding);
          EXPECT_TRUE(bitwiseEqualDense(R.Output, Want.Output))
              << "differs from the by-value run by "
              << R.Output.maxAbsDiff(Want.Output);
          if (Run == 0) {
            Buffer = R.Output.data();
            continue;
          }
          EXPECT_EQ(R.Output.data(), Buffer) << "warm run moved the output";
          EXPECT_EQ(Ws.allocationCount(), 0u);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// A workspace rebound to a second graph of the same size
//===----------------------------------------------------------------------===//
//
// Every cached layout part (permutation, shard blocks, backward transpose)
// derives from the caller's adjacency. A workspace that
// ran graph A and then runs graph B, with the same node and edge counts,
// must answer exactly what a fresh workspace answers on B: the output and
// every gradient, bit for bit.

namespace {

void expectBitwiseSameResult(const ExecResult &Got, const ExecResult &Want) {
  EXPECT_TRUE(bitwiseEqualDense(Got.Output, Want.Output))
      << "output differs by " << Got.Output.maxAbsDiff(Want.Output);
  ASSERT_EQ(Got.WeightGrads.size(), Want.WeightGrads.size());
  for (const auto &[Name, DW] : Want.WeightGrads) {
    ASSERT_TRUE(Got.WeightGrads.count(Name));
    EXPECT_TRUE(bitwiseEqualDense(Got.WeightGrads.at(Name), DW))
        << "grad " << Name << " differs by "
        << Got.WeightGrads.at(Name).maxAbsDiff(DW);
  }
  if (!Want.FeatureGrad.empty()) {
    EXPECT_TRUE(bitwiseEqualDense(Got.FeatureGrad, Want.FeatureGrad))
        << "feature grad differs by "
        << Got.FeatureGrad.maxAbsDiff(Want.FeatureGrad);
  }
  ASSERT_EQ(Got.AttnGrads.size(), Want.AttnGrads.size());
  for (const auto &[Name, DA] : Want.AttnGrads) {
    ASSERT_TRUE(Got.AttnGrads.count(Name));
    const std::vector<float> &G = Got.AttnGrads.at(Name);
    ASSERT_EQ(G.size(), DA.size());
    EXPECT_TRUE(DA.empty() ||
                std::memcmp(G.data(), DA.data(), DA.size() * sizeof(float)) ==
                    0)
        << "attention grad " << Name << " differs";
  }
}

} // namespace

TEST(Differential, ReboundWorkspaceMatchesAFreshOne) {
  const Graph GA = makeRmat(220, 1400, 0.55, 0.2, 0.15, 42);
  const Graph GB = makeRmat(220, 1400, 0.55, 0.2, 0.15, 43);
  const Layout Layouts[] = {
      {"csr", ReorderPolicy::None, 0},
      {"rcm", ReorderPolicy::Rcm, 0},
      {"rcm+2 shards", ReorderPolicy::Rcm, 2},
  };
  Executor Exec(HardwareModel::byName("cpu"), /*NumThreads=*/2);
  for (ModelKind Kind : {ModelKind::GCN, ModelKind::GAT, ModelKind::SAGE}) {
    SCOPED_TRACE(modelName(Kind));
    GnnModel M = makeModel(Kind);
    LayerParams A = makeLayerParams(M, GA, 16, 24, 5);
    LayerParams B = makeLayerParams(M, GB, 16, 24, 6);
    // Same sizes, so only the adjacency itself tells the graphs apart.
    ASSERT_EQ(A.AdjSelf.rows(), B.AdjSelf.rows());
    ASSERT_EQ(A.AdjSelf.nnz(), B.AdjSelf.nnz());
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    for (size_t PI = 0; PI < Plans.size(); ++PI) {
      SCOPED_TRACE("plan " + std::to_string(PI));
      for (bool Training : {false, true}) {
        for (const Layout &L : Layouts) {
          SCOPED_TRACE(std::string(L.Name) +
                       (Training ? " training" : " inference"));
          const ShardSpec Sharding{L.Shards, ""};
          auto Run = [&](const LayerParams &P, PlanWorkspace &Ws,
                         ExecResult &R) {
            if (Training)
              Exec.runTraining(Plans[PI], P.inputs(), P.Stats, Ws, R,
                               L.Policy, SparseFormat::Csr, Sharding);
            else
              Exec.run(Plans[PI], P.inputs(), P.Stats, Ws, R, L.Policy,
                       SparseFormat::Csr, Sharding);
          };
          PlanWorkspace Rebound, Fresh;
          ExecResult Got, Want;
          Run(A, Rebound, Got);
          Run(B, Rebound, Got);
          Run(B, Fresh, Want);
          expectBitwiseSameResult(Got, Want);
        }
      }
    }

    // The same through the public API, whose workspaces persist per
    // (plan, mode) for the optimizer's lifetime.
    OptimizerOptions Opts;
    Opts.Hw = HardwareModel::byName("cpu");
    Opts.Reorder = ReorderPolicy::Rcm;
    AnalyticCostModel Cost(Opts.Hw);
    Optimizer Rebound(M, Opts, &Cost);
    Optimizer Fresh(M, Opts, &Cost);
    Selection Sel = Rebound.select(GA, 16, 24);
    for (bool Training : {false, true}) {
      SCOPED_TRACE(std::string("optimizer ") +
                   (Training ? "training" : "inference"));
      Rebound.execute(Sel, A, Training);
      expectBitwiseSameResult(Rebound.execute(Sel, B, Training),
                              Fresh.execute(Sel, B, Training));
    }
  }
}

//===----------------------------------------------------------------------===//
// An adjacency edited in place at the same address and size
//===----------------------------------------------------------------------===//
//
// The layout cache keys on the adjacency's address and content version, so
// an edit through mutableValues() or assignPattern() rebuilds every derived
// part (the permuted copy and its values, the shard blocks, the backward
// CSC): the next run on the same workspace answers exactly what a fresh
// workspace answers on the edited graph.

TEST(Differential, InPlaceAdjacencyEditRebuildsTheLayout) {
  const Graph G = makeRmat(220, 1400, 0.55, 0.2, 0.15, 42);
  const Graph Other = makeRmat(220, 1400, 0.55, 0.2, 0.15, 43);
  const Layout Layouts[] = {
      {"csr", ReorderPolicy::None, 0},
      {"rcm", ReorderPolicy::Rcm, 0},
      {"2 shards", ReorderPolicy::None, 2},
      {"rcm+2 shards", ReorderPolicy::Rcm, 2},
  };
  Executor Exec(HardwareModel::byName("cpu"), /*NumThreads=*/2);
  for (ModelKind Kind : {ModelKind::GCN, ModelKind::GAT, ModelKind::SAGE}) {
    SCOPED_TRACE(modelName(Kind));
    GnnModel M = makeModel(Kind);
    const LayerParams Base = makeLayerParams(M, G, 16, 8, 5);
    const CsrMatrix OtherAdj = addSelfLoops(Other.adjacency());
    ASSERT_EQ(OtherAdj.rows(), Base.AdjSelf.rows());
    ASSERT_EQ(OtherAdj.nnz(), Base.AdjSelf.nnz());
    std::vector<CompositionPlan> Plans = survivingPlans(M);
    ASSERT_FALSE(Plans.empty());
    for (size_t PI = 0; PI < Plans.size(); ++PI) {
      SCOPED_TRACE("plan " + std::to_string(PI));
      for (bool Training : {false, true}) {
        for (const Layout &L : Layouts) {
          SCOPED_TRACE(std::string(L.Name) +
                       (Training ? " training" : " inference"));
          const ShardSpec Sharding{L.Shards, ""};
          auto Run = [&](const LayerParams &P, PlanWorkspace &Ws,
                         ExecResult &R) {
            if (Training)
              Exec.runTraining(Plans[PI], P.inputs(), P.Stats, Ws, R,
                               L.Policy, SparseFormat::Csr, Sharding);
            else
              Exec.run(Plans[PI], P.inputs(), P.Stats, Ws, R, L.Policy,
                       SparseFormat::Csr, Sharding);
          };
          // A weighted adjacency, so the aggregations read its values.
          LayerParams P = Base;
          std::vector<float> Weights(static_cast<size_t>(P.AdjSelf.nnz()));
          Rng Gen(7);
          for (float &W : Weights)
            W = Gen.nextFloat(0.5f, 1.5f);
          P.AdjSelf.setValues(std::move(Weights));

          PlanWorkspace Edited;
          ExecResult Got;
          Run(P, Edited, Got);
          for (float &W : P.AdjSelf.mutableValues())
            W *= 2.0f;
          {
            SCOPED_TRACE("weights doubled through mutableValues()");
            PlanWorkspace Fresh;
            ExecResult Want;
            Run(P, Edited, Got);
            Run(P, Fresh, Want);
            expectBitwiseSameResult(Got, Want);
          }
          // Same rows and nnz, another graph's pattern; a same-size
          // assignPattern keeps the value array as it was.
          P.AdjSelf.assignPattern(OtherAdj.rows(), OtherAdj.cols(),
                                  OtherAdj.rowOffsets(),
                                  OtherAdj.colIndices());
          {
            SCOPED_TRACE("pattern replaced through assignPattern()");
            PlanWorkspace Fresh;
            ExecResult Want;
            Run(P, Edited, Got);
            Run(P, Fresh, Want);
            expectBitwiseSameResult(Got, Want);
          }
        }
      }
    }
  }
}
