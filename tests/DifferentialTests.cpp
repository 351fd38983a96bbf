//===- DifferentialTests.cpp - Randomized differential-testing harness ------===//
//
// Seeded property-based testing of the whole execution stack: random graphs
// and embedding sizes drive every surviving plan candidate of GCN / GAT /
// SAGE through fresh and warm workspaces at 1 and 4 threads, comparing
// everything against a from-scratch double-precision reference
// implementation written with plain loops (no kernel-library code on the
// reference side).
//
// Comparison contract (see Executor.h):
//  - a by-value run (fresh workspace) vs a caller-held workspace, warm,
//    rebound to another graph or run after an in-place edit of it, and
//    1 thread vs 4 threads: bitwise identical (row-parallelism never splits
//    one row's accumulation),
//  - naive reference: small tolerance (float kernels vs double loops).
//
// Every instance is deterministic in its seed; failures print the seed so a
// reproduction is one test-filter run away.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "graph/Generators.h"
#include "granii/Granii.h"
#include "kernels/Dispatch.h"
#include "models/Models.h"
#include "runtime/Executor.h"
#include "support/Diag.h"
#include "support/Rng.h"
#include "verify/VerifyBuffers.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
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
    // Skewed power-law: irregular rows and hub-heavy gathers.
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
// {by-value, caller-held workspace} x {1, 4 threads}, vs the naive
// reference.
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

      // --- 4 threads --------------------------------------------------
      Executor E4(HardwareModel::byName("cpu"), /*NumThreads=*/4);
      DenseMatrix Legacy4 =
          E4.run(Plan, Params.inputs(), Params.Stats).Output;
      // Row-parallel kernels never split one row's reduction, so thread
      // count must not change a single bit.
      EXPECT_EQ(Legacy4.maxAbsDiff(Legacy1), 0.0f)
          << "thread count changed the output";

      ExecResult Arena4;
      E4.run(Plan, Params.inputs(), Params.Stats, Ws, Arena4);
      EXPECT_EQ(Arena4.Output.maxAbsDiff(Legacy1), 0.0f);

      // --- zero steady-state allocations ------------------------------
      // The warm-up runs above populated every buffer; from here on,
      // repeated runs allocate nothing.
      Ws.resetAllocationCount();
      E4.run(Plan, Params.inputs(), Params.Stats, Ws, Arena4);
      EXPECT_EQ(Ws.allocationCount(), 0u) << "arena steady state allocated";
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

/// Everything a training run returns, for bitwise and tolerance checks.
struct TrainingOutcome {
  DenseMatrix Output;
  std::map<std::string, DenseMatrix> WeightGrads;
  std::map<std::string, std::vector<float>> AttnGrads;
  DenseMatrix FeatureGrad;
};

TrainingOutcome trainOnce(const Executor &Exec, const CompositionPlan &Plan,
                          const LayerParams &Params) {
  ExecResult R = Exec.runTraining(Plan, Params.inputs(), Params.Stats);
  return {std::move(R.Output), std::move(R.WeightGrads),
          std::move(R.AttnGrads), std::move(R.FeatureGrad)};
}

/// Compares two training outcomes: bitwise when \p Tol is 0, else within
/// \p Tol absolute plus relative.
void expectSameTraining(const TrainingOutcome &Got,
                        const TrainingOutcome &Want, float Tol,
                        const std::string &What) {
  auto Close = [&](const DenseMatrix &A, const DenseMatrix &B) {
    return Tol == 0.0f ? A.rows() == B.rows() && A.cols() == B.cols() &&
                             A.maxAbsDiff(B) == 0.0f
                       : A.approxEquals(B, Tol, Tol);
  };
  EXPECT_TRUE(Close(Got.Output, Want.Output)) << What << ": output";
  EXPECT_TRUE(Close(Got.FeatureGrad, Want.FeatureGrad))
      << What << ": feature gradient";
  ASSERT_EQ(Got.WeightGrads.size(), Want.WeightGrads.size()) << What;
  for (const auto &[Name, G] : Want.WeightGrads)
    EXPECT_TRUE(Close(Got.WeightGrads.at(Name), G))
        << What << ": weight gradient " << Name;
  ASSERT_EQ(Got.AttnGrads.size(), Want.AttnGrads.size()) << What;
  for (const auto &[Name, G] : Want.AttnGrads) {
    const std::vector<float> &A = Got.AttnGrads.at(Name);
    ASSERT_EQ(A.size(), G.size()) << What << ": attention gradient " << Name;
    for (size_t I = 0; I < G.size(); ++I) {
      const float Bound = Tol * (1.0f + std::fabs(G[I]));
      if (Tol == 0.0f)
        EXPECT_EQ(std::bit_cast<uint32_t>(A[I]), std::bit_cast<uint32_t>(G[I]))
            << What << ": attention gradient " << Name << "[" << I << "]";
      else
        EXPECT_LE(std::fabs(A[I] - G[I]), Bound)
            << What << ": attention gradient " << Name << "[" << I << "]";
    }
  }
}

} // namespace

// For each supported level: 1 vs 4 threads stays bitwise identical (the
// dispatched routines never split one row's reduction), the level agrees
// with the scalar level within 1e-5 relative (vector FMA contraction and
// grouped horizontal sums are the only differences), and everything stays
// within the float-vs-double tolerance of the naive reference. Training
// runs are held to the same contract: output and every weight, attention
// and feature gradient.
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
    std::optional<TrainingOutcome> ScalarTraining;
    for (kernels::IsaLevel Level : kernels::supportedIsaLevels()) {
      SCOPED_TRACE(kernels::isaLevelName(Level));
      ASSERT_TRUE(kernels::setIsaLevel(Level));

      Executor E1(HardwareModel::byName("cpu"), /*NumThreads=*/1);
      DenseMatrix Out1 = E1.run(Plan, Params.inputs(), Params.Stats).Output;
      TrainingOutcome Train1 = trainOnce(E1, Plan, Params);
      Executor E4(HardwareModel::byName("cpu"), /*NumThreads=*/4);
      DenseMatrix Out4 = E4.run(Plan, Params.inputs(), Params.Stats).Output;
      TrainingOutcome Train4 = trainOnce(E4, Plan, Params);
      EXPECT_EQ(Out4.maxAbsDiff(Out1), 0.0f)
          << "thread count changed the output at this ISA level";
      expectSameTraining(Train4, Train1, 0.0f,
                         "thread count changed training at this ISA level");

      EXPECT_TRUE(Out1.approxEquals(Naive, 3e-3f, 3e-3f))
          << "diverges from naive reference by " << Out1.maxAbsDiff(Naive);
      if (!ScalarOut) {
        // supportedIsaLevels() always starts with Scalar.
        ASSERT_EQ(Level, kernels::IsaLevel::Scalar);
        ScalarOut = std::move(Out1);
        ScalarTraining = std::move(Train1);
      } else {
        EXPECT_TRUE(Out1.approxEquals(*ScalarOut, 1e-5f, 1e-5f))
            << "diverges from the scalar level by "
            << Out1.maxAbsDiff(*ScalarOut);
        expectSameTraining(Train1, *ScalarTraining, 1e-5f,
                           "training diverges from the scalar level");
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The ignored trailing policy argument leaves the arena path as it is
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
// In-place output: one reused result across warm arena runs
//===----------------------------------------------------------------------===//
//
// The plan's final step writes the caller's ExecResult::Output directly,
// and the backward pass accumulates the feature gradient in place. A result
// reused across arena runs therefore keeps its output and FeatureGrad
// buffers, and their bytes equal a by-value run's.

namespace {

bool bitwiseEqualDense(const DenseMatrix &A, const DenseMatrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.size()) * sizeof(float)) == 0;
}

} // namespace

TEST(Differential, ReusedResultKeepsItsOutputBufferAndBytes) {
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
      SCOPED_TRACE(Training ? "training" : "inference");
      ExecResult Want =
          Training ? Exec.runTraining(Plan, Params.inputs(), Params.Stats)
                   : Exec.run(Plan, Params.inputs(), Params.Stats);
      PlanWorkspace Ws;
      ExecResult R;
      const float *Buffer = nullptr;
      const float *GradBuffer = nullptr;
      for (int Run = 0; Run < 3; ++Run) {
        SCOPED_TRACE("run " + std::to_string(Run));
        Ws.resetAllocationCount();
        if (Training)
          Exec.runTraining(Plan, Params.inputs(), Params.Stats, Ws, R);
        else
          Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
        EXPECT_TRUE(bitwiseEqualDense(R.Output, Want.Output))
            << "differs from the by-value run by "
            << R.Output.maxAbsDiff(Want.Output);
        if (Training) {
          ASSERT_GT(Want.FeatureGrad.rows(), 0);
          EXPECT_TRUE(bitwiseEqualDense(R.FeatureGrad, Want.FeatureGrad))
              << "feature grad differs from the by-value run by "
              << R.FeatureGrad.maxAbsDiff(Want.FeatureGrad);
        }
        if (Run == 0) {
          Buffer = R.Output.data();
          GradBuffer = R.FeatureGrad.data();
          continue;
        }
        EXPECT_EQ(R.Output.data(), Buffer) << "warm run moved the output";
        EXPECT_EQ(R.FeatureGrad.data(), GradBuffer)
            << "warm run moved the feature gradient";
        EXPECT_EQ(Ws.allocationCount(), 0u);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// A workspace rebound to a second graph of the same size
//===----------------------------------------------------------------------===//
//
// The cached layout state (the backward transpose) derives from the
// caller's adjacency. A workspace that ran graph A and then runs graph
// B, with the same node and edge counts, must answer exactly what a fresh
// workspace answers on B: the output and every gradient, bit for bit.

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
        SCOPED_TRACE(Training ? "training" : "inference");
        auto Run = [&](const LayerParams &P, PlanWorkspace &Ws,
                       ExecResult &R) {
          if (Training)
            Exec.runTraining(Plans[PI], P.inputs(), P.Stats, Ws, R);
          else
            Exec.run(Plans[PI], P.inputs(), P.Stats, Ws, R);
        };
        PlanWorkspace Rebound, Fresh;
        ExecResult Got, Want;
        Run(A, Rebound, Got);
        Run(B, Rebound, Got);
        Run(B, Fresh, Want);
        expectBitwiseSameResult(Got, Want);
      }
    }

    // The same through the public API, whose workspaces persist per
    // (plan, mode) for the optimizer's lifetime.
    OptimizerOptions Opts;
    Opts.Hw = HardwareModel::byName("cpu");
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
// an edit through mutableValues() or assignPattern() drops the backward CSC:
// the next run on the same workspace answers exactly what a fresh workspace
// answers on the edited graph.

TEST(Differential, InPlaceAdjacencyEditRebuildsTheLayout) {
  const Graph G = makeRmat(220, 1400, 0.55, 0.2, 0.15, 42);
  const Graph Other = makeRmat(220, 1400, 0.55, 0.2, 0.15, 43);
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
        SCOPED_TRACE(Training ? "training" : "inference");
        auto Run = [&](const LayerParams &P, PlanWorkspace &Ws,
                       ExecResult &R) {
          if (Training)
            Exec.runTraining(Plans[PI], P.inputs(), P.Stats, Ws, R);
          else
            Exec.run(Plans[PI], P.inputs(), P.Stats, Ws, R);
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
                                OtherAdj.rowOffsets(), OtherAdj.colIndices());
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
