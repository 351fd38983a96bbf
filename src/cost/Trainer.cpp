//===- Trainer.cpp - Cost-model profiling and training -----------------------===//

#include "cost/Trainer.h"

#include "kernels/Kernels.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <system_error>

using namespace granii;

std::string granii::costModelCacheDir() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup
  const char *Env = std::getenv("GRANII_CACHE_DIR");
  std::string Dir = Env && *Env ? Env : "./.granii-cache";
  while (Dir.size() > 1 && Dir.back() == '/')
    Dir.pop_back();
  // Failure to create the directory is not fatal here: the subsequent cache
  // write fails silently and the model is simply retrained next run.
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  return Dir;
}

std::vector<int64_t> granii::defaultProfileWidths() {
  // The paper profiles embedding sizes from 32 to 2048; this range covers
  // the reproduction's evaluation grid (up to 512) so the tree ensembles
  // never have to extrapolate beyond their training support.
  return {8, 32, 128, 512};
}

namespace {

/// Times a kernel on \p Hw (wall clock if measured, analytic if simulated)
/// and appends a sample.
class Profiler {
public:
  Profiler(const HardwareModel &Hw, std::vector<ProfileSample> &Out,
           double MaxFlops)
      : Hw(Hw), Out(Out), MaxFlops(MaxFlops) {}

  void sample(const PrimitiveDesc &Desc, const GraphStats &Stats,
              const std::function<void()> &Body) {
    if (Hw.kind() == PlatformKind::Measured && Desc.flops() > MaxFlops)
      return;
    double Seconds = 0.0;
    if (Hw.kind() == PlatformKind::Measured) {
      // Warm-up: the model predicts warm per-iteration kernel time. The
      // executor times each step once; the harnesses get warm charges by
      // running a plan once untimed before the run they charge. The sample
      // is the median of TimedCalls warm calls, so one preempted or
      // cache-cold call does not become the fitted time.
      Body();
      std::array<double, TimedCalls> Calls;
      for (double &Call : Calls) {
        Timer T;
        Body();
        Call = T.seconds();
      }
      std::nth_element(Calls.begin(), Calls.begin() + TimedCalls / 2,
                       Calls.end());
      Seconds = Calls[TimedCalls / 2];
    } else {
      Seconds = Hw.estimateSeconds(Desc, &Stats);
    }
    // Clamp to the clock resolution so log() stays finite.
    Seconds = std::max(Seconds, 1e-9);
    Out.push_back({Desc.Kind, featurize(Desc, Stats), Seconds});
  }

private:
  static constexpr size_t TimedCalls = 5;

  const HardwareModel &Hw;
  std::vector<ProfileSample> &Out;
  double MaxFlops;
};

} // namespace

std::vector<ProfileSample>
granii::collectProfileData(const HardwareModel &Hw,
                           const std::vector<Graph> &Graphs,
                           const std::vector<int64_t> &Widths,
                           double MaxFlops) {
  std::vector<ProfileSample> Samples;
  Profiler Prof(Hw, Samples, MaxFlops);
  Rng Generator(42);

  for (const Graph &G : Graphs) {
    const CsrMatrix &A = G.adjacency();
    const GraphStats &Stats = G.stats();
    const int64_t N = A.rows();
    const int64_t E = A.nnz();

    // A weighted twin of the adjacency for the weighted primitives.
    CsrMatrix Aw = A;
    {
      std::vector<float> Vals(static_cast<size_t>(E));
      for (float &V : Vals)
        V = Generator.nextFloat(0.1f, 1.0f);
      Aw.setValues(std::move(Vals));
    }
    std::vector<float> DiagN(static_cast<size_t>(N));
    for (float &V : DiagN)
      V = Generator.nextFloat(0.5f, 1.5f);

    // Every sample times one Into call writing a destination allocated
    // here, before any sample, exactly as a plan step writes its arena
    // slot: the timed call pays the kernel, never the allocator.
    std::vector<float> VecOut(static_cast<size_t>(N));
    std::vector<float> EdgeOut(static_cast<size_t>(E));

    // Graph-shaped primitives, one sample per graph.
    Prof.sample({PrimitiveKind::DegreeOffsets, N, 0, 0, E}, Stats,
                [&] { kernels::degreeFromOffsetsInto(A, VecOut); });
    Prof.sample({PrimitiveKind::DegreeBinning, N, 0, 0, E}, Stats,
                [&] { kernels::degreeByBinningInto(A, VecOut); });
    Prof.sample({PrimitiveKind::VectorMap, N, 0, 0, 0}, Stats,
                [&] { kernels::invSqrtInto(DiagN, VecOut); });
    Prof.sample({PrimitiveKind::DiagMul, N, 0, 0, 0}, Stats, [&] {
      for (size_t I = 0; I < DiagN.size(); ++I)
        VecOut[I] = DiagN[I] * DiagN[I];
    });
    Prof.sample({PrimitiveKind::SddmmScale, N, 0, 1, E}, Stats, [&] {
      kernels::scaleSparseBothInto(A, A.values(), DiagN, DiagN, EdgeOut);
    });
    Prof.sample({PrimitiveKind::EdgeSoftmax, N, 0, 0, E}, Stats,
                [&] { kernels::edgeSoftmaxInto(Aw, Aw.values(), EdgeOut); });
    Prof.sample({PrimitiveKind::EdgeElementwise, N, 0, 0, E}, Stats, [&] {
      kernels::leakyReluEdgesInto(Aw.values(), 0.2f, EdgeOut);
    });

    // Width-dependent primitives.
    for (int64_t K : Widths) {
      DenseMatrix H(N, K);
      H.fillRandom(Generator);
      DenseMatrix Out(N, K);
      Prof.sample({PrimitiveKind::SpMMUnweighted, N, K, 0, E}, Stats,
                  [&] { kernels::spmmInto(A, {}, H, Out); });
      Prof.sample({PrimitiveKind::SpMMWeighted, N, K, 0, E}, Stats,
                  [&] { kernels::spmmInto(Aw, Aw.values(), H, Out); });
      Prof.sample({PrimitiveKind::SddmmDot, N, 0, K, E}, Stats,
                  [&] { kernels::sddmmInto(A, H, H, EdgeOut); });
      Prof.sample({PrimitiveKind::RowBroadcast, N, K, 0, 0}, Stats,
                  [&] { kernels::rowBroadcastMulInto(DiagN, H, Out); });
      std::vector<float> DiagK(static_cast<size_t>(K), 1.25f);
      Prof.sample({PrimitiveKind::ColBroadcast, N, K, 0, 0}, Stats,
                  [&] { kernels::colBroadcastMulInto(H, DiagK, Out); });
      Prof.sample({PrimitiveKind::AddDense, N, K, 0, 0}, Stats,
                  [&] { kernels::addMatricesInto(H, H, Out); });
      Prof.sample({PrimitiveKind::DenseMap, N, K, 0, 0}, Stats,
                  [&] { kernels::reluInto(H, Out); });
      std::vector<float> VecK(static_cast<size_t>(K), 0.5f);
      Prof.sample({PrimitiveKind::Gemv, N, 1, K, 0}, Stats,
                  [&] { kernels::gemvInto(H, VecK, VecOut); });

      // GEMMs at (K1, K2) = (K, other) pairs.
      for (int64_t K2 : Widths) {
        if (K2 > K && K2 != Widths.back())
          continue; // Thin out the quadratic pair grid.
        DenseMatrix W(K, K2);
        W.fillRandom(Generator);
        DenseMatrix GemmOut(N, K2);
        Prof.sample({PrimitiveKind::Gemm, N, K2, K, 0}, Stats,
                    [&] { kernels::gemmInto(H, W, GemmOut); });
      }
    }
  }
  return Samples;
}

LearnedCostModel granii::trainCostModel(const HardwareModel &Hw,
                                        const std::vector<ProfileSample> &Samples,
                                        const GbtParams &Params,
                                        TrainReport *Report) {
  LearnedCostModel Model(Hw);
  if (Report)
    Report->SampleCount = Samples.size();

  for (PrimitiveKind Kind : allPrimitiveKinds()) {
    GbtDataset Train, Valid;
    Train.NumFeatures = NumCostFeatures;
    Valid.NumFeatures = NumCostFeatures;
    size_t Index = 0;
    for (const ProfileSample &S : Samples) {
      if (S.Kind != Kind)
        continue;
      double Target = std::log(S.Seconds);
      // Deterministic 80/20 split by sample index.
      if (Index % 5 == 4)
        Valid.add(S.Features.data(), Target);
      else
        Train.add(S.Features.data(), Target);
      ++Index;
    }
    if (Train.size() < 8)
      continue; // Too few samples; analytic fallback covers this kind.
    GbtModel Fitted = GbtModel::fit(Train, Params);
    if (Report) {
      Report->TrainRmse[Kind] = std::sqrt(Fitted.mse(Train));
      if (Valid.size() > 0)
        Report->ValidRmse[Kind] = std::sqrt(Fitted.mse(Valid));
    }
    Model.setModel(Kind, std::move(Fitted));
  }
  return Model;
}

LearnedCostModel granii::loadOrTrainCostModel(const std::string &CachePath,
                                              const HardwareModel &Hw,
                                              const std::vector<Graph> &Graphs,
                                              const std::vector<int64_t> &Widths) {
  if (std::optional<LearnedCostModel> Cached =
          LearnedCostModel::loadFromFile(CachePath, Hw);
      Cached && Cached->modelCount() > 0) {
    // A cache written before a featurizer change carries ensembles trained
    // on a different feature vector; silently reusing it would feed the
    // trees misaligned inputs. Reject and retrain instead.
    bool FeaturesMatch = true;
    for (PrimitiveKind Kind : allPrimitiveKinds())
      if (const GbtModel *M = Cached->model(Kind);
          M && M->numFeatures() != NumCostFeatures)
        FeaturesMatch = false;
    if (FeaturesMatch)
      return std::move(*Cached);
  }
  std::vector<ProfileSample> Samples = collectProfileData(Hw, Graphs, Widths);
  LearnedCostModel Model = trainCostModel(Hw, Samples);
  (void)Model.saveToFile(CachePath);
  return Model;
}
