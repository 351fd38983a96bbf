//===- Reference.cpp - Independent output check ----------------------------===//

#include "Reference.h"

#include "Common.h"

#include "ir/Dsl.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace perfbench {

using granii::DenseMatrix;
using granii::GnnModel;
using granii::LayerParams;

LoadedModel loadModelFile(const std::string &Path) {
  LoadedModel Out;
  Out.Text = readFileOrDie(Path);
  std::string Error;
  std::optional<granii::ParsedModel> Parsed =
      granii::parseModelDsl(Out.Text, &Error);
  if (!Parsed)
    die(Path + ": " + Error);
  // Same derivation as the serving engine applies to request text.
  Out.Model.Name = Parsed->Name;
  Out.Model.Root = Parsed->Root;
  Out.Model.WeightCount = 0;
  for (const granii::LeafNode *Leaf : granii::collectLeaves(Parsed->Root)) {
    if (Leaf->role() == granii::LeafRole::Weight)
      ++Out.Model.WeightCount;
    if (Leaf->role() == granii::LeafRole::AttnSrcVec)
      Out.Model.UsesAttention = true;
  }
  Out.Model.WeightCount = std::max(Out.Model.WeightCount, 1);
  return Out;
}

LayerParams seededParams(const GnnModel &Model, int64_t Nodes, int64_t KIn,
                         int64_t KOut, uint64_t Seed) {
  granii::CsrMatrix Empty(Nodes, Nodes,
                          std::vector<int64_t>(static_cast<size_t>(Nodes) + 1),
                          {}, {});
  return granii::makeLayerParams(Model, granii::Graph("empty", Empty), KIn,
                                 KOut, Seed);
}

std::vector<int64_t> sampleRows(const Adjacency &Adj, size_t Count,
                                uint64_t Seed) {
  std::vector<int64_t> Order(static_cast<size_t>(Adj.Nodes));
  std::iota(Order.begin(), Order.end(), 0);
  size_t Top = std::min<size_t>(Count / 4, Order.size());
  std::partial_sort(Order.begin(), Order.begin() + static_cast<long>(Top),
                    Order.end(), [&](int64_t A, int64_t B) {
                      return Adj.degree(A) != Adj.degree(B)
                                 ? Adj.degree(A) > Adj.degree(B)
                                 : A < B;
                    });
  std::vector<int64_t> Rows(Order.begin(),
                            Order.begin() + static_cast<long>(Top));
  SeedStream S(Seed);
  while (Rows.size() < std::min<size_t>(Count, Order.size())) {
    Rows.push_back(static_cast<int64_t>(S.below(Order.size())));
    std::sort(Rows.begin(), Rows.end());
    Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
  }
  return Rows;
}

namespace {

using Vec = std::vector<double>;

enum class RefModel { Gcn, Gin, Sgc, Tagcn, Sage, Gat };

RefModel refModelOf(const GnnModel &Model) {
  static const std::map<std::string, RefModel> Names = {
      {"GCN", RefModel::Gcn},     {"GIN", RefModel::Gin},
      {"SGC", RefModel::Sgc},     {"TAGCN", RefModel::Tagcn},
      {"SAGE", RefModel::Sage},   {"GAT", RefModel::Gat}};
  auto It = Names.find(Model.Name);
  if (It == Names.end())
    die("no reference for model '" + Model.Name +
        "' (GCN, GIN, SGC, TAGCN, SAGE, GAT)");
  return It->second;
}

/// Every model but SGC ends in a ReLU.
bool endsInRelu(RefModel Kind) { return Kind != RefModel::Sgc; }

/// The double-precision forward pass over the self-loop-augmented graph
/// \tilde{A} = A + I, evaluated one output row at a time and stopped before
/// the final ReLU.
class Forward {
public:
  Forward(const Adjacency &Adj, const LayerParams &Params)
      : Adj(Adj), Params(Params), KIn(Params.Features.cols()) {}

  Vec preActivation(RefModel Kind, int64_t I) {
    switch (Kind) {
    case RefModel::Gcn: {
      Vec Agg = zero(KIn);
      forNeighbors(I, [&](int64_t J) { axpy(Agg, norm(J), features(J)); });
      Vec Out = times(Agg, weight("W"));
      scaleBy(Out, norm(I));
      return Out;
    }
    case RefModel::Gin: {
      Vec Agg = features(I);
      scaleBy(Agg, 1.1);
      forNeighbors(I, [&](int64_t J) { axpy(Agg, 1.0, features(J)); });
      return times(Agg, weight("W"));
    }
    case RefModel::Sgc:
      return times(hop2(I), weight("W"));
    case RefModel::Tagcn: {
      Vec Out = times(features(I), weight("W0"));
      axpy(Out, 1.0, times(hop1(I), weight("W1")));
      axpy(Out, 1.0, times(hop2(I), weight("W2")));
      return Out;
    }
    case RefModel::Sage: {
      Vec Mean = zero(KIn);
      forNeighbors(I, [&](int64_t J) { axpy(Mean, 1.0, features(J)); });
      scaleBy(Mean, 1.0 / static_cast<double>(Adj.degree(I) + 1));
      Vec Out = times(features(I), weight("Wself"));
      axpy(Out, 1.0, times(Mean, weight("Wneigh")));
      return Out;
    }
    case RefModel::Gat: {
      const std::vector<float> &Src = Params.AttnVecs.at("asrc");
      const std::vector<float> &Dst = Params.AttnVecs.at("adst");
      const DenseMatrix &W = weight("W");
      double SrcScore = dot(times(features(I), W), Src);
      std::vector<Vec> Theta;
      std::vector<double> Logit;
      forNeighbors(I, [&](int64_t J) {
        Theta.push_back(times(features(J), W));
        double E = SrcScore + dot(Theta.back(), Dst);
        Logit.push_back(E < 0.0 ? 0.2 * E : E);
      });
      double Max = *std::max_element(Logit.begin(), Logit.end());
      double Sum = 0.0;
      for (double &E : Logit)
        Sum += (E = std::exp(E - Max));
      Vec Out = zero(W.cols());
      for (size_t K = 0; K < Theta.size(); ++K)
        axpy(Out, Logit[K] / Sum, Theta[K]);
      return Out;
    }
    }
    return {};
  }

private:
  /// Visits \tilde{A}'s row I: the stored neighbors plus the self loop.
  template <typename Fn> void forNeighbors(int64_t I, Fn Visit) {
    bool SelfDone = false;
    for (int64_t K = Adj.Offsets[static_cast<size_t>(I)];
         K < Adj.Offsets[static_cast<size_t>(I) + 1]; ++K) {
      int64_t J = Adj.Cols[static_cast<size_t>(K)];
      if (!SelfDone && J > I) {
        Visit(I);
        SelfDone = true;
      }
      Visit(J);
    }
    if (!SelfDone)
      Visit(I);
  }

  /// \tilde{D}^{-1/2} entry of node J.
  double norm(int64_t J) const {
    return 1.0 / std::sqrt(static_cast<double>(Adj.degree(J) + 1));
  }

  Vec features(int64_t J) const {
    const float *Row = Params.Features.rowPtr(J);
    return Vec(Row, Row + KIn);
  }

  const DenseMatrix &weight(const std::string &Name) const {
    auto It = Params.Weights.find(Name);
    if (It == Params.Weights.end())
      die("model has no weight '" + Name + "'");
    return It->second;
  }

  /// Row I of S H with S = \tilde{D}^{-1/2} \tilde{A} \tilde{D}^{-1/2}.
  Vec hop1(int64_t I) {
    auto It = Hop1Memo.find(I);
    if (It != Hop1Memo.end())
      return It->second;
    Vec Agg = zero(KIn);
    forNeighbors(I, [&](int64_t J) { axpy(Agg, norm(J), features(J)); });
    scaleBy(Agg, norm(I));
    return Hop1Memo[I] = Agg;
  }

  /// Row I of S^2 H.
  Vec hop2(int64_t I) {
    Vec Agg = zero(KIn);
    forNeighbors(I, [&](int64_t J) { axpy(Agg, norm(J), hop1(J)); });
    scaleBy(Agg, norm(I));
    return Agg;
  }

  static Vec zero(int64_t N) { return Vec(static_cast<size_t>(N), 0.0); }
  static void axpy(Vec &Y, double A, const Vec &X) {
    for (size_t K = 0; K < Y.size(); ++K)
      Y[K] += A * X[K];
  }
  static void scaleBy(Vec &Y, double A) {
    for (double &V : Y)
      V *= A;
  }
  static double dot(const Vec &X, const std::vector<float> &Y) {
    double Acc = 0.0;
    for (size_t K = 0; K < X.size(); ++K)
      Acc += X[K] * Y[K];
    return Acc;
  }
  static Vec times(const Vec &X, const DenseMatrix &W) {
    Vec Out = zero(W.cols());
    for (int64_t R = 0; R < W.rows(); ++R) {
      const float *WRow = W.rowPtr(R);
      for (int64_t C = 0; C < W.cols(); ++C)
        Out[static_cast<size_t>(C)] += X[static_cast<size_t>(R)] * WRow[C];
    }
    return Out;
  }

  const Adjacency &Adj;
  const LayerParams &Params;
  int64_t KIn;
  std::map<int64_t, Vec> Hop1Memo;
};

/// Float outputs against double references. Kernels reassociate sums (SIMD
/// lanes, blocked reductions), so an entry may be off by a rounding error
/// that grows with the scale of its row, the largest |pre-activation| in it.
/// Errors are measured against that scale: not against 1, which is far
/// above the outputs, and not against the entry itself, which a ReLU can
/// leave at any size down to 0. The tolerance is about 10x the largest error
/// seen on correct outputs of the six models (4.8e-6, GCN on the 100k-node
/// R-MAT, over every workload configuration and three seeds).
constexpr double Tolerance = 5e-5;

} // namespace

CheckResult checkOutput(const GnnModel &Model, const Adjacency &Adj,
                        const LayerParams &Params, const float *Output,
                        int64_t OutRows, int64_t OutCols,
                        const std::vector<int64_t> &Rows, bool InjectFault) {
  CheckResult Result;
  RefModel Kind = refModelOf(Model);
  int64_t KOut = Params.Weights.begin()->second.cols();
  if (OutRows != Adj.Nodes || OutCols != KOut) {
    Result.RowsChecked = 1;
    Result.RowsWrong = 1; // wrong shape: every row is wrong
    return Result;
  }
  Forward Ref(Adj, Params);
  bool Relu = endsInRelu(Kind);
  for (size_t N = 0; N < Rows.size(); ++N) {
    int64_t I = Rows[N];
    std::vector<double> Pre = Ref.preActivation(Kind, I);
    double Scale = 0.0;
    for (double V : Pre)
      Scale = std::max(Scale, std::fabs(V));
    std::vector<float> Got(Output + I * OutCols, Output + (I + 1) * OutCols);
    if (InjectFault && N == 0) // one entry off by 1% of its row's scale
      Got[0] += static_cast<float>(0.01 * Scale);
    double RowError = 0.0;
    for (size_t C = 0; C < Got.size(); ++C) {
      double Expected = Relu ? std::max(Pre[C], 0.0) : Pre[C];
      double Err = std::fabs(Got[C] - Expected) / Scale;
      RowError = std::isnan(Err) ? INFINITY : std::max(RowError, Err);
    }
    ++Result.RowsChecked;
    Result.RowsWrong += RowError > Tolerance ? 1 : 0;
    Result.MaxError = std::max(Result.MaxError, RowError);
  }
  return Result;
}

} // namespace perfbench
