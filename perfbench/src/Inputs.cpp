//===- Inputs.cpp - Seeded input graphs of the benchmark -------------------===//

#include "Inputs.h"

#include "Common.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

uint64_t SeedStream::next() {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t SeedStream::below(uint64_t Bound) {
  // Rejection keeps the draw unbiased; Bound is far below 2^63 here.
  uint64_t Limit = UINT64_MAX - UINT64_MAX % Bound;
  uint64_t X = next();
  while (X >= Limit)
    X = next();
  return X % Bound;
}

namespace {

/// One candidate undirected edge (U, V), U != V, or false to reject it.
using EdgeDraw = bool (*)(SeedStream &, int64_t Nodes, int64_t &U,
                          int64_t &V);

bool drawRmat(SeedStream &S, int64_t Nodes, int64_t &U, int64_t &V) {
  int Levels = 0;
  while ((int64_t{1} << Levels) < Nodes)
    ++Levels;
  U = V = 0;
  for (int L = 0; L < Levels; ++L) {
    double P = S.unit();
    U <<= 1;
    V <<= 1;
    if (P < 0.57) {
    } else if (P < 0.76) {
      V |= 1;
    } else if (P < 0.95) {
      U |= 1;
    } else {
      U |= 1;
      V |= 1;
    }
  }
  return U < Nodes && V < Nodes && U != V;
}

constexpr int64_t Communities = 100;

bool drawCommunity(SeedStream &S, int64_t Nodes, int64_t &U, int64_t &V) {
  if (S.unit() < 0.9) {
    int64_t Size = Nodes / Communities;
    int64_t Base = static_cast<int64_t>(S.below(Communities)) * Size;
    U = Base + static_cast<int64_t>(S.below(static_cast<uint64_t>(Size)));
    V = Base + static_cast<int64_t>(S.below(static_cast<uint64_t>(Size)));
  } else {
    U = static_cast<int64_t>(S.below(static_cast<uint64_t>(Nodes)));
    V = static_cast<int64_t>(S.below(static_cast<uint64_t>(Nodes)));
  }
  return U != V;
}

} // namespace

Adjacency generateGraph(const std::string &Kind, int64_t Nodes,
                        int64_t Directed, uint64_t Seed) {
  EdgeDraw Draw = Kind == "rmat"        ? drawRmat
                  : Kind == "community" ? drawCommunity
                                        : nullptr;
  if (!Draw)
    die("unknown graph kind '" + Kind + "' (rmat, community)");
  if (Nodes < Communities || Directed < 2 || Directed % 2 != 0)
    die("graph needs >= 100 nodes and an even, positive edge count");
  auto Target = static_cast<size_t>(Directed / 2);

  // Draw canonical (min, max) keys in rounds until enough distinct ones
  // exist, then keep a seeded random subset of exactly Target of them.
  SeedStream S(Seed);
  std::vector<uint64_t> Keys;
  size_t Attempts = 0;
  while (Keys.size() < Target) {
    size_t Want = Keys.size() + (Target - Keys.size()) * 5 / 4 + 1024;
    while (Keys.size() < Want) {
      if (++Attempts > Target * 64)
        die("graph generator cannot reach the requested edge count");
      int64_t U = 0, V = 0;
      if (!Draw(S, Nodes, U, V))
        continue;
      Keys.push_back(static_cast<uint64_t>(std::min(U, V)) *
                         static_cast<uint64_t>(Nodes) +
                     static_cast<uint64_t>(std::max(U, V)));
    }
    std::sort(Keys.begin(), Keys.end());
    Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
  }
  for (size_t I = 0; I < Target; ++I)
    std::swap(Keys[I], Keys[I + S.below(Keys.size() - I)]);
  Keys.resize(Target);

  Adjacency Adj;
  Adj.Nodes = Nodes;
  Adj.Offsets.assign(static_cast<size_t>(Nodes) + 1, 0);
  auto Endpoints = [&](uint64_t Key) {
    return std::pair<int64_t, int64_t>(
        static_cast<int64_t>(Key / static_cast<uint64_t>(Nodes)),
        static_cast<int64_t>(Key % static_cast<uint64_t>(Nodes)));
  };
  for (uint64_t Key : Keys) {
    auto [U, V] = Endpoints(Key);
    ++Adj.Offsets[static_cast<size_t>(U) + 1];
    ++Adj.Offsets[static_cast<size_t>(V) + 1];
  }
  for (size_t R = 0; R < static_cast<size_t>(Nodes); ++R)
    Adj.Offsets[R + 1] += Adj.Offsets[R];
  Adj.Cols.resize(static_cast<size_t>(Adj.Offsets.back()));
  std::vector<int64_t> Fill(Adj.Offsets.begin(), Adj.Offsets.end() - 1);
  for (uint64_t Key : Keys) {
    auto [U, V] = Endpoints(Key);
    Adj.Cols[static_cast<size_t>(Fill[static_cast<size_t>(U)]++)] =
        static_cast<int32_t>(V);
    Adj.Cols[static_cast<size_t>(Fill[static_cast<size_t>(V)]++)] =
        static_cast<int32_t>(U);
  }
  for (size_t R = 0; R < static_cast<size_t>(Nodes); ++R)
    std::sort(Adj.Cols.begin() + Adj.Offsets[R],
              Adj.Cols.begin() + Adj.Offsets[R + 1]);
  return Adj;
}

namespace {

constexpr uint32_t AdjMagic = 0x4a414250u; // "PBAJ"

void writeOrDie(std::ofstream &Out, const void *Data, size_t Size,
                const std::string &Path) {
  Out.write(static_cast<const char *>(Data),
            static_cast<std::streamsize>(Size));
  if (!Out)
    die("failed writing " + Path);
}

} // namespace

void writeGraphFiles(const Adjacency &Adj, const std::string &MtxPath,
                     const std::string &BinPath) {
  std::ofstream Mtx(MtxPath, std::ios::binary);
  if (!Mtx)
    die("cannot create " + MtxPath);
  std::string Head = "%%MatrixMarket matrix coordinate pattern symmetric\n" +
                     std::to_string(Adj.Nodes) + " " +
                     std::to_string(Adj.Nodes) + " " +
                     std::to_string(Adj.Cols.size() / 2) + "\n";
  writeOrDie(Mtx, Head.data(), Head.size(), MtxPath);
  std::string Chunk;
  for (int64_t R = 0; R < Adj.Nodes; ++R) {
    for (int64_t K = Adj.Offsets[static_cast<size_t>(R)];
         K < Adj.Offsets[static_cast<size_t>(R) + 1]; ++K) {
      int64_t C = Adj.Cols[static_cast<size_t>(K)];
      if (C >= R)
        break; // lower triangle only; columns are sorted
      char Line[48];
      char *End = std::to_chars(Line, Line + 20, R + 1).ptr;
      *End++ = ' ';
      End = std::to_chars(End, End + 20, C + 1).ptr;
      *End++ = '\n';
      Chunk.append(Line, End);
    }
    if (Chunk.size() > (1u << 20)) {
      writeOrDie(Mtx, Chunk.data(), Chunk.size(), MtxPath);
      Chunk.clear();
    }
  }
  writeOrDie(Mtx, Chunk.data(), Chunk.size(), MtxPath);

  std::ofstream Bin(BinPath, std::ios::binary);
  if (!Bin)
    die("cannot create " + BinPath);
  int64_t Nnz = static_cast<int64_t>(Adj.Cols.size());
  writeOrDie(Bin, &AdjMagic, sizeof(AdjMagic), BinPath);
  writeOrDie(Bin, &Adj.Nodes, sizeof(Adj.Nodes), BinPath);
  writeOrDie(Bin, &Nnz, sizeof(Nnz), BinPath);
  writeOrDie(Bin, Adj.Offsets.data(), Adj.Offsets.size() * sizeof(int64_t),
             BinPath);
  writeOrDie(Bin, Adj.Cols.data(), Adj.Cols.size() * sizeof(int32_t), BinPath);
}

Adjacency readAdjacency(const std::string &BinPath) {
  std::ifstream In(BinPath, std::ios::binary);
  if (!In)
    die("cannot read " + BinPath);
  uint32_t Magic = 0;
  int64_t Nnz = 0;
  Adjacency Adj;
  In.read(reinterpret_cast<char *>(&Magic), sizeof(Magic));
  In.read(reinterpret_cast<char *>(&Adj.Nodes), sizeof(Adj.Nodes));
  In.read(reinterpret_cast<char *>(&Nnz), sizeof(Nnz));
  if (!In || Magic != AdjMagic || Adj.Nodes < 1 || Nnz < 0 ||
      Adj.Nodes > (int64_t{1} << 31) || Nnz > (int64_t{1} << 40))
    die("malformed adjacency file " + BinPath);
  Adj.Offsets.resize(static_cast<size_t>(Adj.Nodes) + 1);
  Adj.Cols.resize(static_cast<size_t>(Nnz));
  In.read(reinterpret_cast<char *>(Adj.Offsets.data()),
          static_cast<std::streamsize>(Adj.Offsets.size() * sizeof(int64_t)));
  In.read(reinterpret_cast<char *>(Adj.Cols.data()),
          static_cast<std::streamsize>(Adj.Cols.size() * sizeof(int32_t)));
  if (!In || Adj.Offsets.front() != 0 || Adj.Offsets.back() != Nnz)
    die("truncated adjacency file " + BinPath);
  return Adj;
}

} // namespace perfbench
