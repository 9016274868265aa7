//===- perfbench/oracle.cpp - Reference model and algorithms --------------===//

#include "oracle.h"

#include "util/hash.h"

#include <numeric>

namespace perfbench {

Csr Csr::fromSortedKeys(VertexId N, const std::vector<uint64_t> &Keys) {
  Csr G;
  G.N = N;
  G.Off.assign(size_t(N) + 1, 0);
  G.Dst.resize(Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I) {
    ++G.Off[(Keys[I] >> 32) + 1];
    G.Dst[I] = VertexId(Keys[I]);
  }
  for (VertexId V = 0; V < N; ++V)
    G.Off[V + 1] += G.Off[V];
  return G;
}

EdgeModel::EdgeModel(VertexId N, const std::vector<EdgePair> &Init) : N(N) {
  Initial.reserve(Init.size());
  for (const EdgePair &E : Init)
    Initial.push_back(edgeKey(E.first, E.second));
  std::sort(Initial.begin(), Initial.end());
  Initial.erase(std::unique(Initial.begin(), Initial.end()), Initial.end());
}

void EdgeModel::log(const std::vector<EdgePair> &B, bool Insert) {
  for (const EdgePair &E : B) {
    OpKey.push_back(edgeKey(E.first, E.second));
    OpInsert.push_back(Insert);
  }
}

Csr EdgeModel::csr() const {
  // Log positions by key, in log order within a key: the last one decides.
  std::vector<uint32_t> Idx(OpKey.size());
  std::iota(Idx.begin(), Idx.end(), 0u);
  std::stable_sort(Idx.begin(), Idx.end(), [&](uint32_t A, uint32_t B) {
    return OpKey[A] < OpKey[B];
  });
  std::vector<uint64_t> Keys;
  Keys.reserve(Initial.size() + Idx.size());
  size_t I = 0, J = 0;
  while (I < Initial.size() || J < Idx.size()) {
    uint64_t K = J < Idx.size() && (I == Initial.size() ||
                                    OpKey[Idx[J]] <= Initial[I])
                     ? OpKey[Idx[J]]
                     : Initial[I];
    bool Present = I < Initial.size() && Initial[I] == K;
    if (Present)
      ++I;
    for (; J < Idx.size() && OpKey[Idx[J]] == K; ++J)
      Present = OpInsert[Idx[J]];
    if (Present)
      Keys.push_back(K);
  }
  return Csr::fromSortedKeys(N, Keys);
}

std::vector<uint32_t> refBfs(const Csr &G, VertexId Src) {
  std::vector<uint32_t> Dist(G.N, ~0u);
  std::vector<VertexId> Queue{Src};
  Dist[Src] = 0;
  for (size_t H = 0; H < Queue.size(); ++H) {
    VertexId U = Queue[H];
    for (const VertexId *P = G.begin(U); P != G.end(U); ++P)
      if (Dist[*P] == ~0u) {
        Dist[*P] = Dist[U] + 1;
        Queue.push_back(*P);
      }
  }
  return Dist;
}

std::vector<VertexId> refComponents(const Csr &G) {
  std::vector<VertexId> Parent(G.N);
  std::iota(Parent.begin(), Parent.end(), VertexId(0));
  auto Find = [&](VertexId X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  for (VertexId U = 0; U < G.N; ++U)
    for (const VertexId *P = G.begin(U); P != G.end(U); ++P) {
      VertexId A = Find(U), B = Find(*P);
      // Union by smaller id, so every root is its component's minimum.
      if (A < B)
        Parent[B] = A;
      else if (B < A)
        Parent[A] = B;
    }
  std::vector<VertexId> Label(G.N);
  for (VertexId V = 0; V < G.N; ++V)
    Label[V] = Find(V);
  return Label;
}

std::vector<double> refPageRank(const Csr &G, int Iters, double Damping) {
  size_t N = G.N;
  std::vector<double> P(N, 1.0 / double(N)), Next(N), Contrib(N);
  for (int It = 0; It < Iters; ++It) {
    for (VertexId V = 0; V < G.N; ++V)
      Contrib[V] = G.degree(V) ? P[V] / double(G.degree(V)) : 0.0;
    for (VertexId V = 0; V < G.N; ++V) {
      double Acc = 0;
      for (const VertexId *Q = G.begin(V); Q != G.end(V); ++Q)
        Acc += Contrib[*Q];
      Next[V] = (1.0 - Damping) / double(N) + Damping * Acc;
    }
    P.swap(Next);
  }
  return P;
}

std::vector<VertexId> pickSources(const Csr &G, size_t Count, uint64_t Seed,
                                  bool Giant) {
  std::vector<VertexId> Label;
  VertexId Big = 0;
  if (Giant) {
    Label = refComponents(G);
    std::vector<uint64_t> Size(G.N, 0);
    for (VertexId L : Label)
      ++Size[L];
    Big = VertexId(std::max_element(Size.begin(), Size.end()) - Size.begin());
  }
  std::vector<VertexId> Out;
  for (uint64_t I = 0; Out.size() < Count; ++I) {
    VertexId V = VertexId(aspen::hashAt(Seed, I) % G.N);
    if (G.degree(V) > 0 && (!Giant || Label[V] == Big))
      Out.push_back(V);
  }
  return Out;
}

bool isMaximalIndependentSet(const Csr &G, const std::vector<uint8_t> &In) {
  if (In.size() != G.N)
    return false;
  for (VertexId V = 0; V < G.N; ++V) {
    bool NeighborIn = false;
    for (const VertexId *P = G.begin(V); P != G.end(V); ++P)
      if (*P != V && In[*P]) {
        NeighborIn = true;
        break;
      }
    if (In[V] && NeighborIn)
      return false; // not independent
    if (!In[V] && !NeighborIn)
      return false; // V could join: not maximal
  }
  return true;
}

namespace {
/// Stamp every vertex within two hops of \p Src in \p G.
void markTwoHop(const Csr &G, VertexId Src, std::vector<uint32_t> &Mark,
                uint32_t Stamp) {
  Mark[Src] = Stamp;
  for (const VertexId *P = G.begin(Src); P != G.end(Src); ++P) {
    Mark[*P] = Stamp;
    for (const VertexId *Q = G.begin(*P); Q != G.end(*P); ++Q)
      Mark[*Q] = Stamp;
  }
}

/// Every vertex within two hops of \p Src must carry \p Stamp.
bool allTwoHopMarked(const Csr &G, VertexId Src,
                     const std::vector<uint32_t> &Mark, uint32_t Stamp) {
  if (Mark[Src] != Stamp)
    return false;
  for (const VertexId *P = G.begin(Src); P != G.end(Src); ++P) {
    if (Mark[*P] != Stamp)
      return false;
    for (const VertexId *Q = G.begin(*P); Q != G.end(*P); ++Q)
      if (Mark[*Q] != Stamp)
        return false;
  }
  return true;
}

bool sortedUnique(const std::vector<VertexId> &V) {
  return std::adjacent_find(V.begin(), V.end(),
                            [](VertexId A, VertexId B) { return A >= B; }) ==
         V.end();
}
} // namespace

bool twoHopWithinBounds(const Csr &Lo, const Csr &Hi, VertexId Src,
                        const std::vector<VertexId> &Got,
                        std::vector<uint32_t> &Mark, uint32_t &Stamp) {
  if (!sortedUnique(Got))
    return false;
  uint32_t HiStamp = ++Stamp;
  markTwoHop(Hi, Src, Mark, HiStamp);
  for (VertexId V : Got)
    if (V >= Hi.N || Mark[V] != HiStamp)
      return false; // Got holds a vertex no epoch could reach
  uint32_t GotStamp = ++Stamp;
  for (VertexId V : Got)
    Mark[V] = GotStamp;
  return allTwoHopMarked(Lo, Src, Mark, GotStamp);
}

bool bfsWithinBounds(const std::vector<uint32_t> &LoDist,
                     const std::vector<uint32_t> &HiDist,
                     const std::vector<uint32_t> &Got) {
  if (Got.size() != LoDist.size())
    return false;
  for (size_t V = 0; V < Got.size(); ++V)
    if (Got[V] < HiDist[V] || Got[V] > LoDist[V])
      return false;
  return true;
}

} // namespace perfbench
