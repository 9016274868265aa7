//===- perfbench/oracle.h - References computed apart from the program ----===//
//
// The benchmark's independent checks. Nothing here calls into the
// library beyond its plain EdgePair/VertexId types and its hash: the
// edge-set model is
// a sorted key vector plus two hash sets, and every reference
// algorithm is a plain loop over a CSR built from that model.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_PERFBENCH_ORACLE_H
#define ASPEN_PERFBENCH_ORACLE_H

#include "util/types.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

using aspen::EdgePair;
using aspen::VertexId;

inline uint64_t edgeKey(VertexId U, VertexId V) {
  return (uint64_t(U) << 32) | V;
}

/// Compressed adjacency of a directed edge set; neighbor lists sorted.
struct Csr {
  VertexId N = 0;
  std::vector<uint64_t> Off; ///< N + 1 offsets
  std::vector<VertexId> Dst;

  uint64_t degree(VertexId V) const { return Off[V + 1] - Off[V]; }
  const VertexId *begin(VertexId V) const { return Dst.data() + Off[V]; }
  const VertexId *end(VertexId V) const { return Dst.data() + Off[V + 1]; }
  uint64_t numEdges() const { return Dst.size(); }

  /// From ascending, duplicate-free edge keys.
  static Csr fromSortedKeys(VertexId N, const std::vector<uint64_t> &Keys);
};

/// Reference edge-set model, updated batch by batch: the initial edges as
/// sorted keys plus the log of every insert and delete since, in order.
/// The current set is resolved on demand: per key, the last logged
/// operation wins, and keys never logged keep their initial membership.
class EdgeModel {
public:
  EdgeModel(VertexId N, const std::vector<EdgePair> &Initial);

  void insertBatch(const std::vector<EdgePair> &B) { log(B, true); }
  void deleteBatch(const std::vector<EdgePair> &B) { log(B, false); }
  /// The current edge set as a CSR.
  Csr csr() const;
  /// The initial edge set as a CSR.
  Csr initialCsr() const { return Csr::fromSortedKeys(N, Initial); }

private:
  void log(const std::vector<EdgePair> &B, bool Insert);
  VertexId N;
  std::vector<uint64_t> Initial;
  std::vector<uint64_t> OpKey;
  std::vector<uint8_t> OpInsert;
};

/// Hop distances from \p Src (~0u = unreachable).
std::vector<uint32_t> refBfs(const Csr &G, VertexId Src);

/// Component labels (minimum vertex id per component), by union-find.
std::vector<VertexId> refComponents(const Csr &G);

/// Power-iteration PageRank with the same update rule as the library's
/// pull form: p'[v] = (1-d)/n + d * sum_{u in N(v)} p[u]/deg(u).
std::vector<double> refPageRank(const Csr &G, int Iters, double Damping);

/// \p Count vertices drawn by a seeded hash (repeats allowed) among the
/// vertices with edges; with \p Giant, only from the largest component
/// (a BFS from there walks most of the graph, whatever the seed).
std::vector<VertexId> pickSources(const Csr &G, size_t Count, uint64_t Seed,
                                  bool Giant);

/// Is \p In (flags) an independent set of \p G that no vertex can join?
bool isMaximalIndependentSet(const Csr &G, const std::vector<uint8_t> &In);

/// Bounds check for a 2-hop answer taken at an unknown epoch of a run
/// whose edges only ever lie between \p Lo (present throughout) and
/// \p Hi (everything ever inserted): Lo's 2-hop set must be contained in
/// \p Got, and \p Got in Hi's. \p Mark is scratch of size N.
bool twoHopWithinBounds(const Csr &Lo, const Csr &Hi, VertexId Src,
                        const std::vector<VertexId> &Got,
                        std::vector<uint32_t> &Mark, uint32_t &Stamp);

/// Is \p Got exactly the sorted 2-hop set of \p Src in \p G?
inline bool twoHopEquals(const Csr &G, VertexId Src,
                         const std::vector<VertexId> &Got,
                         std::vector<uint32_t> &Mark, uint32_t &Stamp) {
  return twoHopWithinBounds(G, G, Src, Got, Mark, Stamp);
}

/// Same for BFS distances: Hi's distance <= got <= Lo's, per vertex.
bool bfsWithinBounds(const std::vector<uint32_t> &LoDist,
                     const std::vector<uint32_t> &HiDist,
                     const std::vector<uint32_t> &Got);

/// Compare a store's view with \p Ref vertex by vertex; returns the
/// number of vertices whose sorted neighbor lists differ.
template <class View>
uint64_t countVertexMismatches(const View &G, const Csr &Ref) {
  uint64_t Bad = 0;
  std::vector<VertexId> Got;
  for (VertexId V = 0; V < Ref.N; ++V) {
    Got.clear();
    G.mapNeighbors(V, [&](VertexId U) { Got.push_back(U); });
    std::sort(Got.begin(), Got.end());
    if (Got.size() != Ref.degree(V) ||
        !std::equal(Got.begin(), Got.end(), Ref.begin(V)))
      ++Bad;
  }
  if (uint64_t(G.numVertices()) > uint64_t(Ref.N))
    for (VertexId V = Ref.N; V < G.numVertices(); ++V)
      Bad += G.degree(V) != 0;
  return Bad;
}

} // namespace perfbench

#endif // ASPEN_PERFBENCH_ORACLE_H
