//===- perfbench/snapshot_analytics.cpp - Algorithms on a pinned epoch ----===//
//
// No writer. A larger rMAT graph is built once into a hybrid sharded
// store; then a fixed suite (BFS, PageRank with a fixed iteration count,
// connected components, and a fixed set of 2-hop queries) runs round-robin
// on a pinned epoch's flat view. C-tree decoding, the ligra layer and the
// scheduler do the work; serving and durability do none (the paper's
// Table 4/6 setting).
//
// Checks, every round: BFS distances, union-find components, power-
// iteration PageRank and 2-hop sets computed by plain loops over the
// generated edges; once per run, MIS by independence and maximality.
//
//===----------------------------------------------------------------------===//

#include "common.h"
#include "oracle.h"

#include "algorithms/bfs.h"
#include "algorithms/cc.h"
#include "algorithms/mis.h"
#include "algorithms/pagerank.h"
#include "algorithms/two_hop.h"
#include "gen/generators.h"
#include "memory/pool_allocator.h"
#include "parallel/scheduler.h"
#include "store/sharded_graph.h"
#include "util/hash.h"

#include <cmath>

namespace perfbench {

using namespace aspen;

namespace {

struct Params {
  int LogN = 17;
  uint64_t EdgeFactor = 10;
  size_t Shards = 8;
  size_t RoundsPerSecond = 6; ///< per second of --seconds: fixed count
  size_t BfsSources = 8;
  size_t TwoHopQueries = 256; ///< per round, each round its own sources
  int PageRankIters = 10;
  int SetupReps = 5;
  int LayerReps = 3;
};

Params paramsFor(const Config &C) {
  Params P;
  if (C.Smoke) {
    P.LogN = 10;
    P.EdgeFactor = 4;
    P.RoundsPerSecond = 2;
    P.TwoHopQueries = 16;
    P.SetupReps = 2;
    P.LayerReps = 1;
  }
  return P;
}

constexpr double Damping = 0.85;

bool samePageRank(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(std::fabs(A[I] - B[I]) <= 1e-12 + 1e-9 * std::fabs(B[I])))
      return false;
  return true;
}

} // namespace

void runSnapshotAnalytics(const Config &C, Ledger &L, Tracer &Tr,
                          RunResult &R) {
  const Params P = paramsFor(C);
  const VertexId N = VertexId(1) << P.LogN;
  const size_t Rounds = P.RoundsPerSecond * size_t(C.Seconds);

  // Set-up: generate, build the store, pin an epoch and its flat view.
  std::vector<EdgePair> Edges;
  std::unique_ptr<HybridShardedGraphStore> Store;
  HybridShardedGraphStore::Ref Pinned;
  std::shared_ptr<const HybridShardedGraphStore::FlatEpoch> Flat;
  std::vector<double> SetupT;
  for (int Rep = 0; Rep < P.SetupReps; ++Rep) {
    Flat.reset();
    Pinned.reset();
    Store.reset();
    auto T0 = Clock::now();
    Edges = rmatGraphEdges(P.LogN, P.EdgeFactor, C.Seed);
    auto T1 = Clock::now();
    Store = std::make_unique<HybridShardedGraphStore>(P.Shards, N, Edges);
    Pinned = Store->acquire();
    auto T2 = Clock::now();
    Flat = Store->acquireFlat();
    auto T3 = Clock::now();
    SetupT.push_back(secondsBetween(T0, T3));
    int64_t Root = Tr.record("setup", T0, T3);
    Tr.record("gen.input", T0, T1, Root);
    Tr.record("store.build", T1, T2, Root);
    Tr.record("store.flat_build", T2, T3, Root);
  }

  // Oracle.
  const Csr Ref = EdgeModel(N, Edges).initialCsr();
  // BFS sources in the giant component; every round runs its own set of
  // 2-hop sources, so the latency sample spans many vertices.
  const std::vector<VertexId> BfsSrc =
      pickSources(Ref, P.BfsSources, hash64(C.Seed ^ 0xBF5), /*Giant=*/true);
  const std::vector<VertexId> HopSrc = pickSources(
      Ref, Rounds * P.TwoHopQueries, hash64(C.Seed ^ 0x2409), false);
  std::vector<std::vector<uint32_t>> RefDist;
  for (VertexId Src : BfsSrc)
    RefDist.push_back(refBfs(Ref, Src));
  const std::vector<VertexId> RefCC = refComponents(Ref);
  const std::vector<double> RefPR = refPageRank(Ref, P.PageRankIters, Damping);

  // Measured phase.
  auto G = Flat->view();
  AlgoContext Ctx;
  std::vector<uint32_t> Mark(N, 0);
  uint32_t Stamp = 0;
  std::vector<double> BfsT, PrT, CcT, HopT, HeavyT, HopSetT;
  double WorkS = 0;
  uint64_t Alloc0 = countedAllocEvents();
  for (size_t Rd = 0; Rd < Rounds; ++Rd) {
    std::string Tag = " (round " + std::to_string(Rd) + ")";
    auto R0 = Clock::now();
    L.attempt();
    size_t Bi = Rd % BfsSrc.size();
    auto T0 = Clock::now();
    std::vector<uint32_t> Dist = bfsDistances(G, BfsSrc[Bi], Ctx);
    auto T1 = Clock::now();
    if (Dist != RefDist[Bi])
      L.mismatch("bfs distances" + Tag);

    L.attempt();
    auto T2 = Clock::now();
    std::vector<double> PR =
        pageRank(G, Ctx, P.PageRankIters, Damping, /*Tol=*/0.0);
    auto T3 = Clock::now();
    if (!samePageRank(PR, RefPR))
      L.mismatch("pagerank" + Tag);

    L.attempt();
    auto T4 = Clock::now();
    std::vector<VertexId> CC = connectedComponents(G, Ctx);
    auto T5 = Clock::now();
    if (CC != RefCC)
      L.mismatch("components" + Tag);

    int64_t Root = Tr.record("analytics.round", R0, Clock::now());
    Tr.record("algorithms.bfs", T0, T1, Root);
    Tr.record("algorithms.pagerank", T2, T3, Root);
    Tr.record("algorithms.cc", T4, T5, Root);
    double HopSet = 0;
    for (size_t Q = Rd * P.TwoHopQueries; Q < (Rd + 1) * P.TwoHopQueries;
         ++Q) {
      L.attempt();
      auto H0 = Clock::now();
      std::vector<VertexId> Hop = twoHop(G, HopSrc[Q], Ctx);
      auto H1 = Clock::now();
      if (!twoHopEquals(Ref, HopSrc[Q], Hop, Mark, Stamp))
        L.mismatch("2-hop of " + std::to_string(HopSrc[Q]) + Tag);
      HopT.push_back(secondsBetween(H0, H1));
      HopSet += HopT.back();
      Tr.record("algorithms.twohop", H0, H1, Root);
    }
    BfsT.push_back(secondsBetween(T0, T1));
    PrT.push_back(secondsBetween(T2, T3));
    CcT.push_back(secondsBetween(T4, T5));
    // The geometric mean weighs the three equally: a doubling of any one
    // moves it by 2^(1/3), although PageRank takes most of the time.
    HeavyT.push_back(std::cbrt(BfsT.back() * PrT.back() * CcT.back()));
    HopSetT.push_back(HopSet);
    WorkS += BfsT.back() + PrT.back() + CcT.back() + HopSet;
  }
  uint64_t AllocEvents = countedAllocEvents() - Alloc0;

  L.check(isMaximalIndependentSet(Ref, mis(G, Ctx)),
          "mis is not a maximal independent set");
  uint64_t Bytes = 0;
  for (size_t Sh = 0; Sh < Pinned.numShards(); ++Sh)
    Bytes += Pinned.shard(Sh).memoryBytes();

  R.EndToEnd["setup_s"] = median(SetupT);
  R.EndToEnd["bytes_per_edge"] = double(Bytes) / double(Pinned.numEdges());
  R.EndToEnd["op_p50_s"] = median(HopT);
  R.EndToEnd["op_p90_s"] = quantile(HopT, 0.90);
  R.EndToEnd["heavy_p50_s"] = median(HeavyT);
  R.EndToEnd["work_s"] = WorkS;
  R.EndToEndName = {{"op_p50_s", "twohop_query_p50_s"},
                    {"op_p90_s", "twohop_query_p90_s"},
                    {"heavy_p50_s", "geomean(bfs_s, pagerank_s, cc_s)"},
                    {"work_s", "algorithm_total_s"}};
  R.Notes.push_back("rounds " + std::to_string(Rounds) + ", 2-hop queries " +
                    std::to_string(HopT.size()) + ", vertices " +
                    std::to_string(N) + ", edges " +
                    std::to_string(Pinned.numEdges()));

  if (Tr.on()) {
    R.Layers["store.flat_build_s"] = median(Tr.durations("store.flat_build"));
    R.Layers["algorithms.bfs_s"] = median(Tr.durations("algorithms.bfs"));
    R.Layers["algorithms.pagerank_s"] =
        median(Tr.durations("algorithms.pagerank"));
    R.Layers["algorithms.cc_s"] = median(Tr.durations("algorithms.cc"));
    R.Layers["algorithms.twohop_s"] = median(HopSetT);
    R.Layers["algorithms.twohop_p99_s"] = p99OrMedian(HopT);
    R.Layers["memory.alloc_events"] = double(AllocEvents);

    // The same algorithms on the C-tree view of the pinned epoch, a tree
    // scan, and a sequential-mode PageRank baseline on the flat view.
    auto TG = Pinned.view();
    uint64_t Scanned = 0;
    double ScanS = medianTime(P.LayerReps, [&] {
      Scanned = 0;
      for (VertexId V = 0; V < N; ++V)
        TG.mapNeighbors(V, [&](VertexId) { ++Scanned; });
    });
    L.check(Scanned == Ref.numEdges(), "tree scan edge count");
    R.Layers["ctree.scan_eps"] = double(Scanned) / ScanS;
    std::vector<uint32_t> TreeDist;
    R.Layers["ctree.bfs_tree_s"] = medianTime(P.LayerReps, [&] {
      TreeDist = bfsDistances(TG, BfsSrc[0], Ctx);
    });
    L.check(TreeDist == RefDist[0], "bfs on the tree view");
    std::vector<double> TreePR;
    R.Layers["ctree.pagerank_tree_s"] = medianTime(P.LayerReps, [&] {
      TreePR = pageRank(TG, Ctx, P.PageRankIters, Damping, 0.0);
    });
    L.check(samePageRank(TreePR, RefPR), "pagerank on the tree view");
    setSequentialMode(true);
    std::vector<double> SeqPR;
    R.Layers["parallel.pagerank_seq_s"] = medianTime(1, [&] {
      SeqPR = pageRank(G, Ctx, P.PageRankIters, Damping, 0.0);
    });
    setSequentialMode(false);
    L.check(samePageRank(SeqPR, RefPR), "sequential-mode pagerank");
  }
}

} // namespace perfbench
