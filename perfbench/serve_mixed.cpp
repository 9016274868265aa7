//===- perfbench/serve_mixed.cpp - Queries served while a writer streams --===//
//
// A memory-only SnapshotServer over a hybrid sharded store preloaded with
// an rMAT graph. One open-loop writer submits symmetric insert batches of
// fresh edges, and deletes of inserts made earlier, on a fixed schedule;
// two closed-loop tenants each run a fixed list of queries on QC.flat():
// local 2-hop queries, and a fixed share of BFS runs. The tenants pace
// their queries over the writer's window, so the reads overlap the writes
// however fast the program is; the end-to-end figures take only the
// queries submitted while writes were still due, and are medians over ten
// windows of the schedule. The read path
// (admission, sessions, flat catch-up) does the work; the WAL and
// checkpoints do none.
//
// Every inserted edge is new to the graph and to the run, and a delete is
// sent only once its insert is visible, so the writes commute wherever the
// server's workers reorder them: the final edge set is known exactly, and
// every epoch a query pins lies between the initial graph and the union
// of everything inserted. Served answers are checked against those two
// bounds; the final store is compared with the reference model vertex by
// vertex.
//
//===----------------------------------------------------------------------===//

#include "common.h"
#include "oracle.h"

#include "algorithms/bfs.h"
#include "algorithms/two_hop.h"
#include "gen/generators.h"
#include "serve/server.h"
#include "util/hash.h"

#include <condition_variable>
#include <numeric>
#include <thread>
#include <unordered_set>

namespace perfbench {

using namespace aspen;

namespace {

// Where each number comes from: README.md, "Where the serve-mixed and
// ingest-durable numbers come from".
struct Params {
  int LogN = 16;              ///< bench/bench_common.h default scale
  uint64_t EdgeFactor = 8;    ///< ... and edge factor
  size_t Shards = 8;          ///< bench_serving
  size_t BatchPairs = 2500;   ///< 5000 directed edges: bench_serving's batch
  size_t WriteRate = 35;      ///< batches/s, a quarter of the saturation rate
  size_t DeleteEvery = 2;     ///< every 2nd write deletes ...
  size_t DeleteLag = 8;       ///< ... the oldest live insert, once 8 are live
  size_t Tenants = 2;
  size_t QueriesPerSecond = 1000; ///< per tenant, paced over the writes
  size_t BfsEvery = 64;       ///< BFS and 2-hop take equal tenant time
  size_t BfsSources = 16;
  int SetupReps = 5;
};

Params paramsFor(const Config &C) {
  Params P;
  if (C.Smoke) {
    P.LogN = 10;
    P.EdgeFactor = 4;
    P.BatchPairs = 32;
    P.QueriesPerSecond = 200;
    P.SetupReps = 2;
  }
  return P;
}

struct Write {
  bool Insert;
  size_t Batch; ///< index into the insert batches
};

struct Input {
  std::vector<EdgePair> Initial;
  std::vector<std::vector<EdgePair>> Inserts; ///< symmetric, fresh edges
  std::vector<Write> Writes;
  std::unique_ptr<HybridShardedGraphStore> Store;
};

/// Insert batches of edges absent from \p Initial and from each other.
std::vector<std::vector<EdgePair>>
freshInsertBatches(const Params &P, uint64_t Seed, size_t NumBatches,
                   const std::vector<EdgePair> &Initial) {
  std::vector<uint64_t> Have;
  Have.reserve(Initial.size());
  for (const EdgePair &E : Initial)
    Have.push_back(edgeKey(E.first, E.second));
  std::sort(Have.begin(), Have.end());
  std::unordered_set<uint64_t> Taken;
  RMatGenerator Gen(P.LogN, hash64(Seed ^ 0x5752495445ull));
  std::vector<std::vector<EdgePair>> Out(NumBatches);
  uint64_t I = 0;
  for (auto &B : Out) {
    B.reserve(2 * P.BatchPairs);
    while (B.size() < 2 * P.BatchPairs) {
      EdgePair E = Gen.edge(I++);
      VertexId U = std::min(E.first, E.second), V = std::max(E.first, E.second);
      uint64_t K = edgeKey(U, V);
      if (U == V || std::binary_search(Have.begin(), Have.end(), K) ||
          !Taken.insert(K).second)
        continue;
      B.push_back({U, V});
      B.push_back({V, U});
    }
  }
  return Out;
}

std::vector<Write> writeSchedule(const Params &P, size_t NumWrites,
                                 size_t &NumInserts) {
  std::vector<Write> W;
  size_t Inserted = 0, Deleted = 0;
  for (size_t I = 0; I < NumWrites; ++I) {
    if (I % P.DeleteEvery == P.DeleteEvery - 1 &&
        Deleted + P.DeleteLag <= Inserted)
      W.push_back({false, Deleted++});
    else
      W.push_back({true, Inserted++});
  }
  NumInserts = Inserted;
  return W;
}

struct QuerySlot {
  VertexId Src = 0;
  bool Bfs = false;
  size_t BfsIndex = 0;
  Clock::time_point Submit, Start, Pin0, Pin1, End;
  std::vector<VertexId> TwoHop;
  std::vector<uint32_t> Dist;
  bool Error = false;
};

} // namespace

void runServeMixed(const Config &C, Ledger &L, Tracer &Tr, RunResult &R) {
  const Params P = paramsFor(C);
  const VertexId N = VertexId(1) << P.LogN;
  const size_t NumWrites = P.WriteRate * size_t(C.Seconds);
  const size_t QueriesPerTenant = P.QueriesPerSecond * size_t(C.Seconds);

  // Set-up: generate the graph and the write stream, build the store and
  // its flat view. Repeated; the median is setup_s and the last is used.
  Input In;
  std::vector<double> SetupT;
  for (int Rep = 0; Rep < P.SetupReps; ++Rep) {
    In = Input{};
    auto T0 = Clock::now();
    In.Initial = rmatGraphEdges(P.LogN, P.EdgeFactor, C.Seed);
    size_t NumInserts = 0;
    In.Writes = writeSchedule(P, NumWrites, NumInserts);
    In.Inserts = freshInsertBatches(P, C.Seed, NumInserts, In.Initial);
    auto T1 = Clock::now();
    In.Store = std::make_unique<HybridShardedGraphStore>(P.Shards, N,
                                                         In.Initial);
    auto T2 = Clock::now();
    In.Store->acquireFlat();
    auto T3 = Clock::now();
    SetupT.push_back(secondsBetween(T0, T3));
    int64_t Root = Tr.record("setup", T0, T3);
    Tr.record("gen.input", T0, T1, Root);
    Tr.record("store.build", T1, T2, Root);
    Tr.record("store.flat_build", T2, T3, Root);
  }
  HybridShardedGraphStore &S = *In.Store;

  // Oracle: the exact final edge set, and the bounds every epoch of the
  // run lies between (Lo = initial, Hi = initial + every insert).
  EdgeModel Model(N, In.Initial);
  EdgeModel Union(N, In.Initial);
  for (const Write &W : In.Writes) {
    if (W.Insert) {
      Model.insertBatch(In.Inserts[W.Batch]);
      Union.insertBatch(In.Inserts[W.Batch]);
    } else {
      Model.deleteBatch(In.Inserts[W.Batch]);
    }
  }
  const Csr Lo = Model.initialCsr(), Hi = Union.csr();
  const std::vector<VertexId> BfsSrc =
      pickSources(Lo, P.BfsSources, hash64(C.Seed ^ 0xB000), /*Giant=*/true);
  std::vector<std::vector<uint32_t>> BfsLo, BfsHi;
  for (VertexId Src : BfsSrc) {
    BfsLo.push_back(refBfs(Lo, Src));
    BfsHi.push_back(refBfs(Hi, Src));
  }
  // Query list: tenant T's query Q is a BFS every BfsEvery-th time, from
  // a small fixed source set; otherwise a 2-hop query from its own source.
  const std::vector<VertexId> HopSrc = pickSources(
      Lo, P.Tenants * QueriesPerTenant, hash64(C.Seed ^ 0x2409), false);
  auto QueryOf = [&](size_t T, size_t Q, QuerySlot &Sl) {
    Sl.Bfs = Q % P.BfsEvery == P.BfsEvery - 1;
    Sl.BfsIndex = (Q / P.BfsEvery + T) % BfsSrc.size();
    Sl.Src = Sl.Bfs ? BfsSrc[Sl.BfsIndex] : HopSrc[T * QueriesPerTenant + Q];
  };

  // Measured phase. The writer's batches and the tenants' queries run on
  // one schedule, starting together at T0 and spread over --seconds.
  SnapshotServer::Options O;
  O.Workers = size_t(std::max(2, machineWorkers() - 1)); // as bench_serving
  SnapshotServer Server(S, O);
  const uint64_t Base = S.batchSeq();
  const auto T0 = Clock::now() + std::chrono::milliseconds(5);
  auto At = [&](size_t I, double Period) {
    return T0 + std::chrono::nanoseconds(int64_t(double(I) * Period * 1e9));
  };
  const double WritePeriod = 1.0 / double(P.WriteRate);
  const Clock::time_point LastDue = At(NumWrites - 1, WritePeriod);
  // The tenants' slots interleave and span the writes: the last slot is
  // the last write's.
  const size_t Slots = P.Tenants * QueriesPerTenant;
  const double SlotPeriod =
      double(NumWrites - 1) * WritePeriod / double(Slots - 1);
  std::vector<Clock::time_point> Due(NumWrites), Visible(NumWrites);
  std::vector<Clock::time_point> SubmitBegin(NumWrites), SubmitEnd(NumWrites);
  double LateMax = 0;
  std::atomic<bool> WriterOk{true};

  auto Writer = [&] {
    size_t NextVisible = 0;
    auto Poll = [&] {
      uint64_t Seq = S.batchSeq();
      auto Now = Clock::now();
      while (NextVisible < NumWrites && Seq >= Base + NextVisible + 1)
        Visible[NextVisible++] = Now;
    };
    for (size_t W = 0; W < NumWrites; ++W) {
      Due[W] = At(W, WritePeriod);
      for (;;) {
        Poll();
        auto Now = Clock::now();
        if (Now >= Due[W])
          break;
        std::this_thread::sleep_for(
            std::min<Clock::duration>(Due[W] - Now,
                                      std::chrono::microseconds(100)));
      }
      const Write &Wr = In.Writes[W];
      const std::vector<EdgePair> &B = In.Inserts[Wr.Batch];
      if (!Wr.Insert) {
        // A delete goes out only once its insert is visible; otherwise a
        // reordering worker could apply it first.
        auto Deadline = Clock::now() + std::chrono::seconds(30);
        while (!S.acquire().view().containsEdge(B[0].first, B[0].second)) {
          if (Clock::now() > Deadline) {
            L.fail("insert " + std::to_string(Wr.Batch) + " never visible");
            WriterOk = false;
            return;
          }
          Poll();
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      SubmitBegin[W] = Clock::now();
      LateMax = std::max(LateMax, secondsBetween(Due[W], SubmitBegin[W]));
      bool Ok = Wr.Insert ? Server.submitInsert(B) : Server.submitDelete(B);
      SubmitEnd[W] = Clock::now();
      if (!Ok) {
        L.fail("write " + std::to_string(W) + " shed");
        WriterOk = false;
        return;
      }
    }
    auto Deadline = Clock::now() + std::chrono::seconds(30);
    while (NextVisible < NumWrites && Clock::now() < Deadline) {
      Poll();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (NextVisible < NumWrites) {
      L.fail("writes never became visible");
      WriterOk = false;
    }
  };

  // Closed-loop tenants: query Q goes out at its slot in the schedule, or
  // as soon as query Q-1 is done if that is later. Each answer is checked
  // against the run's bounds after it completes and before the next query
  // goes out. Latencies of queries submitted after the last write was due
  // ran without a writer and are kept apart.
  // Samples are kept per window: the slots are cut into Windows equal
  // parts, and the end-to-end figures are medians over the windows, so a
  // stall of the host that covers a part of the run moves them less.
  const size_t Windows = 10;
  auto WindowOf = [&](size_t T, size_t Q) {
    return (Q * P.Tenants + T) * Windows / Slots;
  };
  using PerWindow = std::vector<std::vector<double>>;
  std::vector<PerWindow> Local(P.Tenants, PerWindow(Windows)),
      Global(P.Tenants, PerWindow(Windows));
  std::vector<std::vector<double>> Busy( ///< time waiting on the server
      P.Tenants, std::vector<double>(Windows, 0.0));
  std::vector<size_t> AfterWrites(P.Tenants, 0);
  auto Tenant = [&](size_t T) {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    QuerySlot Sl;
    std::vector<uint32_t> Mark(N, 0);
    uint32_t Stamp = 0;
    for (size_t Q = 0; Q < QueriesPerTenant; ++Q) {
      QueryOf(T, Q, Sl);
      Sl.Error = false;
      Done = false;
      std::this_thread::sleep_until(At(Q * P.Tenants + T, SlotPeriod));
      L.attempt();
      Sl.Submit = Clock::now();
      bool Admitted = Server.submitQuery([&](SnapshotServer::QueryContext &QC) {
        Sl.Start = Clock::now();
        try {
          Sl.Pin0 = Clock::now();
          const auto &FE = QC.flat();
          Sl.Pin1 = Clock::now();
          auto G = FE->view();
          if (Sl.Bfs)
            Sl.Dist = bfsDistances(G, Sl.Src, QC.ctx());
          else
            Sl.TwoHop = twoHop(G, Sl.Src, QC.ctx());
        } catch (...) {
          Sl.Error = true;
        }
        Sl.End = Clock::now();
        {
          std::lock_guard<std::mutex> G(M);
          Done = true;
        }
        CV.notify_one();
      });
      std::string What = "tenant " + std::to_string(T) + " query " +
                         std::to_string(Q);
      if (!Admitted) {
        L.fail(What + " shed");
        continue;
      }
      {
        std::unique_lock<std::mutex> G(M);
        CV.wait(G, [&] { return Done; });
      }
      if (Sl.Error) {
        L.fail(What + " threw");
        continue;
      }
      bool Ok = Sl.Bfs ? bfsWithinBounds(BfsLo[Sl.BfsIndex],
                                         BfsHi[Sl.BfsIndex], Sl.Dist)
                       : twoHopWithinBounds(Lo, Hi, Sl.Src, Sl.TwoHop, Mark,
                                            Stamp);
      if (!Ok)
        L.mismatch(What + " outside the run's bounds");
      double Lat = secondsBetween(Sl.Submit, Sl.End);
      Busy[T][WindowOf(T, Q)] += Lat;
      if (Sl.Submit <= LastDue)
        (Sl.Bfs ? Global : Local)[T][WindowOf(T, Q)].push_back(Lat);
      else
        ++AfterWrites[T];
      const uint64_t Req = (uint64_t(T) << 32) | Q;
      int64_t Root = Tr.record("serve.query", Sl.Submit, Sl.End, -1, Req);
      Tr.record("serve.admit_wait", Sl.Submit, Sl.Start, Root, Req);
      Tr.record("store.flat_pin", Sl.Pin0, Sl.Pin1, Root, Req);
      Tr.record(Sl.Bfs ? "algorithms.bfs_served" : "algorithms.twohop_served",
                Sl.Pin1, Sl.End, Root, Req);
    }
  };

  L.attempt(NumWrites);
  std::thread WriterThread(Writer);
  std::vector<std::thread> Tenants;
  for (size_t T = 0; T < P.Tenants; ++T)
    Tenants.emplace_back(Tenant, T);
  for (std::thread &T : Tenants)
    T.join();
  WriterThread.join();
  Server.drain();
  SnapshotServer::Stats St = Server.stats();
  Server.stop();
  FlatMaintenanceStats FS = S.flatStats();

  std::vector<double> VisibleLat;
  if (WriterOk)
    for (size_t W = 0; W < NumWrites; ++W) {
      VisibleLat.push_back(secondsBetween(Due[W], Visible[W]));
      const uint64_t Req = (uint64_t(1) << 63) | W;
      int64_t Root = Tr.record("serve.write", Due[W], Visible[W], -1, Req);
      Tr.record("serve.submit", SubmitBegin[W], SubmitEnd[W], Root, Req);
    }
  // Per window: the 2-hop p50 and p90, the BFS median and the busy time
  // of both tenants. A window with no sample of a kind is skipped.
  std::vector<double> AllLocal, AllGlobal, WinP50, WinP90, WinBfs, WinBusy;
  for (size_t Wd = 0; Wd < Windows; ++Wd) {
    std::vector<double> Lw, Gw;
    double Bw = 0;
    for (size_t T = 0; T < P.Tenants; ++T) {
      Lw.insert(Lw.end(), Local[T][Wd].begin(), Local[T][Wd].end());
      Gw.insert(Gw.end(), Global[T][Wd].begin(), Global[T][Wd].end());
      Bw += Busy[T][Wd];
    }
    if (!Lw.empty()) {
      WinP50.push_back(median(Lw));
      WinP90.push_back(quantile(Lw, 0.90));
    }
    if (!Gw.empty())
      WinBfs.push_back(median(Gw));
    WinBusy.push_back(Bw);
    AllLocal.insert(AllLocal.end(), Lw.begin(), Lw.end());
    AllGlobal.insert(AllGlobal.end(), Gw.begin(), Gw.end());
  }
  size_t NumAfter = std::accumulate(AfterWrites.begin(), AfterWrites.end(),
                                    size_t(0));

  // The final store must equal the reference model.
  auto Ref = S.acquire();
  const Csr Final = Model.csr();
  L.check(countVertexMismatches(Ref.view(), Final) == 0,
          "final store differs from the reference model");
  L.check(Ref.numEdges() == Final.numEdges(), "final edge count");
  uint64_t Bytes = 0;
  for (size_t Sh = 0; Sh < Ref.numShards(); ++Sh)
    Bytes += Ref.shard(Sh).memoryBytes();

  R.EndToEnd["setup_s"] = median(SetupT);
  R.EndToEnd["bytes_per_edge"] = double(Bytes) / double(Ref.numEdges());
  R.EndToEnd["op_p50_s"] = median(WinP50);
  R.EndToEnd["op_p90_s"] = median(WinP90);
  R.EndToEnd["heavy_p50_s"] = median(WinBfs);
  R.EndToEnd["work_s"] = double(Windows) * median(WinBusy);
  R.EndToEndName = {{"op_p50_s", "query_p50_s"},
                    {"op_p90_s", "query_p90_s"},
                    {"heavy_p50_s", "global_query_p50_s"},
                    {"work_s", "tenant_busy_s"}};
  R.Notes.push_back(
      "local queries " + std::to_string(AllLocal.size()) + " (" +
      std::to_string(std::accumulate(AllLocal.begin(), AllLocal.end(), 0.0)) +
      " s), bfs queries " + std::to_string(AllGlobal.size()) + " (" +
      std::to_string(std::accumulate(AllGlobal.begin(), AllGlobal.end(), 0.0)) +
      " s), after the last write " +
      std::to_string(NumAfter) + ", writes " + std::to_string(NumWrites) +
      " (" +
      std::to_string(std::count_if(In.Writes.begin(), In.Writes.end(),
                                   [](const Write &W) { return !W.Insert; })) +
      " deletes), server workers " + std::to_string(O.Workers) +
      ", initial edges " + std::to_string(In.Initial.size()) +
      ", visible p50/p90 " + std::to_string(median(VisibleLat)) + "/" +
      std::to_string(quantile(VisibleLat, 0.9)) + " s");

  if (Tr.on()) {
    R.Layers["serve.query_p99_s"] = p99OrMedian(AllLocal);
    R.Layers["serve.queries_after_writes"] = double(NumAfter);
    R.Layers["serve.admit_wait_p50_s"] = median(Tr.durations("serve.admit_wait"));
    R.Layers["serve.admit_wait_p99_s"] =
        p99OrMedian(Tr.durations("serve.admit_wait"));
    R.Layers["serve.visible_p50_s"] = median(Tr.durations("serve.write"));
    R.Layers["serve.visible_p90_s"] = quantile(Tr.durations("serve.write"), 0.9);
    R.Layers["serve.epoch_lag_mean"] =
        St.QueriesDone ? double(St.EpochLagSum) / double(St.QueriesDone) : 0;
    R.Layers["serve.session_waits"] = double(St.SessionWaits);
    R.Layers["store.flat_pin_p50_s"] = median(Tr.durations("store.flat_pin"));
    R.Layers["store.flat_pin_p99_s"] = p99OrMedian(Tr.durations("store.flat_pin"));
    R.Layers["store.flat_refreshes"] = double(FS.Refreshes);
    R.Layers["store.flat_rebuilds"] = double(FS.Rebuilds);
    R.Layers["store.flat_hits"] = double(FS.Hits);
    R.Layers["store.flat_build_s"] = median(Tr.durations("store.flat_build"));
    R.Layers["algorithms.twohop_served_p50_s"] =
        median(Tr.durations("algorithms.twohop_served"));
    R.Layers["algorithms.bfs_served_p50_s"] =
        median(Tr.durations("algorithms.bfs_served"));
    R.Layers["gen.late_max_s"] = LateMax;
  }
}

} // namespace perfbench
