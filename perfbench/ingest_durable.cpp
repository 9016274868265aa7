//===- perfbench/ingest_durable.cpp - Durable ingest, checkpoints, recovery ===//
//
// A durable hybrid sharded store that fsyncs every group commit. Two
// closed-loop writers call insertBatch for a fixed number of batches, in
// phases; between phases both writers stop and the store checkpoints, so
// every checkpoint covers an exact batch count. After the last checkpoint
// the writers add a fixed tail of batches, the store closes, and it is
// reopened several times: each reopen loads the checkpoint and replays
// exactly that tail. The ingest pipeline, WAL group commit, checkpoints
// and recovery do the work; the flat and serving layers do none.
//
// Checks: the reopened store equals the reference edge-set model vertex
// by vertex, every acknowledged batch is present, and each reopen replays
// exactly the tail.
//
//===----------------------------------------------------------------------===//

#include "common.h"
#include "oracle.h"

#include "gen/generators.h"
#include "store/sharded_graph.h"

#include <thread>

namespace perfbench {

using namespace aspen;

namespace {

struct Params {
  int LogN = 17;
  size_t Shards = 8;
  size_t BatchPairs = 500;      ///< 1000 directed edges: bench_wal's commit batch
  size_t BatchesPerSecond = 300; ///< per second of --seconds: fixed count
  size_t Phases = 6;            ///< a checkpoint closes every phase
  size_t TailBatches = 100;     ///< replayed by every reopen
  size_t Writers = 2;
  int Reopens = 5;
  int SetupReps = 5;
};

Params paramsFor(const Config &C) {
  Params P;
  if (C.Smoke) {
    P.LogN = 10;
    P.BatchPairs = 32;
    P.BatchesPerSecond = 16;
    P.TailBatches = 8;
    P.Reopens = 2;
    P.SetupReps = 2;
  }
  return P;
}

std::vector<std::vector<EdgePair>> insertBatches(const Params &P,
                                                 uint64_t Seed, size_t Num) {
  RMatGenerator Gen(P.LogN, hash64(Seed ^ 0x494e47455354ull));
  std::vector<std::vector<EdgePair>> Out(Num);
  uint64_t I = 0;
  for (auto &B : Out) {
    B.reserve(2 * P.BatchPairs);
    while (B.size() < 2 * P.BatchPairs) {
      EdgePair E = Gen.edge(I++);
      if (E.first == E.second)
        continue;
      B.push_back(E);
      B.push_back({E.second, E.first});
    }
  }
  return Out;
}

DurabilityOptions durableOptions(const std::string &Dir) {
  DurabilityOptions O;
  O.Dir = Dir;
  O.FsyncOnCommit = true;
  O.CheckpointEveryBatches = 0; // checkpoints only where the run puts them
  return O;
}

uint64_t shardBytes(HybridShardedGraphStore &S) {
  auto Ref = S.acquire();
  uint64_t B = 0;
  for (size_t Sh = 0; Sh < Ref.numShards(); ++Sh)
    B += Ref.shard(Sh).memoryBytes();
  return B;
}

} // namespace

void runIngestDurable(const Config &C, Ledger &L, Tracer &Tr, RunResult &R) {
  const Params P = paramsFor(C);
  const VertexId N = VertexId(1) << P.LogN;
  const size_t MainBatches = P.BatchesPerSecond * size_t(C.Seconds);
  const size_t PhaseBatches = MainBatches / P.Phases;
  const size_t Total = PhaseBatches * P.Phases + P.TailBatches;
  const uint64_t EdgesPerBatch = 2 * P.BatchPairs;

  // Set-up: generate the batches and open a fresh durable store.
  std::vector<std::vector<EdgePair>> Batches;
  std::unique_ptr<HybridShardedGraphStore> Store;
  std::string Dir;
  std::vector<double> SetupT;
  for (int Rep = 0; Rep < P.SetupReps; ++Rep) {
    Store.reset();
    if (!Dir.empty())
      removeTree(Dir);
    Dir = freshDir(C, "ingest");
    auto T0 = Clock::now();
    Batches = insertBatches(P, C.Seed, Total);
    auto T1 = Clock::now();
    Store = std::make_unique<HybridShardedGraphStore>(durableOptions(Dir),
                                                      P.Shards, N);
    auto T2 = Clock::now();
    SetupT.push_back(secondsBetween(T0, T2));
    int64_t Root = Tr.record("setup", T0, T2);
    Tr.record("gen.input", T0, T1, Root);
    Tr.record("store.open", T1, T2, Root);
  }

  EdgeModel Model(N, {});
  for (const auto &B : Batches)
    Model.insertBatch(B);
  const Csr Final = Model.csr();

  // Measured phase: writers in phases, a checkpoint closing each phase,
  // then the fixed tail.
  std::vector<double> Ack(Total);
  std::vector<uint8_t> Acked(Total, 0);
  uint64_t GroupCommits = 0, Records = 0, WalBytes = 0;
  uint64_t CkptBytes = 0;
  auto AddWal = [&] {
    WalStats W = Store->durability()->walStats();
    GroupCommits += W.GroupCommits;
    Records += W.Appends;
    WalBytes += W.BytesWritten;
  };
  auto RunWriters = [&](size_t Lo, size_t Hi) {
    std::vector<std::thread> Ts;
    for (size_t W = 0; W < P.Writers; ++W)
      Ts.emplace_back([&, W] {
        for (size_t I = Lo + W; I < Hi; I += P.Writers) {
          L.attempt();
          auto T0 = Clock::now();
          try {
            Store->insertBatch(Batches[I]);
          } catch (const std::exception &E) {
            L.fail("insert batch " + std::to_string(I) + ": " + E.what());
            continue;
          }
          auto T1 = Clock::now();
          Ack[I] = secondsBetween(T0, T1);
          Acked[I] = 1;
          Tr.record("store.insert_batch", T0, T1, -1, I);
        }
      });
    for (std::thread &T : Ts)
      T.join();
  };
  auto Checkpoint = [&] {
    AddWal(); // walStats() restarts with every new WAL segment
    L.attempt();
    auto T0 = Clock::now();
    uint64_t Seq = Store->checkpointNow();
    auto T1 = Clock::now();
    Tr.record("store.checkpoint", T0, T1);
    struct stat St;
    std::string F = Dir + "/" + detail::ckptFileName(Seq);
    if (::stat(F.c_str(), &St) == 0)
      CkptBytes += uint64_t(St.st_size);
    else
      L.fail("checkpoint file missing after checkpointNow()");
  };

  auto IngestBegin = Clock::now();
  for (size_t Ph = 0; Ph < P.Phases; ++Ph) {
    RunWriters(Ph * PhaseBatches, (Ph + 1) * PhaseBatches);
    Checkpoint();
  }
  RunWriters(P.Phases * PhaseBatches, Total);
  double IngestS = secondsSince(IngestBegin);
  AddWal();
  double DiskBytes = double(treeBytes(Dir));
  Store.reset(); // close

  // Recovery: reopen several times; each loads the last checkpoint and
  // replays exactly the tail.
  std::vector<double> RecoverT;
  for (int Rep = 0; Rep < P.Reopens; ++Rep) {
    Store.reset();
    L.attempt();
    auto T0 = Clock::now();
    Store = std::make_unique<HybridShardedGraphStore>(durableOptions(Dir),
                                                      P.Shards, N);
    auto T1 = Clock::now();
    RecoverT.push_back(secondsBetween(T0, T1));
    Tr.record("store.reopen", T0, T1);
    const RecoveredState &Rec = Store->durability()->recovered();
    uint64_t Replayed = Rec.MaxSeq - (Rec.Ckpt ? Rec.Ckpt->Seq : 0);
    L.check(Replayed == P.TailBatches,
            "reopen replayed " + std::to_string(Replayed) + " WAL records");
    L.check(Store->batchSeq() == Total, "reopened batch count");
  }
  {
    auto Ref = Store->acquire();
    auto G = Ref.view();
    for (size_t I = 0; I < Total; ++I) {
      if (!Acked[I])
        continue;
      bool Present = true;
      for (const EdgePair &E : Batches[I])
        Present = Present && G.containsEdge(E.first, E.second);
      L.check(Present, "acknowledged batch " + std::to_string(I) +
                           " missing after reopen");
    }
    L.check(countVertexMismatches(G, Final) == 0,
            "reopened store differs from the reference model");
    L.check(Ref.numEdges() == Final.numEdges(), "reopened edge count");
  }
  uint64_t LiveEdges = Final.numEdges();
  double BytesPerEdge = double(shardBytes(*Store)) / double(LiveEdges);

  // A reopen with no tail: checkpoint load alone.
  Store->checkpointNow();
  std::vector<double> LoadT;
  for (int Rep = 0; Rep < P.Reopens; ++Rep) {
    Store.reset();
    L.attempt();
    auto T0 = Clock::now();
    Store = std::make_unique<HybridShardedGraphStore>(durableOptions(Dir),
                                                      P.Shards, N);
    auto T1 = Clock::now();
    LoadT.push_back(secondsBetween(T0, T1));
    Tr.record("store.ckpt_load", T0, T1);
    L.check(Store->batchSeq() == Total, "checkpoint-only reopen batch count");
  }
  Store.reset();
  removeTree(Dir);

  double RecoverS = median(RecoverT), LoadS = median(LoadT);
  uint64_t Ingested = uint64_t(Total) * EdgesPerBatch;
  R.EndToEnd["setup_s"] = median(SetupT);
  R.EndToEnd["bytes_per_edge"] = BytesPerEdge;
  R.EndToEnd["op_p50_s"] = median(Ack);
  R.EndToEnd["op_p90_s"] = quantile(Ack, 0.90);
  R.EndToEnd["heavy_p50_s"] = RecoverS;
  R.EndToEnd["work_s"] = IngestS;
  R.EndToEndName = {{"op_p50_s", "ack_p50_s"},
                    {"op_p90_s", "ack_p90_s"},
                    {"heavy_p50_s", "recover_s"},
                    {"work_s", "ingest_s = edges / ingest_eps"}};
  R.Notes.push_back("batches " + std::to_string(Total) + " (" +
                    std::to_string(P.Phases) + " phases of " +
                    std::to_string(PhaseBatches) + ", tail " +
                    std::to_string(P.TailBatches) + "), checkpoints " +
                    std::to_string(P.Phases) + ", edges per batch " +
                    std::to_string(EdgesPerBatch) + ", writers " +
                    std::to_string(P.Writers));

  if (Tr.on()) {
    R.Layers["store.ingest_eps"] = double(Ingested) / IngestS;
    R.Layers["store.ack_p99_s"] = p99OrMedian(Ack);
    R.Layers["wal.group_commits"] = double(GroupCommits);
    R.Layers["wal.records_per_commit"] =
        GroupCommits ? double(Records) / double(GroupCommits) : 0;
    R.Layers["wal.bytes_per_edge"] = double(WalBytes) / double(Ingested);
    R.Layers["checkpoint.s"] = median(Tr.durations("store.checkpoint"));
    R.Layers["checkpoint.bytes"] = double(CkptBytes);
    R.Layers["store.ckpt_load_s"] = LoadS;
    R.Layers["store.replay_eps"] =
        double(P.TailBatches * EdgesPerBatch) /
        std::max(RecoverS - LoadS, 1e-6);
    R.Layers["store.disk_bytes_per_edge"] = DiskBytes / double(LiveEdges);
  }
}

} // namespace perfbench
