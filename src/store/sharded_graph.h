//===- store/sharded_graph.h - Sharded versioned graph store --------------===//
//
// A hash-partitioned, versioned graph store: vertices are partitioned
// across S shards (S a power of two), each shard an independent
// purely-functional GraphSnapshotT, and the published state is an *epoch*
// — an immutable vector of per-shard snapshots installed through the
// refcounted version-list core (store/version_list.h). At one shard it is
// also the paper's single-snapshot store: graph/versioned_graph.h is a
// forwarding adapter over a one-shard instance.
// Readers acquire() an epoch and are guaranteed a cross-shard-consistent
// cut: every epoch is the previous epoch plus exactly one complete batch,
// so per-shard edge counts always sum to a batch boundary and no reader
// ever observes a torn batch.
//
// Ingest (DESIGN.md Sections 3 and 8): insertBatch, deleteBatch and WAL
// recovery replay share one function, ingest(), which applies a batch as
// a single writer and publishes one epoch for it (Aspen Section 6):
//   1. Split (no locks): the batch is partitioned by owning shard with
//      filterIndexInto into borrowed scratch (zero steady-state heap
//      allocation, per the AlgoContext contract).
//   2. Group (no locks): each shard's sub-batch is grouped with a counting
//      sort over *local* vertex ids (the hash partition compresses a
//      shard's id space by S, so the counter array stays cache-resident —
//      this is what makes grouping cheaper than GraphSnapshotT's span-path
//      comparison sort; a batch far smaller than its id range sorts by
//      comparison instead). Grouping depends only on the batch, not on
//      the base epoch, so a same-shard writer's group/sort overlaps its
//      predecessor's merge/install instead of queueing behind it.
//   3. Lock: the touched shards' writer locks are taken in ascending order.
//   4. Merge + install: per-shard functional merges multiInsert the groups
//      in parallel — one writer per shard — then, under the commit lock, a
//      new epoch is formed from the latest published epoch with the
//      touched shards replaced, the batch's WAL record is appended, its
//      touched digest recorded, and the epoch published atomically via the
//      version list. Writers whose batches touch disjoint shards merge
//      concurrently and serialize only for the O(S) pointer-copy install.
//
// Readers compose the per-shard snapshots behind ShardedGraphView, which
// implements the same graph-view concept (numVertices / numEdges / degree
// / neighborCursor / mapNeighbors* / iterNeighborsCond) that edgeMap and
// all the algorithms are templated over, so analytics run unmodified —
// and bit-identically — on a sharded acquire.
//
// acquireFlat() additionally maintains a hot flat rendering of the
// current epoch — per-shard paged-CoW FlatSnapshotTs indexed by
// shard-local id, composed behind ShardedFlatView for O(1) vertex access
// — refreshed batch-to-batch from the merge pipeline's touched-vertex
// digests instead of rebuilt (DESIGN.md Section 4).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_STORE_SHARDED_GRAPH_H
#define ASPEN_STORE_SHARDED_GRAPH_H

#include "graph/graph.h"
#include "store/durability.h"
#include "store/version_list.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aspen {

/// Rebuild-vs-refresh counters of a store's hot flat snapshot (tests and
/// benches assert which maintenance path served an acquireFlat()).
struct FlatMaintenanceStats {
  uint64_t Rebuilds = 0;  ///< full O(n) flat builds
  uint64_t Refreshes = 0; ///< O(touched) incremental refreshes
  uint64_t Hits = 0;      ///< served the cached flat unchanged
};

/// Tuning constants of the hot-flat maintenance path: refresh when the
/// replayed digests touch at most universe / FlatRefreshDenominator
/// distinct vertices, covering at most FlatReplayMaxEpochs epochs;
/// anything else rebuilds. See DESIGN.md Section 4 for the crossover
/// analysis.
inline constexpr uint64_t FlatRefreshDenominator = 8;
inline constexpr size_t FlatReplayMaxEpochs = 64;

/// Hash-partitioned versioned graph store over \p EdgeSet shards.
template <class EdgeSet> class ShardedGraphStoreT {
public:
  using Snapshot = GraphSnapshotT<EdgeSet>;

  /// An immutable cross-shard cut: the per-shard snapshots as of one
  /// batch boundary, plus the aggregates readers ask for on every
  /// acquire. Epochs are the versioned value of the store.
  struct Epoch {
    std::vector<Snapshot> Shards;
    uint64_t BatchSeq = 0;  ///< number of complete batches applied
    uint64_t NumEdges = 0;  ///< sum of per-shard directed edge counts
    VertexId Universe = 0;  ///< max materialized vertex id + 1
  };

  class View;
  class FlatView;

  /// RAII reader handle to an acquired epoch (releasing is automatic).
  class Ref {
  public:
    Ref() = default;
    Ref(Ref &&) noexcept = default;
    Ref &operator=(Ref &&) noexcept = default;

    const Epoch &epoch() const { return H.value(); }
    uint64_t batchSeq() const { return H.value().BatchSeq; }
    uint64_t numEdges() const { return H.value().NumEdges; }
    size_t numShards() const { return H.value().Shards.size(); }
    const Snapshot &shard(size_t S) const { return H.value().Shards[S]; }

    /// Graph-view over the whole epoch; this handle must outlive it.
    View view() const { return View(H.value()); }

    bool valid() const { return H.valid(); }
    void reset() { H.reset(); }

  private:
    friend class ShardedGraphStoreT;
    explicit Ref(typename VersionListT<Epoch>::Handle H)
        : H(std::move(H)) {}
    typename VersionListT<Epoch>::Handle H;
  };

  /// Construct an empty store with \p NumShards shards (rounded up to a
  /// power of two) over the vertex universe [0, N): every vertex is
  /// materialized with an empty edge set in its owning shard, matching
  /// GraphSnapshotT::fromEdges.
  explicit ShardedGraphStoreT(size_t NumShards, VertexId N = 0)
      : ShardedGraphStoreT(NumShards, N, std::vector<EdgePair>{}) {}

  /// BuildGraph counterpart: a sharded store over vertices [0, N)
  /// containing \p Edges, partitioned by shardOf(). All shards build
  /// and update their edge sets under the same \p P (per-store, not
  /// process-global).
  ShardedGraphStoreT(size_t NumShards, VertexId N,
                     std::vector<EdgePair> Edges,
                     typename EdgeSet::BuildParams P = {})
      : LogShards(log2Ceil(NumShards)),
        Mask(VertexId((size_t(1) << LogShards) - 1)), Params(P),
        ShardLocks(new std::mutex[size_t(1) << LogShards]),
        Versions(initialEpoch(LogShards, N, std::move(Edges), P)) {}

  /// One-shard store whose epoch 0 is \p Initial, built under the
  /// snapshot's own parameters (the paper interface's initial version,
  /// graph/versioned_graph.h).
  explicit ShardedGraphStoreT(Snapshot Initial)
      : LogShards(0), Mask(0), Params(Initial.buildParams()),
        ShardLocks(new std::mutex[1]),
        Versions(oneShardEpoch(std::move(Initial), 0)) {}

  /// Durable open (opt-in; DESIGN.md Section 7): recover the newest
  /// valid checkpoint from \p O.Dir, replay the WAL suffix through the
  /// one ingest path, and WAL-log + group-commit every subsequent
  /// batch before acknowledging it. A checkpoint's shard count is
  /// authoritative — \p NumShards only shapes a fresh directory (the
  /// hash partition must match the one the checkpointed shards were
  /// built under).
  ShardedGraphStoreT(const DurabilityOptions &O, size_t NumShards,
                     VertexId N, typename EdgeSet::BuildParams P = {})
      : ShardedGraphStoreT(std::make_unique<DurabilityEngine>(O), NumShards,
                           N, P) {}

  ShardedGraphStoreT(const ShardedGraphStoreT &) = delete;
  ShardedGraphStoreT &operator=(const ShardedGraphStoreT &) = delete;

  size_t numShards() const { return size_t(1) << LogShards; }

  typename EdgeSet::BuildParams buildParams() const { return Params; }

  /// Owning shard of a vertex. The partition hash folds the id's low
  /// bits: scattered real-world ids and generator ids both spread evenly,
  /// and the complementary high bits form the shard-local dense id the
  /// ingest grouping counts on.
  size_t shardOf(VertexId V) const { return size_t(V & Mask); }

  /// Shard-local dense id of \p V (its position in the shard's slice of
  /// the id space).
  VertexId localId(VertexId V) const { return V >> LogShards; }

  /// Acquire the current epoch. Never blocked by writers for more than a
  /// pointer swap; the returned cut is always a whole-batch boundary.
  Ref acquire() { return Ref(Versions.acquire()); }

  /// Number of complete batches applied so far (one atomic load; the
  /// mirror is published under the commit lock).
  uint64_t batchSeq() const {
    return PublishedSeqV.load(std::memory_order_acquire);
  }

  /// Atomically apply an insert batch (see the file comment for the
  /// ingest steps); returns the new epoch's batch sequence number. Many
  /// threads may call concurrently; batches touching disjoint shards
  /// merge in parallel, and same-shard writers overlap their group/sort
  /// with the predecessor's merge/install.
  uint64_t insertBatch(const EdgePair *Edges, size_t K) {
    return ingest(Edges, K, /*Insert=*/true);
  }
  uint64_t insertBatch(const std::vector<EdgePair> &Edges) {
    return insertBatch(Edges.data(), Edges.size());
  }

  /// Atomically apply a delete batch.
  uint64_t deleteBatch(const EdgePair *Edges, size_t K) {
    return ingest(Edges, K, /*Insert=*/false);
  }
  uint64_t deleteBatch(const std::vector<EdgePair> &Edges) {
    return deleteBatch(Edges.data(), Edges.size());
  }

  /// The paper's set() (Aspen Section 6) on a one-shard store: publish
  /// \p G as the next epoch, advancing BatchSeq by one. A raw install has
  /// no touched digest, so the digest log is cleared and the next
  /// acquireFlat() rebuilds. Throws std::logic_error on a multi-shard
  /// store (a raw snapshot carries no partition) and on a durable store
  /// (the install has no WAL record: recovery would stop at its seq and
  /// lose every later acknowledged batch).
  uint64_t installSnapshot(Snapshot G) {
    if (numShards() != 1)
      throw std::logic_error("installSnapshot needs a one-shard store");
    if (Durable)
      throw std::logic_error("installSnapshot on a durable store: a raw "
                             "install has no WAL record");
    std::scoped_lock Lock(ShardLocks[0], CommitM);
    uint64_t Seq = PublishedSeqV.load(std::memory_order_relaxed) + 1;
    Versions.set(oneShardEpoch(std::move(G), Seq));
    Digests.clear();
    PublishedSeqV.store(Seq, std::memory_order_release);
    return Seq;
  }

  //===--------------------------------------------------------------------===
  // Composed reader view.
  //===--------------------------------------------------------------------===

  /// Graph-view concept over an acquired epoch: vertex resolution costs
  /// one shard pick (a mask) plus an O(log n/S) lookup in the owning
  /// shard's vertex tree. The epoch (its Ref) must outlive the view.
  class View {
  public:
    using NeighborCursor = typename EdgeSet::View::Cursor;

    explicit View(const Epoch &E)
        : E(&E), Mask(VertexId(E.Shards.size() - 1)) {}

    VertexId numVertices() const { return E->Universe; }
    uint64_t numEdges() const { return E->NumEdges; }
    uint64_t degree(VertexId V) const { return owner(V).degree(V); }

    /// Streaming cursor over \p V's neighbors (epoch must stay alive).
    NeighborCursor neighborCursor(VertexId V) const {
      return owner(V).edgesView(V).cursor();
    }

    template <class F>
    void mapNeighborsIndexed(VertexId V, const F &Fn) const {
      owner(V).edgesView(V).forEachIndexed(Fn);
    }

    template <class F> void mapNeighbors(VertexId V, const F &Fn) const {
      owner(V).edgesView(V).forEachSeq(Fn);
    }

    template <class F>
    bool iterNeighborsCond(VertexId V, const F &Fn) const {
      return owner(V).edgesView(V).iterCond(Fn);
    }

    /// Edge-existence probe (O(1) on hot hybrid vertices).
    bool containsEdge(VertexId U, VertexId X) const {
      return owner(U).containsEdge(U, X);
    }

    bool hasFastProbe(VertexId U) const {
      return owner(U).hasFastProbe(U);
    }

    /// Parallel traversal over (vertex, edge set) entries of every shard
    /// (unordered across shards, like GraphSnapshotT's parallel form).
    template <class F> void forEachVertex(const F &Fn) const {
      for (const Snapshot &S : E->Shards)
        S.forEachVertex(Fn);
    }

    size_t numShards() const { return E->Shards.size(); }
    const Snapshot &shard(size_t S) const { return E->Shards[S]; }

  private:
    const Snapshot &owner(VertexId V) const {
      return E->Shards[size_t(V & Mask)];
    }

    const Epoch *E;
    VertexId Mask;
  };

  //===--------------------------------------------------------------------===
  // Hot-epoch flat snapshots (DESIGN.md Section 4): per-shard paged-CoW
  // flat arrays indexed by shard-local id, maintained epoch-to-epoch from
  // the ingest pipeline's touched digests and composed behind a graph
  // view, so analytics get O(1) vertex access on the latest epoch
  // without an O(n) rebuild per batch.
  //===--------------------------------------------------------------------===

  using Flat = FlatSnapshotT<EdgeSet>;

  /// An immutable flat rendering of one epoch: per-shard flat snapshots
  /// (slot = local id = v >> log2(S)) plus the epoch aggregates.
  struct FlatEpoch {
    std::vector<Flat> Flats;
    uint64_t BatchSeq = 0;
    uint64_t NumEdges = 0;
    VertexId Universe = 0;
    size_t LogShards = 0;

    /// Graph-view over this flat epoch; the FlatEpoch (its shared_ptr)
    /// must outlive the view.
    FlatView view() const { return FlatView(*this); }
  };

  /// Graph-view concept over a FlatEpoch: vertex resolution is a mask,
  /// a shift, and two array reads — O(1) like FlatGraphView, composed
  /// across shards. Satisfies IsGraphViewV, so every algorithm runs
  /// unmodified (and bit-identically; see the flat differential tests).
  class FlatView {
  public:
    using SetView = typename EdgeSet::View;
    using NeighborCursor = typename SetView::Cursor;

    explicit FlatView(const FlatEpoch &FE)
        : FE(&FE), Mask(VertexId(FE.Flats.size() - 1)),
          Log(unsigned(FE.LogShards)) {}

    VertexId numVertices() const { return FE->Universe; }
    uint64_t numEdges() const { return FE->NumEdges; }
    uint64_t degree(VertexId V) const {
      const Flat &F = FE->Flats[size_t(V & Mask)];
      VertexId L = V >> Log;
      return L < F.numVertices() ? F.degree(L) : 0;
    }

    /// Streaming cursor over \p V's neighbors (epoch must stay alive).
    NeighborCursor neighborCursor(VertexId V) const {
      return slotView(V).cursor();
    }

    template <class F>
    void mapNeighborsIndexed(VertexId V, const F &Fn) const {
      slotView(V).forEachIndexed(Fn);
    }

    template <class F> void mapNeighbors(VertexId V, const F &Fn) const {
      slotView(V).forEachSeq(Fn);
    }

    template <class F>
    bool iterNeighborsCond(VertexId V, const F &Fn) const {
      return slotView(V).iterCond(Fn);
    }

    /// Edge-existence probe (O(1) on hot hybrid vertices).
    bool containsEdge(VertexId U, VertexId X) const {
      return slotView(U).contains(X);
    }

    bool hasFastProbe(VertexId U) const {
      return slotView(U).hasFastProbe();
    }

  private:
    /// The vertex universe is epoch-global; shards whose own id space
    /// ends earlier resolve out-of-range vertices to the empty view.
    SetView slotView(VertexId V) const {
      const Flat &F = FE->Flats[size_t(V & Mask)];
      VertexId L = V >> Log;
      return L < F.numVertices() ? F.edges(L) : SetView{};
    }

    const FlatEpoch *FE;
    VertexId Mask;
    unsigned Log;
  };

  /// Flat rendering of the current epoch, maintained as a hot cache: an
  /// unchanged epoch is returned as-is; an epoch a few recorded batches
  /// ahead of the cache is caught up by refreshing only the touched
  /// shards' touched pages (untouched shards share their predecessor's
  /// flat wholesale, by root-pointer identity); anything else — cold
  /// cache, replay gap, or a touched set above universe /
  /// FlatRefreshDenominator — is a full parallel rebuild. Callers
  /// serialize on an internal mutex for the catch-up work; writers are
  /// never blocked by it. Hold the shared_ptr while using the view.
  std::shared_ptr<const FlatEpoch> acquireFlat() {
    size_t S = numShards();
    // Lock-free fast path: one atomic seq load + one atomic shared_ptr
    // load, no mutex. The seq is read FIRST; if the cached flat then
    // matches it, that flat rendered the epoch current at the instant
    // of the seq read (the cache never regresses, and a concurrently
    // installed newer flat carries a larger seq, failing the compare) —
    // exactly the freshness the mutex path promises. Under a session
    // fan-out with a quiet writer, every reader hits here without
    // serializing on FlatM.
    {
      uint64_t Seq = batchSeq();
      std::shared_ptr<const FlatEpoch> Hot =
          std::atomic_load_explicit(&CachedFlat, std::memory_order_acquire);
      if (Hot && Hot->BatchSeq == Seq) {
        FlatHitsV.fetch_add(1, std::memory_order_relaxed);
        return Hot;
      }
    }

    std::lock_guard<std::mutex> Lock(FlatM);
    // Acquired under FlatM: every cache entry was built from an epoch
    // acquired while holding this lock, so Seq >= CachedFlat->BatchSeq
    // always and the cache can never regress to an older epoch.
    Ref E = acquire();
    uint64_t Seq = E.batchSeq();
    std::shared_ptr<const FlatEpoch> Cached =
        std::atomic_load_explicit(&CachedFlat, std::memory_order_acquire);
    if (Cached && Cached->BatchSeq == Seq) {
      ++Stats.Hits;
      return Cached;
    }

    std::shared_ptr<FlatEpoch> New;
    if (Cached) {
      // Union the replay span's digests per shard.
      std::vector<std::vector<VertexId>> Touched(S);
      bool Covered = Digests.replay(
          Cached->BatchSeq, Seq, [&](const ShardDigest &D) {
            for (const auto &P : D)
              Touched[P.first].insert(Touched[P.first].end(),
                                      P.second.begin(), P.second.end());
          });
      // Threshold on the *distinct* touched union (hot vertices hit by
      // several replayed batches count once).
      uint64_t Total = 0;
      if (Covered) {
        parallelFor(0, S, [&](size_t Sh) {
          auto &T = Touched[Sh];
          parallelSort(T);
          T.erase(std::unique(T.begin(), T.end()), T.end());
        }, 1);
        for (const auto &T : Touched)
          Total += T.size();
      }
      if (Covered &&
          Total * FlatRefreshDenominator <= uint64_t(E.epoch().Universe)) {
        New = std::make_shared<FlatEpoch>();
        New->Flats.resize(S);
        const FlatEpoch &Prev = *Cached;
        parallelFor(0, S, [&](size_t Sh) {
          const Snapshot &Cur = E.shard(Sh);
          // Root identity means the shard is bit-identical to the one
          // the cached flat renders: share its pages wholesale.
          if (Cur.root() == Prev.Flats[Sh].graph().root()) {
            New->Flats[Sh] = Prev.Flats[Sh];
            return;
          }
          const auto &T = Touched[Sh];
          New->Flats[Sh] =
              Flat::refresh(Prev.Flats[Sh], Cur, T.data(), T.size());
        }, 1);
        ++Stats.Refreshes;
      }
    }
    if (!New)
      New = buildFlat(E);
    publishFlat(New, E);
    return New;
  }

  /// Rebuild/refresh/hit counters of acquireFlat() (diagnostics, tests).
  /// Hits counts both mutex-path and lock-free fast-path hits.
  FlatMaintenanceStats flatStats() const {
    std::lock_guard<std::mutex> Lock(FlatM);
    FlatMaintenanceStats R = Stats;
    R.Hits += FlatHitsV.load(std::memory_order_relaxed);
    return R;
  }

  /// Durability engine of a durable store (nullptr on a memory-only
  /// store). Diagnostics only — the store drives it internally.
  const DurabilityEngine *durability() const { return Durable.get(); }

  /// Mutable engine access for the self-healing layer: the scrubber and
  /// the replication drivers (store/replication.h) attach here.
  DurabilityEngine *durability() { return Durable.get(); }

  /// Serialize the current epoch as a durable checkpoint, rotate the
  /// WAL, and drop the log prefix it covers. Durable stores only; safe
  /// under concurrent ingest — the checkpoint is one acquired epoch's
  /// consistent cut, and only WAL records it covers are trimmed.
  ///
  /// Incremental (DESIGN.md Section 9): shard snapshots are immutable
  /// functional trees, so "changed since the last checkpoint" is one
  /// root-pointer comparison against the pinned last-checkpoint epoch.
  /// When the engine offers a base generation, only changed shards are
  /// serialized and written; the manifest chains back to the base.
  uint64_t checkpointNow() {
    assert(Durable && "checkpointNow on a memory-only store");
    std::lock_guard<std::mutex> G(CkptStateM);
    Ref E = acquire();
    size_t S = numShards();
    std::vector<std::vector<uint8_t>> Streams(S);
    std::optional<uint64_t> Base = Durable->incrementalBaseFor();
    std::vector<uint8_t> Present(S, 1);
    if (Base && CkptEpoch.valid() && CkptEpochSeq == *Base)
      for (size_t Sh = 0; Sh < S; ++Sh)
        Present[Sh] = E.shard(Sh).root() != CkptEpoch.shard(Sh).root();
    else
      Base.reset();
    // A one-shard store whose shard changed writes a full checkpoint: an
    // incremental one would hold the same bytes and only pin its base
    // chain, with that chain's WAL, on disk.
    if (S == 1 && Present[0])
      Base.reset();
    bool Wrote = false;
    if (Base) {
      parallelFor(0, S, [&](size_t Sh) {
        if (Present[Sh])
          serializeSnapshot(E.shard(Sh), Streams[Sh]);
      }, 1);
      Wrote = Durable->checkpoint(E.batchSeq(), uint32_t(LogShards),
                                  Streams, *Base, &Present);
      if (!Wrote) {
        // The base went stale under us (e.g. the scrubber quarantined
        // it); flush the missing shards and retry as a full checkpoint.
        parallelFor(0, S, [&](size_t Sh) {
          if (!Present[Sh])
            serializeSnapshot(E.shard(Sh), Streams[Sh]);
        }, 1);
        Wrote = Durable->checkpoint(E.batchSeq(), uint32_t(LogShards),
                                    Streams);
      }
    } else {
      parallelFor(0, S, [&](size_t Sh) {
        serializeSnapshot(E.shard(Sh), Streams[Sh]);
      }, 1);
      Wrote = Durable->checkpoint(E.batchSeq(), uint32_t(LogShards),
                                  Streams);
    }
    if (Wrote) {
      // Pin this epoch until the next checkpoint: the pin keeps the
      // shard roots alive, so pointer identity against them stays
      // sound (structural sharing bounds the pinned delta).
      CkptEpochSeq = E.batchSeq();
      CkptEpoch = std::move(E);
      return CkptEpochSeq;
    }
    return E.batchSeq();
  }

private:
  /// Durable-open worker: shard geometry comes from the recovered
  /// checkpoint when one exists (the partition hash must match the one
  /// the checkpointed shards were built under).
  ShardedGraphStoreT(std::unique_ptr<DurabilityEngine> Eng, size_t NumShards,
                     VertexId N, typename EdgeSet::BuildParams P)
      : LogShards(Eng->recovered().Ckpt
                      ? size_t(Eng->recovered().Ckpt->LogShards)
                      : log2Ceil(NumShards)),
        Mask(VertexId((size_t(1) << LogShards) - 1)), Params(P),
        ShardLocks(new std::mutex[size_t(1) << LogShards]),
        Versions(initialEpoch(LogShards, N, {}, P)),
        Durable(std::move(Eng)) {
    const RecoveredState &R = Durable->recovered();
    size_t S = numShards();
    if (R.Ckpt) {
      if (R.Ckpt->ShardStreams.size() != S)
        throw CorruptCheckpoint("sharded checkpoint shard-count mismatch");
      Epoch E;
      E.Shards.resize(S);
      std::vector<std::exception_ptr> Errs(S);
      parallelFor(0, S, [&](size_t Sh) {
        try {
          ByteReader Rd(R.Ckpt->ShardStreams[Sh].data(),
                        R.Ckpt->ShardStreams[Sh].size());
          E.Shards[Sh] = deserializeSnapshot<EdgeSet>(Rd, Params);
        } catch (...) {
          Errs[Sh] = std::current_exception();
        }
      }, 1);
      for (std::exception_ptr &Ep : Errs)
        if (Ep)
          std::rethrow_exception(Ep);
      E.BatchSeq = R.Ckpt->Seq;
      finalizeAggregates(E, N);
      Versions.set(std::move(E));
      PublishedSeqV.store(R.Ckpt->Seq, std::memory_order_release);
      // Pin the checkpoint epoch before replay: the first post-recovery
      // checkpoint can then be incremental against the recovered base
      // (untouched shards share these exact roots across replay).
      CkptEpoch = acquire();
      CkptEpochSeq = R.Ckpt->Seq;
      if (Durable->options().PrimeFlatOnRecover)
        primeFlatFromCurrent();
    }
    // Replay the WAL suffix through the one ingest path (Recovering
    // gates the WAL re-append); the digests it records keep the primed
    // flat cache refreshable.
    Recovering = true;
    for (const WalReplayRecord &RR : R.Replay) {
      uint64_t Seq = ingest(RR.Edges.data(), RR.Edges.size(),
                            RR.Kind == WalKind::InsertBatch);
      (void)Seq;
      assert(Seq == RR.Seq && "replay must reproduce the batch sequence");
    }
    Recovering = false;
    Durable->dropRecoveredPayload();
  }

  /// Recovery priming: build the hot flat cache from the current
  /// (checkpoint) epoch so the first post-recovery acquireFlat() takes
  /// the O(touched) refresh path over the replayed batches' digests.
  void primeFlatFromCurrent() {
    std::lock_guard<std::mutex> Lock(FlatM);
    Ref E = acquire();
    publishFlat(buildFlat(E), E);
  }

  /// Full parallel flat build of every shard of \p E (caller holds FlatM).
  std::shared_ptr<FlatEpoch> buildFlat(const Ref &E) {
    size_t S = numShards();
    auto New = std::make_shared<FlatEpoch>();
    New->Flats.resize(S);
    parallelFor(0, S, [&](size_t Sh) {
      New->Flats[Sh] = Flat(E.shard(Sh), unsigned(LogShards));
    }, 1);
    ++Stats.Rebuilds;
    return New;
  }

  /// Stamp \p New with epoch \p E's aggregates and publish it as the hot
  /// flat (caller holds FlatM). The atomic store pairs with the
  /// acquireFlat() fast path's lock-free load.
  void publishFlat(const std::shared_ptr<FlatEpoch> &New, const Ref &E) {
    New->BatchSeq = E.batchSeq();
    New->NumEdges = E.numEdges();
    New->Universe = E.epoch().Universe;
    New->LogShards = LogShards;
    std::atomic_store_explicit(&CachedFlat,
                               std::shared_ptr<const FlatEpoch>(New),
                               std::memory_order_release);
  }

  /// Per-epoch touched digest: (shard, ascending touched vertex ids) for
  /// every shard the batch touched.
  using ShardDigest = std::vector<std::pair<uint32_t, std::vector<VertexId>>>;

  static size_t log2Ceil(size_t S) {
    size_t L = 0;
    while ((size_t(1) << L) < S)
      ++L;
    return L;
  }

  static Epoch initialEpoch(size_t LogShards, VertexId N,
                            std::vector<EdgePair> Edges,
                            typename EdgeSet::BuildParams P) {
    size_t S = size_t(1) << LogShards;
    VertexId Mask = VertexId(S - 1);
    Epoch E;
    E.Shards.resize(S);
    parallelFor(0, S, [&](size_t Sh) {
      // Every owned vertex in [0, N) materialized with an empty edge set
      // (mirroring GraphSnapshotT::fromEdges), then this shard's edges.
      std::vector<VertexId> Owned;
      for (VertexId V = VertexId(Sh); V < N; V += VertexId(S))
        Owned.push_back(V);
      std::vector<EdgePair> Mine;
      for (const EdgePair &P : Edges)
        if (size_t(P.first & Mask) == Sh) {
          assert(P.first < N && "edge endpoint out of vertex range");
          Mine.push_back(P);
        }
      E.Shards[Sh] = Snapshot(P).insertVertices(std::move(Owned))
                         .insertEdges(std::move(Mine));
    }, 1);
    finalizeAggregates(E, N);
    return E;
  }

  static Epoch oneShardEpoch(Snapshot G, uint64_t Seq) {
    Epoch E;
    E.Shards.push_back(std::move(G));
    E.BatchSeq = Seq;
    finalizeAggregates(E, 0);
    return E;
  }

  static void finalizeAggregates(Epoch &E, VertexId FloorUniverse) {
    uint64_t Edges = 0;
    VertexId U = FloorUniverse;
    for (const Snapshot &S : E.Shards) {
      Edges += S.numEdges();
      U = std::max(U, S.vertexUniverse());
    }
    E.NumEdges = Edges;
    E.Universe = U;
  }

  /// Partition \p K edges by owning shard into \p PartsP (stable within
  /// a shard), with \p ShardLoP[S + 1] the per-shard slice bounds.
  void splitByShard(const EdgePair *Edges, size_t K, EdgePair *PartsP,
                    size_t *ShardLoP) const {
    size_t S = numShards();
    size_t At = 0;
    for (size_t Sh = 0; Sh < S; ++Sh) {
      ShardLoP[Sh] = At;
      At += filterIndexInto(
          K, [&](size_t I) { return Edges[I]; },
          [&](size_t I) { return size_t(Edges[I].first & Mask) == Sh; },
          PartsP + At);
    }
    ShardLoP[S] = At;
    assert(At == K && "shard split must cover the batch");
  }

  /// Group shard \p Sh's sub-span by source, building one (global id,
  /// sorted edge set) pair per distinct source into \p Pairs. \p Sub is
  /// mutable scratch. Depends only on the batch, never on the base epoch
  /// — this is why ingest() runs it before taking any lock.
  ///
  /// The grouping is a counting sort over local ids, O(K + M) for a batch
  /// of K edges whose largest local source id is M - 1. A batch far
  /// smaller than its id range (the paper's single-edge updates) sorts
  /// by comparison instead, O(K log K): counting would scan all M
  /// counters per batch. Both yield the same groups in the same order.
  ///
  /// The grouping scratch (counters, scatter buffer) is scoped to return
  /// to the per-worker cache before the tree merge runs: the merge's own
  /// chunk-op scratch must not contend with input-sized blocks checked
  /// out for the whole call (measurably slows the unions otherwise).
  void groupShard(size_t Sh, EdgePair *Sub, size_t K,
                  std::optional<GroupedBatchT<EdgeSet>> &Pairs,
                  std::vector<VertexId> *TouchedOut) const {
    // Dense local-id range of the batch (not of the shard): counters
    // cover only ids the batch names.
    VertexId MaxLocal = 0;
    for (size_t I = 0; I < K; ++I)
      MaxLocal = std::max(MaxLocal, localId(Sub[I].first));
    size_t M = size_t(MaxLocal) + 1;

    // Group layout: group G holds local source GLocal[G], its
    // destinations are Dst[GLo[G] .. GLo[G + 1]), and groups ascend by
    // local id (local order implies global order within a shard: global
    // id = local << LogShards | shard).
    size_t MaxGroups = std::min(K, M);
    CtxArray<uint32_t> GLoArr(MaxGroups + 1), GLocalArr(MaxGroups);
    uint32_t *GLo = GLoArr.data(), *GLocal = GLocalArr.data();
    CtxArray<VertexId> Dst(K);
    VertexId *DstP = Dst.data();
    size_t Groups = 0;
    // Sparse batch: K log K compares undercut the counting sort's passes
    // over M counters with a wide margin once M exceeds 16 K.
    if (K * 16 < M) {
      parallelSort(Sub, K);
      for (size_t I = 0; I < K; ++I) {
        DstP[I] = Sub[I].second;
        if (I == 0 || Sub[I].first != Sub[I - 1].first) {
          GLo[Groups] = uint32_t(I);
          GLocal[Groups++] = uint32_t(localId(Sub[I].first));
        }
      }
    } else {
      // Counting sort by local source id: Starts[l] = first slot of
      // group l after the exclusive scan; Pos[] advances in the scatter.
      CtxArray<uint32_t> Starts(M + 1);
      uint32_t *StartsP = Starts.data();
      std::memset(StartsP, 0, (M + 1) * sizeof(uint32_t));
      for (size_t I = 0; I < K; ++I)
        ++StartsP[localId(Sub[I].first) + 1];
      for (size_t L = 0; L < M; ++L)
        StartsP[L + 1] += StartsP[L];
      CtxArray<uint32_t> Pos(M);
      uint32_t *PosP = Pos.data();
      std::memcpy(PosP, StartsP, M * sizeof(uint32_t));
      for (size_t I = 0; I < K; ++I)
        DstP[PosP[localId(Sub[I].first)]++] = Sub[I].second;
      Groups = filterIndexInto(
          M, [](size_t L) { return uint32_t(L); },
          [&](size_t L) { return StartsP[L + 1] > StartsP[L]; }, GLocal);
      parallelFor(0, Groups, [&](size_t G) { GLo[G] = StartsP[GLocal[G]]; });
    }
    GLo[Groups] = uint32_t(K);

    // The per-group sort + set builds are independent, so they fill the
    // grouped batch in parallel by index; a skewed batch into one shard
    // then still fans out across cores instead of serializing here.
    Pairs.emplace(Groups);
    Pairs->setSize(Groups);
    VertexId ShardBits = VertexId(Sh);
    parallelFor(0, Groups, [&](size_t G) {
      uint32_t Lo = GLo[G], Hi = GLo[G + 1];
      size_t Len = Hi - Lo;
      if (Len >= 8192)
        parallelSort(DstP + Lo, Len);
      else
        std::sort(DstP + Lo, DstP + Hi);
      Len = size_t(std::unique(DstP + Lo, DstP + Hi) - (DstP + Lo));
      VertexId Global = (VertexId(GLocal[G]) << LogShards) | ShardBits;
      Pairs->emplaceAt(G, Global,
                       EdgeSet::buildSorted(DstP + Lo, Len, Params));
    });
    // The grouped keys double as the epoch's touched-vertex digest for
    // this shard (ascending local order implies ascending global order
    // within a shard).
    if (TouchedOut) {
      TouchedOut->resize(Groups);
      VertexId *TP = TouchedOut->data();
      parallelFor(0, Groups, [&](size_t G) {
        TP[G] = Pairs->data()[G].first;
      });
    }
  }

  /// The one ingest path (file comment, steps 1-4): split and group with
  /// no lock held, lock the touched shards in ascending order, then merge
  /// and install. Publishes one epoch advancing BatchSeq by one and
  /// returns its sequence number.
  uint64_t ingest(const EdgePair *Edges, size_t K, bool Insert) {
    size_t S = numShards();
    // Sized at construction: optional<GroupedBatchT> is not movable, so
    // the vector must never reallocate.
    std::vector<std::optional<GroupedBatchT<EdgeSet>>> Groups(S);
    std::vector<std::vector<VertexId>> Touched(S);
    CtxArray<uint8_t> TouchedSh(S);
    uint8_t *TouchedShP = TouchedSh.data();
    {
      // The split scratch returns to the per-worker cache before the
      // merge, whose chunk-op scratch must not contend with it.
      CtxArray<EdgePair> Parts(K);
      EdgePair *PartsP = Parts.data();
      CtxArray<size_t> ShardLo(S + 1);
      size_t *ShardLoP = ShardLo.data();
      splitByShard(Edges, K, PartsP, ShardLoP);
      parallelFor(0, S, [&](size_t Sh) {
        size_t Lo = ShardLoP[Sh], Hi = ShardLoP[Sh + 1];
        TouchedShP[Sh] = Hi > Lo;
        if (Hi > Lo)
          groupShard(Sh, PartsP + Lo, Hi - Lo, Groups[Sh], &Touched[Sh]);
      }, 1);
    }
    for (size_t Sh = 0; Sh < S; ++Sh)
      if (TouchedShP[Sh])
        ShardLocks[Sh].lock();
    return mergeInstall(Groups, Touched, TouchedShP, Edges, K, Insert);
  }

  /// Merge + install tail of ingest(). Preconditions: the shards flagged
  /// in \p TouchedShP are locked (ascending) and \p Groups/\p Touched hold
  /// their groups and digests; \p Edges/\p K is the original batch (the
  /// WAL payload). Publishes ONE epoch advancing BatchSeq by one, unlocks
  /// the shards and returns the new sequence number.
  uint64_t
  mergeInstall(std::vector<std::optional<GroupedBatchT<EdgeSet>>> &Groups,
               std::vector<std::vector<VertexId>> &Touched,
               const uint8_t *TouchedShP, const EdgePair *Edges, size_t K,
               bool Insert) {
    size_t S = numShards();
    // --- Merge: per-shard functional merges of the grouped batch, in
    // parallel (one writer per shard; concurrent batches on disjoint
    // shards overlap fully). ---
    using PerShard = typename std::aligned_storage<sizeof(Snapshot),
                                                   alignof(Snapshot)>::type;
    CtxArray<PerShard> MergedMem(S);
    Snapshot *Merged = reinterpret_cast<Snapshot *>(MergedMem.data());
    // The base epoch: acquired after the shard locks, so every touched
    // shard's value is its latest *committed* state (a predecessor holds
    // the shard lock until its install completes). Held until all locks
    // are dropped: releasing it earlier could make this writer reclaim a
    // superseded epoch while holding locks others wait on.
    Ref Base = acquire();
    parallelFor(0, S, [&](size_t Sh) {
      new (&Merged[Sh]) Snapshot(
          TouchedShP[Sh]
              ? (Insert ? Base.shard(Sh).insertGrouped(Groups[Sh]->data(),
                                                       Groups[Sh]->size())
                        : Base.shard(Sh).deleteGrouped(Groups[Sh]->data(),
                                                       Groups[Sh]->size()))
              : Snapshot());
    }, 1);

    // --- Install: publish a new epoch formed from the latest committed
    // epoch with the touched shards replaced. Only the O(S) vector copy
    // and pointer swap happen under the commit lock; the superseded
    // epoch's reclamation (freeing the replaced shards' tree delta) is
    // deferred until every lock is released, so concurrent
    // disjoint-shard writers never serialize behind it. ---
    uint64_t Seq;
    Ref Latest;
    DurabilityEngine::Ticket Tk;
    try {
      std::lock_guard<std::mutex> Lock(CommitM);
      Latest = acquire();
      Epoch Next;
      Next.Shards = Latest.epoch().Shards;
      for (size_t Sh = 0; Sh < S; ++Sh)
        if (TouchedShP[Sh])
          Next.Shards[Sh] = std::move(Merged[Sh]);
      Next.BatchSeq = Latest.epoch().BatchSeq + 1;
      finalizeAggregates(Next, Latest.epoch().Universe);
      Seq = Next.BatchSeq;
      // WAL append under the commit lock: file order = install order,
      // one record carrying the batch's original (unsorted, unsplit)
      // edges, so replay reproduces every acknowledged sequence number
      // exactly. The group commit itself happens after the locks are
      // released.
      if (Durable && !Recovering)
        Tk = Durable->append(Insert ? WalKind::InsertBatch
                                    : WalKind::DeleteBatch,
                             Seq, Edges, K);
      uint64_t DigestCap =
          uint64_t(Next.Universe) / FlatRefreshDenominator;
      Versions.set(std::move(Next));
      // Sparse per-shard digest (touched shards only). A digest above
      // the refresh threshold guarantees any replay span containing it
      // rebuilds; clearing skips the pointless replay on readers.
      ShardDigest Digest;
      uint64_t Total = 0;
      for (size_t Sh = 0; Sh < S; ++Sh)
        if (!Touched[Sh].empty()) {
          Total += Touched[Sh].size();
          Digest.emplace_back(uint32_t(Sh), std::move(Touched[Sh]));
        }
      if (Total <= DigestCap)
        Digests.record(Seq, std::move(Digest));
      else
        Digests.clear();
      PublishedSeqV.store(Seq, std::memory_order_release);
    } catch (...) {
      // A poisoned WAL (or an injected crash) must not strand the shard
      // locks or leak the merged snapshots: unwind cleanly, without
      // installing, and let the caller see the failure.
      for (size_t Sh = 0; Sh < S; ++Sh)
        Merged[Sh].~Snapshot();
      for (size_t Sh = S; Sh-- > 0;)
        if (TouchedShP[Sh])
          ShardLocks[Sh].unlock();
      throw;
    }
    for (size_t Sh = 0; Sh < S; ++Sh)
      Merged[Sh].~Snapshot();
    for (size_t Sh = S; Sh-- > 0;)
      if (TouchedShP[Sh])
        ShardLocks[Sh].unlock();
    // Superseded-epoch reclamation outside every lock.
    Base.reset();
    Latest.reset();
    if (Tk.Log) {
      Durable->sync(Tk); // acknowledged == durable
      checkpointIfDue(Seq);
    }
    return Seq;
  }

  /// Auto-checkpoint trigger (CheckpointEveryBatches): at most one
  /// ingest thread checkpoints at a time. A thread that finds the
  /// trigger held does NOT skip the due checkpoint — it latches
  /// CkptPending, and the holder drains the flag before quiescing (a
  /// plain try_lock-and-skip could starve the trigger forever under
  /// steady ingest: every acknowledger finds some peer holding the
  /// mutex and no one checkpoints). Invariant at quiescence:
  /// batchSeq() - lastCheckpointSeq() < CheckpointEveryBatches.
  void checkpointIfDue(uint64_t Seq) {
    uint64_t Every = Durable->options().CheckpointEveryBatches;
    if (!Every || Seq < Durable->lastCheckpointSeq() + Every)
      return;
    CkptPending.store(true, std::memory_order_release);
    while (CkptTriggerM.try_lock()) {
      {
        std::lock_guard<std::mutex> G(CkptTriggerM, std::adopt_lock);
        while (CkptPending.exchange(false, std::memory_order_acq_rel))
          if (batchSeq() >= Durable->lastCheckpointSeq() + Every)
            checkpointNow();
      }
      // A peer may have latched the flag after our drain but lost its
      // try_lock to us: re-check now that the mutex is free, else its
      // due checkpoint would wait for the next acknowledged batch.
      if (!CkptPending.load(std::memory_order_acquire))
        return;
    }
    // try_lock failed: the holder is inside the drain loop (or its own
    // post-unlock re-check) and will observe our flag.
  }

  size_t LogShards;
  VertexId Mask;
  typename EdgeSet::BuildParams Params{};
  std::unique_ptr<std::mutex[]> ShardLocks;
  std::mutex CommitM;
  VersionListT<Epoch> Versions;
  // Lock-free mirror of the published epoch's BatchSeq (stored under
  // CommitM, read by batchSeq() and the acquireFlat fast path).
  std::atomic<uint64_t> PublishedSeqV{0};

  // Incremental-checkpoint state (guarded by CkptStateM): the epoch of
  // the last written checkpoint, pinned so shard-root pointer identity
  // against it stays sound until the next checkpoint replaces the pin.
  std::mutex CkptStateM;
  Ref CkptEpoch;
  uint64_t CkptEpochSeq = 0;

  // Durability (nullptr on a memory-only store); Recovering gates the
  // WAL re-append while the constructor replays the recovered log.
  std::unique_ptr<DurabilityEngine> Durable;
  bool Recovering = false;
  std::mutex CkptTriggerM;
  std::atomic<bool> CkptPending{false};

  // Hot-flat maintenance state (DESIGN.md Section 4). The digest log is
  // keyed by BatchSeq (contiguous under the commit lock); the cached
  // flat serializes its refreshers on FlatM without ever blocking
  // writers, and current-epoch hits bypass FlatM entirely via the
  // atomic shared_ptr fast path.
  DeltaLogT<ShardDigest> Digests{FlatReplayMaxEpochs};
  mutable std::mutex FlatM;
  std::shared_ptr<const FlatEpoch> CachedFlat;
  FlatMaintenanceStats Stats;
  mutable std::atomic<uint64_t> FlatHitsV{0};
};

/// Default Aspen configuration: C-tree shards with difference encoding.
using ShardedGraphStore =
    ShardedGraphStoreT<CTreeSet<VertexId, DeltaByteCodec>>;
/// Degree-adaptive hybrid shards (graph/hybrid_set.h).
using HybridShardedGraphStore = ShardedGraphStoreT<HybridEdgeSet>;
using ShardedGraphView = ShardedGraphStore::View;
/// O(1)-vertex-access view over a hot flat epoch (acquireFlat()).
using ShardedFlatView = ShardedGraphStore::FlatView;

} // namespace aspen

#endif // ASPEN_STORE_SHARDED_GRAPH_H
