//===- graph/versioned_graph.h - acquire/set/release version maintenance --===//
//
// The Aspen version-maintenance interface (Section 6): a single writer
// installs new snapshots with set(); any number of concurrent readers
// acquire() and release() versions. Readers are never blocked by the
// writer and always see a consistent snapshot, giving strict
// serializability of queries with respect to update batches.
//
// This is the one-shard cut of the sharded store (store/sharded_graph.h):
// the adapter owns a ShardedGraphStoreT with one shard and forwards every
// call to it. A version is that store's epoch, its timestamp the epoch's
// BatchSeq, and its graph the epoch's only shard; the hot flat snapshot,
// durable open, WAL replay and checkpoints are the sharded store's own
// (DESIGN.md Sections 1, 4 and 7).
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_GRAPH_VERSIONED_GRAPH_H
#define ASPEN_GRAPH_VERSIONED_GRAPH_H

#include "store/sharded_graph.h"

#include <memory>

namespace aspen {

template <class EdgeSet> class VersionedGraphT {
  using Store = ShardedGraphStoreT<EdgeSet>;

public:
  using Flat = FlatSnapshotT<EdgeSet>;

  /// RAII handle to an acquired version; releasing is automatic.
  class Version {
  public:
    Version() = default;
    Version(Version &&) noexcept = default;
    Version &operator=(Version &&) noexcept = default;

    /// The immutable snapshot this version refers to.
    const GraphSnapshotT<EdgeSet> &graph() const { return R.shard(0); }

    /// Monotone timestamp of the version (batch sequence number).
    uint64_t timestamp() const { return R.batchSeq(); }

    bool valid() const { return R.valid(); }

    /// Explicit early release.
    void reset() { R.reset(); }

  private:
    friend class VersionedGraphT;
    explicit Version(typename Store::Ref R) : R(std::move(R)) {}
    typename Store::Ref R;
  };

  explicit VersionedGraphT(GraphSnapshotT<EdgeSet> Initial)
      : S(std::move(Initial)) {}

  /// Durable open (opt-in; DESIGN.md Section 7): the sharded store's
  /// recovery at one shard. A directory whose checkpoint holds more than
  /// one shard stream belongs to a sharded store and is refused.
  explicit VersionedGraphT(const DurabilityOptions &O,
                           typename EdgeSet::BuildParams P = {})
      : S(O, /*NumShards=*/1, /*N=*/0, P) {
    if (S.numShards() != 1)
      throw CorruptCheckpoint("versioned store expects one shard stream");
  }

  /// Acquire the latest version. Never blocked by the writer for more than
  /// the duration of a pointer swap.
  Version acquire() { return Version(S.acquire()); }

  /// Install a new snapshot as the current version (single writer). Atomic
  /// with respect to acquire(); the previous version survives until its
  /// last reader releases it. A raw set() records no touched digest, so
  /// the next acquireFlat() rebuilds, and it has no WAL record, so a
  /// durable store refuses it with std::logic_error.
  void set(GraphSnapshotT<EdgeSet> G) { S.installSnapshot(std::move(G)); }

  /// Writer convenience: functionally insert a batch and publish. On a
  /// durable store the batch is WAL-logged and group-committed before
  /// return: when this call returns, the batch survives a crash.
  void insertEdgesBatch(const std::vector<EdgePair> &Edges) {
    S.insertBatch(Edges);
  }

  /// Writer convenience: functionally delete a batch and publish.
  void deleteEdgesBatch(const std::vector<EdgePair> &Edges) {
    S.deleteBatch(Edges);
  }

  /// Sequence number of the latest installed version (diagnostic).
  int64_t currentTimestamp() const { return int64_t(S.batchSeq()); }

  /// Flat view of the latest version, O(1) vertex access: the sharded
  /// store's hot flat epoch, aliased to its only shard. Hold the
  /// shared_ptr for as long as the view is used.
  std::shared_ptr<const Flat> acquireFlat() {
    std::shared_ptr<const typename Store::FlatEpoch> FE = S.acquireFlat();
    const Flat *F = &FE->Flats[0];
    return {std::move(FE), F};
  }

  /// Rebuild/refresh/hit counters of acquireFlat() (diagnostics, tests).
  FlatMaintenanceStats flatStats() const { return S.flatStats(); }

  /// Durability engine of a durable store (nullptr on a memory-only
  /// store).
  const DurabilityEngine *durability() const { return S.durability(); }
  DurabilityEngine *durability() { return S.durability(); }

  /// Checkpoint the latest version (durable stores only); returns its
  /// batch sequence number.
  uint64_t checkpointNow() { return S.checkpointNow(); }

private:
  Store S;
};

using VersionedGraph = VersionedGraphT<CTreeSet<VertexId, DeltaByteCodec>>;
/// Degree-adaptive hybrid edge sets (graph/hybrid_set.h).
using VersionedHybridGraph = VersionedGraphT<HybridEdgeSet>;

} // namespace aspen

#endif // ASPEN_GRAPH_VERSIONED_GRAPH_H
