//===- algorithms/mis.h - Maximal independent set --------------------------===//
//
// Parallel MIS with random priorities (Luby-style, as in the paper's MIS
// of Section 7): in each round every undecided vertex whose hash priority
// beats all undecided neighbors joins the set; its neighbors leave. The
// decision and removal phases are separated so each round's result is
// independent of scheduling; the removal phase's concurrent reads and
// writes of a shared neighbor's state are relaxed atomics. Expected
// O(log n) rounds.
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_ALGORITHMS_MIS_H
#define ASPEN_ALGORITHMS_MIS_H

#include "ligra/vertex_subset.h"
#include "memory/algo_context.h"
#include "parallel/primitives.h"
#include "util/hash.h"

#include <atomic>
#include <vector>

namespace aspen {

enum class MisState : uint8_t { Undecided, In, Out };

/// Compute a maximal independent set using workspace \p Ctx; returns
/// per-vertex membership flags.
template <class GView>
std::vector<uint8_t> mis(const GView &G, AlgoContext &Ctx,
                         uint64_t Seed = 0x9e3779b9) {
  VertexId N = G.numVertices();
  CtxArray<std::atomic<MisState>> StateMem(Ctx, N);
  std::atomic<MisState> *State = StateMem.data();
  parallelFor(0, N, [&](size_t I) {
    new (&State[I]) std::atomic<MisState>(MisState::Undecided);
  });
  auto Get = [&](VertexId V) {
    return State[V].load(std::memory_order_relaxed);
  };
  auto Set = [&](VertexId V, MisState X) {
    State[V].store(X, std::memory_order_relaxed);
  };
  auto Priority = [&](VertexId V) { return hashAt(Seed, V); };

  // Active list of still-undecided vertices; double-buffered because the
  // shrink pass cannot pack in place while other blocks still read it.
  CtxArray<VertexId> ActiveA(Ctx, N), ActiveB(Ctx, N);
  CtxArray<uint8_t> Winner(Ctx, N);
  VertexId *Active = ActiveA.data(), *NextActive = ActiveB.data();
  parallelFor(0, N, [&](size_t I) { Active[I] = VertexId(I); });
  size_t ActiveSize = N;

  while (ActiveSize > 0) {
    // Phase 1: decide winners (read-only on State).
    parallelFor(0, ActiveSize, [&](size_t I) {
      VertexId V = Active[I];
      uint64_t PV = Priority(V);
      bool IsMax = true;
      G.iterNeighborsCond(V, [&](VertexId U) {
        if (Get(U) != MisState::Out && U != V) {
          uint64_t PU = Priority(U);
          if (PU > PV || (PU == PV && U > V)) {
            IsMax = false;
            return false;
          }
        }
        return true;
      });
      Winner[I] = IsMax ? 1 : 0;
    }, 16);
    // Phase 2: commit winners.
    parallelFor(0, ActiveSize, [&](size_t I) {
      if (Winner[I])
        Set(Active[I], MisState::In);
    });
    // Phase 3: remove neighbors of winners.
    parallelFor(0, ActiveSize, [&](size_t I) {
      if (!Winner[I])
        return;
      G.iterNeighborsCond(Active[I], [&](VertexId U) {
        // Several winners may share U: every writer stores Out.
        if (Get(U) == MisState::Undecided)
          Set(U, MisState::Out);
        return true;
      });
    }, 16);
    // Phase 4: shrink the active set into the other buffer.
    ActiveSize = filterIndexInto(
        ActiveSize, [&](size_t I) { return Active[I]; },
        [&](size_t I) { return Get(Active[I]) == MisState::Undecided; },
        NextActive);
    std::swap(Active, NextActive);
  }

  return tabulate(size_t(N), [&](size_t I) {
    return uint8_t(Get(VertexId(I)) == MisState::In ? 1 : 0);
  });
}

template <class GView>
std::vector<uint8_t> mis(const GView &G, uint64_t Seed = 0x9e3779b9) {
  AlgoContext Ctx;
  return mis(G, Ctx, Seed);
}

} // namespace aspen

#endif // ASPEN_ALGORITHMS_MIS_H
