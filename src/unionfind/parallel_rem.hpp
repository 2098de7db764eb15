// Parallel REM union — the paper's Algorithm 8 (MERGER) plus a lock-free
// compare-and-swap variant for the merge-backend ablation.
//
// Both operate on the same flat parent array the sequential scan built.
// Shared accesses go through std::atomic_ref<Label> with relaxed ordering:
// the algorithm tolerates stale reads by construction (Patwary, Refsnes &
// Manne, IPDPS 2012 — paper reference [38]) and the OpenMP barrier ending
// the merge phase publishes all writes before FLATTEN runs, so relaxed is
// sufficient and compiles to plain loads/stores on x86. What atomic_ref
// buys is freedom from C++-level data-race UB, not extra synchronization.
//
// locked_unite (Algorithm 8): splicing steps run unlocked — each store
// writes a strictly smaller, same-component parent, so trees stay acyclic
// regardless of interleaving — while a *root*'s parent is only set under
// that root's stripe lock with a re-check, which is the one step that must
// not be lost (it is what actually joins two trees).
//
// cas_unite: replaces the root update with CAS (lock-free, at the cost of
// retrying contended updates) and advances each splice step with a CAS too,
// so a parent value can never grow back. It preserves the label-minima
// invariant FLATTEN depends on (DESIGN.md §11), so it is bit-identical to
// the locked merger through every labeler.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"
#include "unionfind/lock_pool.hpp"

namespace paremsp::uf {

/// Optional per-call accounting for the parallel backends. `joins` counts
/// root updates that actually merged two trees (same semantics as the
/// `joins` out-param of rem_unite — summed over a merge phase they equal
/// the number of cross-boundary components eliminated). `retries` counts
/// contention events: a lock-side re-check that found the root stolen, or
/// a failed root CAS — the direct observable for lock-pool striping and
/// the merge-backend ablation.
struct UniteStats {
  std::uint64_t joins = 0;
  std::uint64_t retries = 0;
};

namespace detail {

inline Label load(const Label* p, Label i) noexcept {
  return std::atomic_ref<const Label>(p[i]).load(std::memory_order_relaxed);
}

inline void store(Label* p, Label i, Label v) noexcept {
  std::atomic_ref<Label>(p[i]).store(v, std::memory_order_relaxed);
}

inline bool cas(Label* p, Label i, Label expected, Label desired) noexcept {
  return std::atomic_ref<Label>(p[i]).compare_exchange_strong(
      expected, desired, std::memory_order_relaxed);
}

}  // namespace detail

/// Parallel REM union with striped locks (paper Algorithm 8).
/// Safe to call concurrently from many threads on the same array.
///
/// Each iteration works from one snapshot read of both parents, so every
/// store writes a value strictly below the index it is stored at (py < px
/// <= rootx), keeping trees acyclic under any interleaving.
inline void locked_unite(Label* p, LockPool& locks, Label x, Label y,
                         UniteStats* stats = nullptr) noexcept {
  using detail::load;
  using detail::store;
  Label rootx = x;
  Label rooty = y;
  while (true) {
    const Label px = load(p, rootx);
    const Label py = load(p, rooty);
    if (px == py) return;
    if (px > py) {
      if (rootx == px) {  // rootx looked like a root: join under lock.
        bool success = false;
        {
          LockPool::Guard guard(locks, rootx);
          if (load(p, rootx) == rootx) {  // Re-check: still a root?
            store(p, rootx, py);
            success = true;
          }
        }
        if (success) {
          if (stats != nullptr) ++stats->joins;
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;  // Another thread re-parented rootx; re-examine.
      }
      store(p, rootx, py);  // Splice (unlocked; benign race, see header).
      rootx = px;
    } else {
      if (rooty == py) {
        bool success = false;
        {
          LockPool::Guard guard(locks, rooty);
          if (load(p, rooty) == rooty) {
            store(p, rooty, px);
            success = true;
          }
        }
        if (success) {
          if (stats != nullptr) ++stats->joins;
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;
      }
      store(p, rooty, px);
      rooty = py;
    }
  }
}

/// Lock-free parallel REM union: root updates and splice steps use CAS. A
/// failed root CAS simply re-reads; a failed splice CAS re-examines the
/// same node. Both walk cursors strictly decrease between retries, which
/// guarantees progress.
inline void cas_unite(Label* p, Label x, Label y,
                      UniteStats* stats = nullptr) noexcept {
  using detail::cas;
  using detail::load;
  Label rootx = x;
  Label rooty = y;
  while (true) {
    const Label px = load(p, rootx);
    const Label py = load(p, rooty);
    if (px == py) return;
    if (px > py) {
      if (rootx == px) {
        // A successful root CAS always joins two distinct trees: rootx was
        // a root (so every member of its tree is >= rootx, the REM
        // minimum-root invariant) and py < rootx lies in another tree.
        if (cas(p, rootx, px, py)) {
          if (stats != nullptr) ++stats->joins;
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;  // Lost the race; re-read and retry.
      }
      // Splice: only advance if our view of p[rootx] was current.
      if (cas(p, rootx, px, py)) rootx = px;
    } else {
      if (rooty == py) {
        if (cas(p, rooty, py, px)) {
          if (stats != nullptr) ++stats->joins;
          return;
        }
        if (stats != nullptr) ++stats->retries;
        continue;
      }
      if (cas(p, rooty, py, px)) rooty = py;
    }
  }
}

}  // namespace paremsp::uf
