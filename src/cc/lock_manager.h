#ifndef NEXT700_CC_LOCK_MANAGER_H_
#define NEXT700_CC_LOCK_MANAGER_H_

/// \file
/// Row lock manager backing the 2PL family (NO_WAIT / WAIT_DIE /
/// WOUND_WAIT / DL_DETECT). Lock state lives in the row itself, in the
/// DBx1000 per-tuple layout: `Row::lock_list` heads one list of LockEntry
/// records, granted entries first and FIFO waiters after them, guarded by
/// the row's mini-latch. Entries are bump-allocated from the requesting
/// transaction's arena, so a lock or release never touches the heap and
/// lock memory is O(held locks). Waiters spin on their own entry's state,
/// which a releaser flips under the row latch.
///
/// Deadlock handling is the pluggable part:
///   * kNoWait  — any conflict aborts the requester immediately.
///   * kWaitDie — the requester may wait only if it is older (smaller
///                begin timestamp) than every conflicting owner; younger
///                requesters die. Waits-on-older never happens, so the
///                wait graph is acyclic by construction.
///   * kWoundWait — older requesters *wound* (asynchronously kill) younger
///                conflicting holders and wait for them to clean up;
///                younger requesters wait. Waits go younger-on-older only,
///                so the graph is again acyclic, and — unlike wait-die —
///                old transactions never abort.
///   * kDlDetect — requesters wait and publish waits-for edges into a
///                global graph; a DFS from the requester detects cycles and
///                aborts the requester that closed the cycle.

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "common/thread_safety.h"
#include "storage/row.h"
#include "txn/txn.h"

namespace next700 {

enum class LockMode : uint8_t { kShared, kExclusive };

enum class DeadlockPolicy { kNoWait, kWaitDie, kWoundWait, kDlDetect };

/// One lock request on a row: a granted lock or a queued waiter. Linked
/// into Row::lock_list under the row latch. The memory comes from the
/// requester's arena, which is rewound only by TxnContext::Reset() — after
/// ReleaseAll has unlinked every entry of the transaction.
struct LockEntry {
  enum State : uint8_t { kWaiting = 0, kGranted = 1 };

  LockEntry(TxnContext* owner, LockMode lock_mode, bool upgrade, State init)
      : txn_id(owner->txn_id()),
        ts(owner->ts()),
        txn(owner),
        mode(lock_mode),
        is_upgrade(upgrade),
        state(init) {}

  /// Reads the state under the row latch (grants are made under it).
  bool granted() const {
    return state.load(std::memory_order_relaxed) == kGranted;
  }

  uint64_t txn_id;
  Timestamp ts;
  TxnContext* txn;  // For wounding; valid while the entry is linked.
  LockEntry* next = nullptr;
  LockMode mode;
  /// S->X request of a transaction that holds a granted S entry on the
  /// same row. Granting it raises that entry to X and unlinks this one.
  bool is_upgrade;
  /// kWaiting -> kGranted by a releaser; a waiter spins on it.
  std::atomic<uint8_t> state;
};

class LockManager {
 public:
  explicit LockManager(DeadlockPolicy policy);
  ~LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires (or upgrades to) `mode` on `row` for `txn`, blocking per the
  /// deadlock policy. Returns kAborted when the policy kills the request.
  /// Records the row in txn->held_locks() on first acquisition.
  Status Acquire(TxnContext* txn, Row* row, LockMode mode);

  /// Releases every lock held by `txn` and wakes eligible waiters. Leaves
  /// no entry of `txn` in any row's lock list.
  void ReleaseAll(TxnContext* txn);

  DeadlockPolicy policy() const { return policy_; }

 private:
  /// Global waits-for graph for kDlDetect.
  class WaitsForGraph {
   public:
    /// Replaces `waiter`'s out-edges and reports whether a cycle through
    /// `waiter` now exists.
    bool UpdateAndCheckCycle(uint64_t waiter,
                             const std::vector<uint64_t>& holders);
    void Remove(uint64_t waiter);

   private:
    bool HasPathTo(uint64_t from, uint64_t target,
                   std::unordered_set<uint64_t>* visited) const
        REQUIRES(latch_);

    SpinLatch latch_{LatchRank::kWaitsForGraph};
    std::unordered_map<uint64_t, std::vector<uint64_t>> edges_
        GUARDED_BY(latch_);
  };

  static void Unlink(Row* row, LockEntry* entry) REQUIRES(row);

  /// Grants waiters that have become compatible (FIFO, upgrades first).
  static void GrantWaiters(Row* row) REQUIRES(row);

  /// Collects txn-ids `self` would wait on: other holders and the waiters
  /// queued ahead of it.
  static void CollectBlockers(Row* row, const LockEntry& self,
                              std::vector<uint64_t>* out) REQUIRES(row);

  Status Wait(TxnContext* txn, Row* row, LockEntry* entry);

  /// Wait-die: whether `txn` must die instead of waiting, i.e. whether an
  /// entry it would wait on is not younger. An upgrade waits only on the
  /// other holders; a new request also waits on every queued waiter.
  static bool MustDie(Row* row, const TxnContext& txn, LockMode mode,
                      bool upgrade) REQUIRES(row);

  /// Wound-wait: marks younger conflicting holders and younger waiters for
  /// death.
  static void WoundYoungerConflicts(Row* row, TxnContext* txn, LockMode mode)
      REQUIRES(row);

  DeadlockPolicy policy_;
  WaitsForGraph graph_;
};

}  // namespace next700

#endif  // NEXT700_CC_LOCK_MANAGER_H_
