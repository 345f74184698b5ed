#include "cc/lock_manager.h"

#include <new>
#include <thread>

#include "common/stats.h"

namespace next700 {

namespace {
// Liveness safety valve: a waiter that spins longer than this aborts
// itself. With correct deadlock handling this should never fire; it bounds
// the damage of pathological schedules on oversubscribed hosts.
constexpr uint64_t kWaitTimeoutNs = 2'000'000'000ull;

bool Conflicts(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

LockEntry* NewEntry(TxnContext* txn, LockMode mode, bool upgrade,
                    LockEntry::State state) {
  void* mem = txn->arena()->Allocate(sizeof(LockEntry));
  return new (mem) LockEntry(txn, mode, upgrade, state);
}
}  // namespace

LockManager::LockManager(DeadlockPolicy policy) : policy_(policy) {}

void LockManager::Unlink(Row* row, LockEntry* entry) {
  for (LockEntry** link = &row->lock_list; *link != nullptr;
       link = &(*link)->next) {
    if (*link == entry) {
      *link = entry->next;
      entry->next = nullptr;
      return;
    }
  }
}

void LockManager::GrantWaiters(Row* row) {
  size_t holders = 0;
  bool exclusive_held = false;
  LockEntry* last_holder = nullptr;
  LockEntry** link = &row->lock_list;
  for (; *link != nullptr && (*link)->granted(); link = &(*link)->next) {
    ++holders;
    last_holder = *link;
    exclusive_held |= last_holder->mode == LockMode::kExclusive;
  }
  while (*link != nullptr) {
    LockEntry* waiter = *link;
    if (waiter->is_upgrade) {
      // An upgrade at the head of the waiters blocks everything behind it.
      if (holders != 1 || last_holder->txn_id != waiter->txn_id) return;
      last_holder->mode = LockMode::kExclusive;
      exclusive_held = true;
      *link = waiter->next;
      waiter->next = nullptr;
      waiter->state.store(LockEntry::kGranted, std::memory_order_release);
      continue;
    }
    const bool blocked = waiter->mode == LockMode::kShared ? exclusive_held
                                                           : holders > 0;
    if (blocked) return;
    ++holders;
    last_holder = waiter;
    exclusive_held |= waiter->mode == LockMode::kExclusive;
    waiter->state.store(LockEntry::kGranted, std::memory_order_release);
    link = &waiter->next;
  }
}

void LockManager::CollectBlockers(Row* row, const LockEntry& self,
                                  std::vector<uint64_t>* out) {
  out->clear();
  // Granted entries precede every waiter, so this covers all holders.
  for (const LockEntry* e = row->lock_list; e != nullptr && e != &self;
       e = e->next) {
    if (e->txn_id != self.txn_id) out->push_back(e->txn_id);
  }
}

bool LockManager::WaitsForGraph::UpdateAndCheckCycle(
    uint64_t waiter, const std::vector<uint64_t>& holders) {
  SpinLatchGuard guard(&latch_);
  edges_[waiter] = holders;
  std::unordered_set<uint64_t> visited;
  for (uint64_t holder : holders) {
    if (HasPathTo(holder, waiter, &visited)) {
      // This request closed the cycle: it is the victim. Drop its edges
      // under the same latch so concurrent detectors cannot also see the
      // (now broken) cycle and kill a second transaction needlessly.
      edges_.erase(waiter);
      return true;
    }
  }
  return false;
}

bool LockManager::WaitsForGraph::HasPathTo(
    uint64_t from, uint64_t target,
    std::unordered_set<uint64_t>* visited) const {
  if (from == target) return true;
  if (!visited->insert(from).second) return false;
  auto it = edges_.find(from);
  if (it == edges_.end()) return false;
  for (uint64_t next : it->second) {
    if (HasPathTo(next, target, visited)) return true;
  }
  return false;
}

void LockManager::WaitsForGraph::Remove(uint64_t waiter) {
  SpinLatchGuard guard(&latch_);
  edges_.erase(waiter);
}

Status LockManager::Wait(TxnContext* txn, Row* row, LockEntry* entry) {
  if (txn->stats() != nullptr) ++txn->stats()->lock_waits;
  const uint64_t deadline = NowNanos() + kWaitTimeoutNs;
  std::vector<uint64_t> blockers;
  uint64_t spins = 0;
  for (;;) {
    if (entry->state.load(std::memory_order_acquire) == LockEntry::kGranted) {
      if (!entry->is_upgrade) txn->held_locks().push_back(row);
      if (policy_ == DeadlockPolicy::kDlDetect) graph_.Remove(txn->txn_id());
      return Status::OK();
    }
    ++spins;
    if ((spins & 63) == 0) {
      std::this_thread::yield();
    } else {
      CpuRelax();
    }

    const bool check_deadlock =
        policy_ == DeadlockPolicy::kDlDetect && (spins & 511) == 0;
    const bool timed_out = (spins & 1023) == 0 && NowNanos() > deadline;
    const bool wounded =
        policy_ == DeadlockPolicy::kWoundWait && txn->wounded();
    if (!check_deadlock && !timed_out && !wounded) continue;

    bool victim = timed_out || wounded;
    if (check_deadlock && !victim) {
      row->Latch();
      if (entry->granted()) {
        row->Unlatch();
        continue;
      }
      CollectBlockers(row, *entry, &blockers);
      row->Unlatch();
      victim = graph_.UpdateAndCheckCycle(txn->txn_id(), blockers);
    }
    if (!victim) continue;

    // Abort this request: dequeue unless a grant raced us.
    row->Latch();
    if (entry->granted()) {
      row->Unlatch();
      continue;  // Grant won the race; take the lock after all.
    }
    Unlink(row, entry);
    // An upgrade waiter keeps its original shared lock; nothing to undo.
    // Removing a waiter can unblock those behind it (e.g. an aborted X
    // waiter that separated two groups of S waiters).
    GrantWaiters(row);
    row->Unlatch();
    if (policy_ == DeadlockPolicy::kDlDetect) graph_.Remove(txn->txn_id());
    if (wounded) return Status::Aborted("wounded by older transaction");
    return Status::Aborted(timed_out ? "lock wait timeout" : "deadlock");
  }
}

bool LockManager::MustDie(Row* row, const TxnContext& txn, LockMode mode,
                          bool upgrade) {
  for (const LockEntry* e = row->lock_list; e != nullptr; e = e->next) {
    if (e->txn_id == txn.txn_id()) continue;
    const bool blocks = e->granted() ? Conflicts(mode, e->mode) : !upgrade;
    if (blocks && txn.ts() >= e->ts) return true;
  }
  return false;
}

void LockManager::WoundYoungerConflicts(Row* row, TxnContext* txn,
                                        LockMode mode) {
  // Wound-wait: the older requester marks every younger conflicting holder
  // (and younger queued waiter) for death, then waits. Victims notice at
  // their next lock operation or inside their wait loop. A victim that has
  // already entered commit finishes and releases normally — it never waits
  // again, so deadlock freedom is preserved either way.
  for (LockEntry* e = row->lock_list; e != nullptr; e = e->next) {
    if (e->txn_id == txn->txn_id()) continue;
    const bool conflicts = !e->granted() || Conflicts(mode, e->mode);
    if (conflicts && e->ts > txn->ts()) e->txn->set_wounded();
  }
}

Status LockManager::Acquire(TxnContext* txn, Row* row, LockMode mode) {
  row->Latch();
  // One pass over the granted prefix finds this transaction's own entry and
  // any conflicting holder; `waiters` ends on the link to the first waiter.
  LockEntry* own = nullptr;
  bool conflict = false;
  LockEntry** waiters = &row->lock_list;
  for (; *waiters != nullptr && (*waiters)->granted();
       waiters = &(*waiters)->next) {
    LockEntry* holder = *waiters;
    if (holder->txn_id == txn->txn_id()) {
      own = holder;
    } else if (Conflicts(mode, holder->mode)) {
      conflict = true;
    }
  }

  if (own != nullptr) {
    if (own->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      row->Unlatch();
      return Status::OK();  // Already held at sufficient strength.
    }
    // Upgrade S -> X: every other holder conflicts with X.
    if (!conflict) {
      own->mode = LockMode::kExclusive;
      row->Unlatch();
      return Status::OK();
    }
    if (policy_ == DeadlockPolicy::kNoWait) {
      row->Unlatch();
      return Status::Aborted("upgrade conflict (no-wait)");
    }
    if (policy_ == DeadlockPolicy::kWaitDie &&
        MustDie(row, *txn, mode, /*upgrade=*/true)) {
      row->Unlatch();
      return Status::Aborted("upgrade conflict (wait-die: die)");
    }
    if (policy_ == DeadlockPolicy::kWoundWait) {
      WoundYoungerConflicts(row, txn, mode);
    }
    // Upgrades go to the head of the waiters: they hold a shared lock
    // already, so nothing behind them can be granted until they finish.
    LockEntry* entry =
        NewEntry(txn, mode, /*upgrade=*/true, LockEntry::kWaiting);
    entry->next = *waiters;
    *waiters = entry;
    row->Unlatch();
    return Wait(txn, row, entry);
  }

  if (*waiters == nullptr && !conflict) {
    *waiters = NewEntry(txn, mode, /*upgrade=*/false, LockEntry::kGranted);
    row->Unlatch();
    txn->held_locks().push_back(row);
    return Status::OK();
  }

  if (policy_ == DeadlockPolicy::kNoWait) {
    row->Unlatch();
    return Status::Aborted("lock conflict (no-wait)");
  }
  if (policy_ == DeadlockPolicy::kWaitDie &&
      MustDie(row, *txn, mode, /*upgrade=*/false)) {
    row->Unlatch();
    return Status::Aborted("lock conflict (wait-die: die)");
  }
  if (policy_ == DeadlockPolicy::kWoundWait) {
    WoundYoungerConflicts(row, txn, mode);
  }

  LockEntry** tail = waiters;
  while (*tail != nullptr) tail = &(*tail)->next;
  LockEntry* entry =
      NewEntry(txn, mode, /*upgrade=*/false, LockEntry::kWaiting);
  *tail = entry;
  row->Unlatch();
  return Wait(txn, row, entry);
}

void LockManager::ReleaseAll(TxnContext* txn) {
  for (Row* row : txn->held_locks()) {
    row->Latch();
    // The only entry this transaction can have here is its granted one: it
    // waits on one row at a time, and a finished upgrade request is
    // unlinked when granted or abandoned.
    for (LockEntry** link = &row->lock_list; *link != nullptr;
         link = &(*link)->next) {
      if ((*link)->txn_id == txn->txn_id()) {
        *link = (*link)->next;
        break;
      }
    }
    GrantWaiters(row);
    row->Unlatch();
  }
  txn->held_locks().clear();
}

}  // namespace next700
