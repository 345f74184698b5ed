#ifndef NEXT700_STORAGE_ROW_H_
#define NEXT700_STORAGE_ROW_H_

/// \file
/// In-memory row slots. Every row carries one header shared by all
/// concurrency-control plugins; each scheme uses only the fields it needs,
/// which keeps the plugins stateless and lets one storage layout serve the
/// whole design space (the "composability" the keynote calls for):
///
///   * tid_word — Silo/TicToc packed word (lock bit + version/timestamps).
///   * rts/wts  — timestamp-ordering read/write timestamps.
///   * chain    — newest-first multi-version chain head (MVTO).
///   * lock_list — 2PL per-tuple lock list (granted entries, then waiters).
///   * mini-latch — short critical sections for T/O and MVTO installs, and
///                  the guard of `lock_list` for the 2PL family.

#include <atomic>
#include <cstdint>

#include "common/latch.h"
#include "common/macros.h"
#include "common/thread_safety.h"
#include "common/timestamp.h"

namespace next700 {

class Table;
struct LockEntry;

/// One entry of a newest-first version chain (multi-version schemes).
struct Version {
  Timestamp wts = kInvalidTimestamp;     // Creation timestamp.
  std::atomic<Timestamp> rts{0};         // Largest reader timestamp.
  std::atomic<bool> committed{false};
  bool is_delete = false;                // Version is a tombstone.
  uint64_t writer_id = 0;                // Owning txn while uncommitted.
  Version* next = nullptr;               // Older version.
  // Payload of Schema::row_size() bytes follows the struct.

  uint8_t* data() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* data() const {
    return reinterpret_cast<const uint8_t*>(this + 1);
  }

  static Version* Allocate(uint32_t payload_size);
  static void Free(void* v);
};

/// Row flags (plain bitmask in `flags`).
inline constexpr uint8_t kRowDeleted = 1u << 0;
/// Set while the slot sits on a table free list (aborted insert).
inline constexpr uint8_t kRowFree = 1u << 1;

// The row is its own capability: the mini-latch guards T/O and MVTO
// installs and the 2PL lock list. The timestamp/version fields stay
// unannotated because they are atomics read lock-free by concurrent readers
// and written under the latch — a mixed discipline GUARDED_BY cannot
// express. The header is exactly one cache line (static_assert below).
struct CAPABILITY("row") Row {
  // --- Concurrency-control metadata ------------------------------------
  std::atomic<uint64_t> tid_word{0};  // Silo/TicToc packed word.
  std::atomic<Timestamp> wts{0};      // T/O write timestamp.
  std::atomic<Timestamp> rts{0};      // T/O read timestamp.
  std::atomic<Version*> chain{nullptr};

  // --- Identity ----------------------------------------------------------
  Table* table = nullptr;
  uint64_t primary_key = 0;  // Encoded key; used by logging and recovery.
  uint32_t partition = 0;
  std::atomic<uint8_t> flags{0};

  // Byte-sized test-and-set latch guarding T/O & MVTO metadata+payload and
  // the 2PL lock list.
  std::atomic<uint8_t> mini_latch{0};

  // 2PL lock list: granted entries first, then FIFO waiters (an upgrade
  // waits at the head of the waiters). Entries live in the requesting
  // transactions' arenas; see cc/lock_manager.h.
  LockEntry* lock_list GUARDED_BY(this) = nullptr;

  uint8_t* data() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* data() const {
    return reinterpret_cast<const uint8_t*>(this + 1);
  }

  void Latch() ACQUIRE() {
    latch_rank::OnAcquire(&mini_latch, LatchRank::kRow);
    while (mini_latch.exchange(1, std::memory_order_acquire) != 0) {
      CpuRelax();
    }
    NEXT700_TSAN_ACQUIRE(&mini_latch);
  }
  bool TryLatch() TRY_ACQUIRE(true) {
    if (mini_latch.exchange(1, std::memory_order_acquire) == 0) {
      latch_rank::OnAcquire(&mini_latch, LatchRank::kRow);
      NEXT700_TSAN_ACQUIRE(&mini_latch);
      return true;
    }
    return false;
  }
  void Unlatch() RELEASE() {
    latch_rank::OnRelease(&mini_latch);
    NEXT700_TSAN_RELEASE(&mini_latch);
    mini_latch.store(0, std::memory_order_release);
  }

  bool deleted() const {
    return (flags.load(std::memory_order_acquire) & kRowDeleted) != 0;
  }
  void set_deleted(bool on) {
    if (on) {
      flags.fetch_or(kRowDeleted, std::memory_order_release);
    } else {
      flags.fetch_and(static_cast<uint8_t>(~kRowDeleted),
                      std::memory_order_release);
    }
  }
};

// One cache line: a wider header costs every table's load time and memory.
static_assert(sizeof(Row) == 64, "Row header must stay one cache line");

/// RAII row mini-latch guard.
class SCOPED_CAPABILITY RowLatchGuard {
 public:
  explicit RowLatchGuard(Row* row) ACQUIRE(row) : row_(row) { row_->Latch(); }
  ~RowLatchGuard() RELEASE() { row_->Unlatch(); }
  RowLatchGuard(const RowLatchGuard&) = delete;
  RowLatchGuard& operator=(const RowLatchGuard&) = delete;

 private:
  Row* row_;
};

}  // namespace next700

#endif  // NEXT700_STORAGE_ROW_H_
