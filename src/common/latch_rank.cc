#include "common/latch_rank.h"

#include <cstdio>
#include <cstdlib>

#ifdef NEXT700_DEBUG_LATCH_RANK
#include <execinfo.h>
#endif

namespace next700 {

const char* LatchRankName(LatchRank rank) {
  switch (rank) {
    case LatchRank::kNone:
      return "none";
    case LatchRank::kCatalog:
      return "catalog";
    case LatchRank::kTablePartition:
      return "table-partition";
    case LatchRank::kIndexRoot:
      return "index-root";
    case LatchRank::kIndexNode:
      return "index-node";
    case LatchRank::kWaitsForGraph:
      return "waits-for-graph";
    case LatchRank::kRow:
      return "row";
  }
  return "unknown";
}

#ifdef NEXT700_DEBUG_LATCH_RANK

namespace latch_rank {

namespace {

constexpr int kMaxHeld = 256;  // Bounded by write-set size in practice.
// Acquisition backtrace depth. Captured on every ranked acquisition, so the
// unwind cost is on the latch hot path of debug builds — keep it shallow.
constexpr int kMaxFrames = 8;

struct HeldLatch {
  const void* latch;
  LatchRank rank;
  void* frames[kMaxFrames];
  int num_frames;
};

struct ThreadHeldSet {
  HeldLatch held[kMaxHeld];
  int count = 0;
};

ThreadHeldSet& HeldSet() {
  thread_local ThreadHeldSet set;
  return set;
}

void PrintStack(void* const* frames, int num_frames) {
  backtrace_symbols_fd(const_cast<void* const*>(frames), num_frames,
                       /*fd=*/2);
}

[[noreturn]] void ReportViolation(const ThreadHeldSet& set, const void* latch,
                                  LatchRank rank) {
  std::fprintf(stderr,
               "latch-rank violation: acquiring %s(%d) latch %p while "
               "holding %d ranked latch(es)\n",
               LatchRankName(rank), static_cast<int>(rank), latch, set.count);
  std::fprintf(stderr, "--- acquiring thread stack ---\n");
  void* frames[kMaxFrames];
  const int n = backtrace(frames, kMaxFrames);
  PrintStack(frames, n);
  for (int i = 0; i < set.count; ++i) {
    const HeldLatch& held = set.held[i];
    std::fprintf(stderr, "--- held: %s(%d) latch %p, acquired at ---\n",
                 LatchRankName(held.rank), static_cast<int>(held.rank),
                 held.latch);
    PrintStack(held.frames, held.num_frames);
  }
  std::abort();
}

void Record(ThreadHeldSet* set, const void* latch, LatchRank rank) {
  if (set->count >= kMaxHeld) {
    std::fprintf(stderr,
                 "latch-rank checker: held-latch table overflow (%d)\n",
                 kMaxHeld);
    std::abort();
  }
  HeldLatch& slot = set->held[set->count++];
  slot.latch = latch;
  slot.rank = rank;
  slot.num_frames = backtrace(slot.frames, kMaxFrames);
}

}  // namespace

void OnAcquire(const void* latch, LatchRank rank) {
  if (rank == LatchRank::kNone) return;
  ThreadHeldSet& set = HeldSet();
  // Descending-or-equal acquisition order: the new rank may not exceed any
  // held rank. Equal ranks are legal (lock coupling, sorted write sets).
  for (int i = 0; i < set.count; ++i) {
    if (rank > set.held[i].rank) ReportViolation(set, latch, rank);
  }
  Record(&set, latch, rank);
}

void OnRelease(const void* latch) {
  ThreadHeldSet& set = HeldSet();
  // Releases are usually LIFO but crabbing releases ancestors first, so
  // scan from the top.
  for (int i = set.count - 1; i >= 0; --i) {
    if (set.held[i].latch == latch) {
      set.held[i] = set.held[set.count - 1];
      --set.count;
      return;
    }
  }
}

int HeldCount() { return HeldSet().count; }

}  // namespace latch_rank

#endif  // NEXT700_DEBUG_LATCH_RANK

}  // namespace next700
