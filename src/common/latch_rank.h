#ifndef NEXT700_COMMON_LATCH_RANK_H_
#define NEXT700_COMMON_LATCH_RANK_H_

/// \file
/// Debug-mode latch-rank (lock-order) enforcement.
///
/// Every physical latch in the engine belongs to one level of a global
/// hierarchy (catalog above table above index node above the waits-for
/// graph above row). A thread may only acquire latches in descending rank order;
/// acquiring a latch whose rank is *higher* than one it already holds is a
/// potential deadlock-by-inversion and aborts the process with the stack of
/// the offending acquisition plus the recorded acquisition stacks of every
/// latch the thread holds. Acquiring at an *equal* rank is allowed: lock
/// coupling in the B+-tree (parent then child) and the sorted write-set
/// locking of Silo/TicToc both legitimately hold several same-rank latches.
///
/// The checker is compiled in only when NEXT700_DEBUG_LATCH_RANK is defined
/// (the `debug` CMake preset turns it on); otherwise every hook collapses to
/// nothing and latches behave exactly as before. Latches constructed with
/// LatchRank::kNone are exempt — only latches that opted into the hierarchy
/// are tracked, so long-duration logical locks (e.g. H-Store partition
/// locks) stay out of the protocol.

#include <cstdint>

namespace next700 {

/// Hierarchy levels, highest first. Acquisition must be monotonically
/// non-increasing per thread. Gaps leave room for future levels.
enum class LatchRank : int16_t {
  kNone = 0,  // Exempt from checking.

  kCatalog = 700,
  kTablePartition = 600,
  kIndexRoot = 510,  // B+-tree root pointer latch, above interior nodes.
  kIndexNode = 500,
  kWaitsForGraph = 350,  // DL_DETECT global graph latch.
  kRow = 200,  // tidword word-locks and the row mini-latch (2PL lock list).
};

/// Human-readable name for diagnostics.
const char* LatchRankName(LatchRank rank);

namespace latch_rank {

#ifdef NEXT700_DEBUG_LATCH_RANK

/// Checks `rank` against the calling thread's held set and records the
/// acquisition (with a captured backtrace). Aborts on a rank inversion.
/// kNone acquisitions are ignored.
void OnAcquire(const void* latch, LatchRank rank);

/// Removes `latch` from the calling thread's held set (no-op if absent,
/// which happens for latches acquired before the checker saw them).
void OnRelease(const void* latch);

/// Number of ranked latches the calling thread currently holds (tests).
int HeldCount();

/// Test hook: when set, OnAcquire reports a violation by calling
/// std::abort() after printing, exactly as in production — death tests
/// assert on the printed report.
inline constexpr bool kEnabled = true;

#else

inline void OnAcquire(const void*, LatchRank) {}
inline void OnRelease(const void*) {}
inline int HeldCount() { return 0; }
inline constexpr bool kEnabled = false;

#endif  // NEXT700_DEBUG_LATCH_RANK

}  // namespace latch_rank

}  // namespace next700

#endif  // NEXT700_COMMON_LATCH_RANK_H_
