#ifndef NEXT700_LOG_LOG_MANAGER_H_
#define NEXT700_LOG_LOG_MANAGER_H_

/// \file
/// Write-ahead logging with group commit and real durability. Workers
/// serialize their commit record into a shared buffer (one short critical
/// section — the serial log is itself a measured contention point, cf.
/// Aether); a dedicated flusher thread writes the buffer to the log device
/// every `flush_interval_us`, issues the configured durability barrier
/// (fdatasync / O_DSYNC), and only then advances the durable LSN, waking
/// transactions blocked in WaitDurable().
///
/// The log is a directory of append-only segments (`log.000000`,
/// `log.000001`, ...). Open() never truncates *committed* history: it
/// scans the existing segments, cuts a crash's torn frame off the tail of
/// the final one (and only a torn frame — complete-but-corrupt frames fail
/// Open), resumes the LSN space after the surviving bytes, and appends to
/// a fresh segment. The flusher rotates to a new segment once the current
/// one crosses `segment_bytes` (always on a frame boundary, so only the
/// final segment of a crashed log can carry a torn frame).
///
/// I/O errors are sticky: the flusher parks, durable_lsn_ stops advancing,
/// and every subsequent WaitDurable returns the error instead of the
/// process aborting. The physical backend is injectable (LogFileFactory)
/// so the crash-fault harness can tear writes and count barriers.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "log/log_file.h"
#include "log/log_record.h"

namespace next700 {

enum class LoggingKind {
  kNone,
  kValue,    // Full after-images (ARIES-style redo).
  kCommand,  // Procedure id + parameters (H-Store/VoltDB-style).
};

const char* LoggingKindName(LoggingKind kind);

/// How the flusher makes a flush durable before advancing durable_lsn_.
enum class LogSyncPolicy {
  kNone,       // No barrier: durability is a promise about the page cache.
  kFdatasync,  // fdatasync(2) after each physical flush.
  kODsync,     // Segments opened O_DSYNC: every write is its own barrier.
};

const char* LogSyncPolicyName(LogSyncPolicy policy);

using Lsn = uint64_t;

struct LogManagerOptions {
  /// Segment directory (created if missing). Replaces the old single-file
  /// `path`: opening no longer truncates previous segments.
  std::string dir;
  uint64_t flush_interval_us = 50;
  LogSyncPolicy sync_policy = LogSyncPolicy::kNone;
  /// Rotate to a new segment once the current one reaches this size.
  /// 0 = never rotate.
  uint64_t segment_bytes = 64ull << 20;
  /// Physical backend per segment; empty = PosixLogFile. The crashtest
  /// harness injects its fault backend here.
  LogFileFactory file_factory;
  /// Log-truncation bookkeeping, read from the checkpoint MANIFEST: the
  /// first segment index that is still live and the LSN of its first byte.
  /// Segments with a smaller index are a retired prefix — a crash between
  /// the manifest update and the unlinks can leave them behind, and Open()
  /// deletes them. Both default to 0: a never-truncated log.
  uint64_t base_index = 0;
  Lsn base_lsn = 0;
  /// Device submission path for the flusher. kAuto/kUring build a private
  /// uring (the staged flush and its barrier go down as one linked
  /// submission); kEpoll — and any kernel that refuses a ring under kAuto —
  /// keeps the synchronous write+fdatasync path, which is already batched
  /// by group commit. A custom file_factory always wins over the ring
  /// (fault injection interposes at the Append/Sync seam regardless of
  /// backend). kUring fails Open() loudly where unsupported.
  io::IoBackendKind io_backend = io::IoBackendKind::kAuto;
};

/// A fully written, frame-boundary-aligned segment that rotation has moved
/// past. Retirement unlinks sealed segments whose LSN range falls entirely
/// below a checkpoint's start LSN.
struct SealedSegment {
  uint64_t index = 0;
  std::string path;
  Lsn start_lsn = 0;
  Lsn end_lsn = 0;
};

class LogManager {
 public:
  explicit LogManager(LogManagerOptions options);
  ~LogManager();
  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Creates the segment directory if needed, truncates a torn crash tail
  /// off the final surviving segment (it is about to stop being final, and
  /// recovery tolerates a torn frame only there), resumes the LSN space
  /// after the surviving bytes, opens a fresh segment, and starts the
  /// flusher. Returns kCorruption — without truncating — if the final
  /// segment holds a complete frame with a bad checksum: that was flushed
  /// that way and may cover acked transactions.
  Status Open();

  /// Flushes outstanding records and stops the flusher. After Close(),
  /// io_status() reports whether the final flush reached the device.
  void Close();

  /// Appends one framed record; returns the LSN *after* the record (the
  /// point that must become durable for it to be stable).
  Lsn Append(LogRecordType type, const uint8_t* body, size_t body_len);
  Lsn Append(LogRecordType type, const std::vector<uint8_t>& body) {
    return Append(type, body.data(), body.size());
  }

  /// Appends pre-framed bytes verbatim — the replica-side mirror of
  /// Append(): a replica writes the primary's frame stream into its own log
  /// so both logs are byte-identical and share one LSN space. `data` must
  /// hold whole frames exactly as Append() would have produced them; the
  /// caller is responsible for having validated their checksums. Returns
  /// the LSN after the appended bytes.
  Lsn AppendRaw(const uint8_t* data, size_t len);

  /// Reads the durable frame stream covering [lsn_lo, min(lsn_hi,
  /// durable_lsn())) into `*out` and sets `*end_lsn` to the LSN after the
  /// last byte returned. `lsn_lo` must be a frame boundary; only whole
  /// frames are returned (the range is trimmed back to the last complete
  /// frame), so `*end_lsn` is a frame boundary too. Safe against concurrent
  /// appends, rotation, and retirement: the durable clamp is taken before
  /// the segment-table snapshot, segment files never move once named, and
  /// a segment retired mid-read surfaces as kNotFound — which also reports
  /// an `lsn_lo` below the retired prefix (the caller must re-bootstrap
  /// from a checkpoint instead of tailing the log). An empty result with
  /// *end_lsn == lsn_lo means nothing new is durable yet.
  Status ReadFramesInRange(Lsn lsn_lo, Lsn lsn_hi, std::vector<uint8_t>* out,
                           Lsn* end_lsn) const;

  /// Blocks until everything up to `lsn` reached the device. Returns OK
  /// only on real durability; kIOError (sticky) if the device failed, and
  /// kUnavailable if the log was closed before `lsn` became durable —
  /// Close() during an in-flight commit is not durability.
  Status WaitDurable(Lsn lsn);

  /// Sticky device status: the first flush error, or OK.
  Status io_status() const;

  /// Registers a callback the flusher invokes (from its own thread, outside
  /// every log mutex) after each successful flush, with the new durable
  /// LSN, and once more with the unchanged durable LSN when a device error
  /// parks the flusher (io_status() is the error by then). Used for
  /// group-commit-aware reply release: the network server defers client
  /// responses until the commit LSN is durable instead of blocking a worker
  /// in WaitDurable. The callback may itself call
  /// SetDurableCallback (re-registration is reentrancy-safe); from any
  /// other thread, SetDurableCallback returns only after an in-flight
  /// invocation finishes, making teardown race-free.
  void SetDurableCallback(std::function<void(Lsn)> callback);

  Lsn durable_lsn() const;
  Lsn appended_lsn() const;

  /// Physical flush count (group-commit effectiveness metric).
  uint64_t flush_count() const {
    return flush_count_.load(std::memory_order_relaxed);
  }

  /// Durability barriers issued (fdatasync calls, or O_DSYNC writes).
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }

  /// Segments this manager has opened for appending (rotation metric).
  uint64_t segments_opened() const {
    return segments_opened_.load(std::memory_order_relaxed);
  }

  /// write(2)-equivalent device operations issued across all segments —
  /// with flush_count(), the submissions-batched series (writes per
  /// physical flush should be ~1).
  uint64_t write_syscalls() const {
    return write_syscalls_.load(std::memory_order_relaxed);
  }

  /// The flusher's ring counters, or null when the log runs the
  /// synchronous (epoll-fallback) device path.
  const io::IoCounters* io_counters() const {
    return io_ == nullptr ? nullptr : &io_->counters();
  }

  /// "uring" when the flusher submits through a ring, else "sync".
  const char* io_backend_name() const {
    return io_ == nullptr ? "sync" : io_->name();
  }

  const std::string& dir() const { return options_.dir; }

  /// The (index, start LSN) of the segment that still holds bytes at or
  /// above `lsn` — what a checkpoint at `lsn` records as the log base in
  /// its MANIFEST before retiring the prefix. Falls back to the live
  /// segment when every sealed one is below `lsn`. Thread-safe.
  SealedSegment BaseAfterRetire(Lsn lsn) const;

  /// Unlinks every sealed segment whose bytes all fall below `lsn`, then
  /// fsyncs the log directory. Call only after the MANIFEST recording the
  /// matching base is durable: a crash mid-retirement then leaves stale
  /// below-base segments that the next Open() deletes. `between_unlinks`,
  /// when set, runs after each unlink (crash-harness hook). Thread-safe
  /// against the flusher's rotation.
  Status RetireSegmentsBelow(Lsn lsn,
                             const std::function<void()>& between_unlinks);

  /// Sealed (rotated-past) segments currently on disk, oldest first.
  std::vector<SealedSegment> sealed_segments() const;

 private:
  void FlusherLoop();
  /// Runs the durable callback (if any) on the flusher thread.
  void InvokeDurableCallback(Lsn durable);
  /// Rotate-if-needed + append + barrier for one flush.
  Status WriteAndSync(const std::vector<uint8_t>& batch);
  Status OpenSegment(uint64_t index);

  /// Folds the live file's write_count() delta into write_syscalls_;
  /// flusher-owned (also called on the cold Open/Close paths).
  void AccumulateDeviceWrites();

  LogManagerOptions options_;
  // Flusher-owned after Open() returns (Open hands them off by starting the
  // thread); no lock, and deliberately no TSA annotation — single-owner
  // hand-off is a happens-before edge, not a lock discipline.
  std::unique_ptr<LogFile> file_;
  std::unique_ptr<io::IoBackend> io_;  // Null = synchronous device path.
  uint64_t segment_index_ = 0;    // Flusher-owned after Open().
  uint64_t segment_written_ = 0;  // Bytes in the current segment.
  uint64_t file_writes_seen_ = 0;  // write_count() already accumulated.

  // Segment-table state shared between the flusher (rotation seals the old
  // live segment) and the checkpointer (retirement unlinks sealed ones).
  mutable Mutex segments_mu_;
  std::vector<SealedSegment> sealed_ GUARDED_BY(segments_mu_);  // Oldest 1st.
  uint64_t live_index_ GUARDED_BY(segments_mu_) = 0;  // Current live segment.
  Lsn live_start_lsn_ GUARDED_BY(segments_mu_) = 0;   // LSN of its 1st byte.

  // Serializes callback (re)registration against flusher invocation.
  Mutex callback_mu_;
  CondVar callback_cv_;
  std::function<void(Lsn)> durable_callback_ GUARDED_BY(callback_mu_);
  bool callback_running_ GUARDED_BY(callback_mu_) = false;
  // The flusher publishes its own id at startup, before the first durable
  // callback can run.
  std::thread::id flusher_tid_ GUARDED_BY(callback_mu_);

  // Append cursor (workers, short critical sections) and flusher-side state
  // live on separate cache lines: every committing worker bounces the
  // cursor's line, and the flusher's bookkeeping must not ride along.
  NEXT700_CACHE_ALIGNED mutable Mutex mu_;
  CondVar flushed_cv_;
  CondVar flusher_cv_;
  // Records appended but not yet written.
  std::vector<uint8_t> buffer_ GUARDED_BY(mu_);
  Lsn appended_lsn_ GUARDED_BY(mu_) = 0;
  Lsn durable_lsn_ GUARDED_BY(mu_) = 0;
  Status io_status_ GUARDED_BY(mu_);  // Sticky first device error.
  bool flusher_exited_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  // Open/Close-caller-owned (the API is single-threaded there); unshared,
  // so unannotated.
  bool running_ = false;

  NEXT700_CACHE_ALIGNED std::atomic<uint64_t> flush_count_{0};
  std::atomic<uint64_t> sync_count_{0};
  std::atomic<uint64_t> segments_opened_{0};
  std::atomic<uint64_t> write_syscalls_{0};

  std::thread flusher_;
};

}  // namespace next700

#endif  // NEXT700_LOG_LOG_MANAGER_H_
