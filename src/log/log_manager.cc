#include "log/log_manager.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/macros.h"

namespace next700 {

const char* LoggingKindName(LoggingKind kind) {
  switch (kind) {
    case LoggingKind::kNone:
      return "none";
    case LoggingKind::kValue:
      return "value";
    case LoggingKind::kCommand:
      return "command";
  }
  return "unknown";
}

const char* LogSyncPolicyName(LogSyncPolicy policy) {
  switch (policy) {
    case LogSyncPolicy::kNone:
      return "none";
    case LogSyncPolicy::kFdatasync:
      return "fdatasync";
    case LogSyncPolicy::kODsync:
      return "odsync";
  }
  return "unknown";
}

LogManager::LogManager(LogManagerOptions options)
    : options_(std::move(options)) {}

LogManager::~LogManager() { Close(); }

void LogManager::AccumulateDeviceWrites() {
  if (file_ == nullptr) return;
  const uint64_t now = file_->write_count();
  write_syscalls_.fetch_add(now - file_writes_seen_,
                            std::memory_order_relaxed);
  file_writes_seen_ = now;
}

Status LogManager::OpenSegment(uint64_t index) {
  // A custom factory (fault injection, RawWrite shims) always wins: its
  // Append/Sync overrides are the crashtest seam and must interpose no
  // matter which submission backend is configured. Otherwise, a resolved
  // ring gets the linked-submission device.
  file_ = options_.file_factory ? options_.file_factory()
          : io_ != nullptr     ? std::make_unique<UringLogFile>()
                               : std::make_unique<PosixLogFile>();
  file_writes_seen_ = 0;
  NEXT700_RETURN_IF_ERROR(
      file_->Open(LogSegmentPath(options_.dir, index),
                  options_.sync_policy == LogSyncPolicy::kODsync));
  // The segment's directory entry must be durable before any write to it
  // is acked: fdatasync/O_DSYNC cover the file's data, not the entry that
  // names it, and a vanished segment loses every txn acked against it.
  NEXT700_RETURN_IF_ERROR(SyncDir(options_.dir));
  segment_index_ = index;
  segment_written_ = 0;
  segments_opened_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status LogManager::Open() {
  NEXT700_CHECK(!running_);
  // Resolve the device submission path before the first segment opens.
  // kAuto degrades to the synchronous path quietly; explicit kUring does
  // not — a CI job asking for the ring must not silently test without it.
  // A custom file_factory (the crash-fault seam) always supplies the
  // device, so no ring is built for it to ignore.
  io_.reset();
  if (options_.file_factory == nullptr &&
      options_.io_backend != io::IoBackendKind::kEpoll) {
    std::unique_ptr<io::IoBackend> ring;
    const Status ring_status =
        io::CreateIoBackend(io::IoBackendKind::kUring, &ring);
    if (ring_status.ok()) {
      io_ = std::move(ring);
    } else if (options_.io_backend == io::IoBackendKind::kUring) {
      return ring_status;
    }
  }
  NEXT700_RETURN_IF_ERROR(EnsureLogDir(options_.dir));
  // Resume the LSN space after the surviving history instead of truncating
  // it: recovery replays those segments, and our frames land after them.
  std::vector<LogSegment> history;
  NEXT700_RETURN_IF_ERROR(ListLogSegments(options_.dir, &history));
  if (options_.base_index > 0) {
    // Segments below the manifest's base are a retired prefix; a crash
    // between the manifest update and the unlinks leaves them behind.
    // Finish the job here — their LSN range is fully covered by the
    // checkpoint, so deleting them loses nothing.
    bool removed_stale = false;
    size_t keep = 0;
    for (size_t i = 0; i < history.size(); ++i) {
      if (history[i].index < options_.base_index) {
        ::unlink(history[i].path.c_str());
        removed_stale = true;
      } else {
        if (keep != i) history[keep] = std::move(history[i]);
        ++keep;
      }
    }
    history.resize(keep);
    if (removed_stale) NEXT700_RETURN_IF_ERROR(SyncDir(options_.dir));
  }
  if (!history.empty()) {
    // A crash can leave a torn frame only at the tail of the final
    // segment. Cut it off *now*: once we append a new segment, that
    // segment is no longer final, and recovery would report its crash
    // tail as corruption — permanently, for every later replay. A
    // complete frame with a bad checksum is real damage, never a torn
    // write; refuse to resume over it rather than silently truncate
    // acked transactions.
    LogSegment& last = history.back();
    uint64_t valid = 0;
    NEXT700_RETURN_IF_ERROR(ScanValidFramePrefix(last.path, &valid));
    if (valid < last.bytes) {
      NEXT700_RETURN_IF_ERROR(TruncateLogSegment(last.path, valid));
      last.bytes = valid;
    }
  }
  // Cumulative LSNs start at the manifest's base, not 0: retirement may
  // have deleted a prefix of the segment chain, but the LSN space (and the
  // frames recovery skips below a checkpoint's start_lsn) must not shift.
  Lsn cursor = options_.base_lsn;
  uint64_t next_index = options_.base_index;
  {
    MutexLock seg_lock(&segments_mu_);
    sealed_.clear();
    for (const LogSegment& segment : history) {
      sealed_.push_back(SealedSegment{segment.index, segment.path, cursor,
                                      cursor + segment.bytes});
      cursor += segment.bytes;
      next_index = segment.index + 1;
    }
    live_index_ = next_index;
    live_start_lsn_ = cursor;
  }
  {
    // The flusher does not exist yet, but taking mu_ keeps the lock
    // discipline uniform (and statically checkable) on the cold path.
    MutexLock lock(&mu_);
    appended_lsn_ = durable_lsn_ = cursor;
    io_status_ = Status::OK();
    flusher_exited_ = false;
    stop_ = false;
  }
  NEXT700_RETURN_IF_ERROR(OpenSegment(next_index));

  running_ = true;
  flusher_ = std::thread([this] { FlusherLoop(); });
  return Status::OK();
}

void LogManager::Close() {
  if (!running_) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  flusher_cv_.NotifyAll();
  flusher_.join();
  running_ = false;
  AccumulateDeviceWrites();
  if (file_ != nullptr) file_->Close();
  file_.reset();
}

Lsn LogManager::Append(LogRecordType type, const uint8_t* body,
                       size_t body_len) {
  // Checksum outside the critical section: the serial buffer is a measured
  // contention point (Aether), so only the memcpy happens under the mutex.
  const uint64_t checksum = FnvHashBytes(body, body_len);
  const uint32_t len_field = static_cast<uint32_t>(body_len);
  const uint32_t header_sum =
      FrameHeaderSum(len_field, static_cast<uint8_t>(type));
  Lsn end;
  {
    MutexLock lock(&mu_);
    LogWriter writer(&buffer_);
    writer.PutU32(len_field);
    writer.PutU8(static_cast<uint8_t>(type));
    writer.PutU32(header_sum);
    writer.PutBytes(body, body_len);
    writer.PutU64(checksum);
    appended_lsn_ += kFrameOverheadBytes + body_len;
    end = appended_lsn_;
  }
  return end;
}

Lsn LogManager::AppendRaw(const uint8_t* data, size_t len) {
  Lsn end;
  {
    MutexLock lock(&mu_);
    buffer_.insert(buffer_.end(), data, data + len);
    appended_lsn_ += len;
    end = appended_lsn_;
  }
  return end;
}

Status LogManager::ReadFramesInRange(Lsn lsn_lo, Lsn lsn_hi,
                                     std::vector<uint8_t>* out,
                                     Lsn* end_lsn) const {
  *end_lsn = lsn_lo;
  // Clamp to the durable watermark *before* snapshotting the segment table:
  // every byte below the clamp is already on disk, so a rotation between
  // the two steps only adds segments above the range we read. The snapshot
  // is safe to use after the lock drops because segment files never move
  // or shrink once named — retirement unlinks them whole, which the
  // per-file kNotFound below detects.
  const Lsn hi = std::min(lsn_hi, durable_lsn());
  if (hi <= lsn_lo) return Status::OK();
  struct Piece {
    std::string path;
    Lsn start_lsn;
    Lsn end_lsn;  // For the live segment: the durable clamp.
  };
  std::vector<Piece> pieces;
  {
    MutexLock lock(&segments_mu_);
    if (lsn_lo < (sealed_.empty() ? live_start_lsn_
                                  : sealed_.front().start_lsn)) {
      return Status::NotFound("lsn below the retired log prefix");
    }
    for (const SealedSegment& segment : sealed_) {
      if (segment.end_lsn <= lsn_lo || segment.start_lsn >= hi) continue;
      pieces.push_back(Piece{segment.path, segment.start_lsn,
                             segment.end_lsn});
    }
    if (live_start_lsn_ < hi) {
      pieces.push_back(Piece{LogSegmentPath(options_.dir, live_index_),
                             live_start_lsn_, hi});
    }
  }
  const size_t base = out->size();
  Lsn cursor = lsn_lo;
  for (const Piece& piece : pieces) {
    const Lsn from = std::max(cursor, piece.start_lsn);
    const Lsn to = std::min(hi, piece.end_lsn);
    if (from >= to) continue;
    const size_t before = out->size();
    NEXT700_RETURN_IF_ERROR(ReadFileRange(piece.path, from - piece.start_lsn,
                                          to - from, out));
    cursor = from + (out->size() - before);
    // A short read can only happen on the live segment, where the write
    // of a just-durable flush may still be landing; stop there.
    if (out->size() - before < to - from) break;
  }
  // Trim back to the last complete frame so *end_lsn is a frame boundary:
  // an arbitrary lsn_hi (batch cap) can cut mid-frame.
  size_t whole = 0;
  while (out->size() - base - whole >= kFrameHeaderBytes) {
    uint32_t body_len;
    std::memcpy(&body_len, out->data() + base + whole, sizeof(body_len));
    const uint64_t frame = kFrameOverheadBytes + uint64_t{body_len};
    if (out->size() - base - whole < frame) break;
    whole += frame;
  }
  out->resize(base + whole);
  *end_lsn = lsn_lo + whole;
  return Status::OK();
}

void LogManager::SetDurableCallback(std::function<void(Lsn)> callback) {
  MutexLock lock(&callback_mu_);
  // From the flusher's own callback, skip the drain (it would self-wait);
  // from any other thread, wait out an in-flight invocation so the caller
  // can free whatever the old callback captured.
  if (std::this_thread::get_id() != flusher_tid_) {
    while (callback_running_) callback_cv_.Wait(&callback_mu_);
  }
  durable_callback_ = std::move(callback);
}

Status LogManager::WaitDurable(Lsn lsn) {
  MutexLock lock(&mu_);
  flusher_cv_.NotifyAll();  // Give the flusher a nudge for low latency.
  while (durable_lsn_ < lsn && io_status_.ok() && !flusher_exited_) {
    flushed_cv_.Wait(&mu_);
  }
  if (durable_lsn_ >= lsn) return Status::OK();
  if (!io_status_.ok()) return io_status_;
  return Status::Unavailable("log closed before lsn became durable");
}

Status LogManager::io_status() const {
  MutexLock lock(&mu_);
  return io_status_;
}

Lsn LogManager::durable_lsn() const {
  MutexLock lock(&mu_);
  return durable_lsn_;
}

Lsn LogManager::appended_lsn() const {
  MutexLock lock(&mu_);
  return appended_lsn_;
}

SealedSegment LogManager::BaseAfterRetire(Lsn lsn) const {
  MutexLock lock(&segments_mu_);
  for (const SealedSegment& segment : sealed_) {
    if (segment.end_lsn > lsn) return segment;
  }
  // Every sealed segment falls below the checkpoint: the live segment is
  // the new base. Later rotations only grow the chain above it, so the
  // returned (index, start_lsn) stays valid after this call returns.
  SealedSegment live;
  live.index = live_index_;
  live.path = LogSegmentPath(options_.dir, live_index_);
  live.start_lsn = live.end_lsn = live_start_lsn_;
  return live;
}

Status LogManager::RetireSegmentsBelow(
    Lsn lsn, const std::function<void()>& between_unlinks) {
  std::vector<SealedSegment> victims;
  {
    MutexLock lock(&segments_mu_);
    size_t keep = 0;
    for (size_t i = 0; i < sealed_.size(); ++i) {
      if (sealed_[i].end_lsn <= lsn) {
        victims.push_back(std::move(sealed_[i]));
      } else {
        if (keep != i) sealed_[keep] = std::move(sealed_[i]);
        ++keep;
      }
    }
    sealed_.resize(keep);
  }
  if (victims.empty()) return Status::OK();
  for (const SealedSegment& segment : victims) {
    ::unlink(segment.path.c_str());
    if (between_unlinks) between_unlinks();
  }
  return SyncDir(options_.dir);
}

std::vector<SealedSegment> LogManager::sealed_segments() const {
  MutexLock lock(&segments_mu_);
  return sealed_;
}

Status LogManager::WriteAndSync(const std::vector<uint8_t>& batch) {
  // Rotation happens only between flushes, so every segment but the live
  // one ends on a frame boundary — recovery relies on this to treat a torn
  // frame in a non-final segment as corruption, not a crash tail.
  if (options_.segment_bytes > 0 && segment_written_ > 0 &&
      segment_written_ + batch.size() > options_.segment_bytes) {
    AccumulateDeviceWrites();
    file_->Close();
    {
      // Seal the outgoing segment so the checkpointer can retire it.
      MutexLock seg_lock(&segments_mu_);
      sealed_.push_back(SealedSegment{
          segment_index_, LogSegmentPath(options_.dir, segment_index_),
          live_start_lsn_, live_start_lsn_ + segment_written_});
      live_index_ = segment_index_ + 1;
      live_start_lsn_ += segment_written_;
    }
    NEXT700_RETURN_IF_ERROR(OpenSegment(segment_index_ + 1));
  }
  // One submission carries the staged bytes and (under kFdatasync) the
  // barrier: a linked WRITE+FSYNC pair on the ring path, Append+Sync on
  // the synchronous path — the device decides, the flusher does not care.
  const bool barrier = options_.sync_policy == LogSyncPolicy::kFdatasync;
  NEXT700_RETURN_IF_ERROR(
      file_->SubmitAppend(io_.get(), batch.data(), batch.size(), barrier));
  segment_written_ += batch.size();
  AccumulateDeviceWrites();
  switch (options_.sync_policy) {
    case LogSyncPolicy::kNone:
      break;
    case LogSyncPolicy::kFdatasync:
      sync_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LogSyncPolicy::kODsync:
      // The O_DSYNC write itself was the barrier.
      sync_count_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return Status::OK();
}

void LogManager::InvokeDurableCallback(Lsn durable) {
  // Invoke the durable callback outside callback_mu_ so a reentrant
  // SetDurableCallback from inside the callback cannot deadlock;
  // callback_running_ keeps external (re)registration teardown-safe.
  std::function<void(Lsn)> callback;
  {
    MutexLock lock(&callback_mu_);
    callback = durable_callback_;
    callback_running_ = true;
  }
  if (callback) callback(durable);
  {
    MutexLock lock(&callback_mu_);
    callback_running_ = false;
  }
  callback_cv_.NotifyAll();
}

void LogManager::FlusherLoop() {
  {
    // Publish our id under callback_mu_ before the first callback can
    // fire: SetDurableCallback reads it (under the same mutex) to detect
    // reentrant registration, and an unsynchronized write from Open()
    // would race with a callback that re-registers during the very first
    // flush.
    MutexLock lock(&callback_mu_);
    flusher_tid_ = std::this_thread::get_id();
  }
  std::vector<uint8_t> local;
  for (;;) {
    Lsn target;
    {
      MutexLock lock(&mu_);
      if (!stop_ && buffer_.empty()) {
        // A spurious wake just polls one interval early — the flusher is a
        // periodic cadence, so no condition re-check loop is needed here.
        (void)flusher_cv_.WaitFor(
            &mu_, std::chrono::microseconds(options_.flush_interval_us));
      }
      if (buffer_.empty()) {
        if (stop_) break;  // Residual buffer already drained.
        continue;
      }
      local.swap(buffer_);
      target = appended_lsn_;
    }
    const Status s = WriteAndSync(local);
    local.clear();
    if (!s.ok()) {
      // Sticky device failure: durable_lsn_ stops here; every waiter (and
      // every future WaitDurable) gets the error instead of an abort. One
      // more callback at the unchanged watermark lets a consumer that never
      // blocks in WaitDurable see io_status().
      Lsn durable;
      {
        MutexLock lock(&mu_);
        io_status_ = s;
        durable = durable_lsn_;
      }
      InvokeDurableCallback(durable);
      break;
    }
    flush_count_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(&mu_);
      durable_lsn_ = target;
    }
    flushed_cv_.NotifyAll();
    InvokeDurableCallback(target);
  }
  {
    MutexLock lock(&mu_);
    flusher_exited_ = true;
  }
  flushed_cv_.NotifyAll();
}

}  // namespace next700
