#include "log/log_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "log/recovery.h"
#include "txn/engine.h"

namespace next700 {
namespace {

/// Fresh (empty) log directory: opening a log no longer truncates history,
/// so tests must clear leftovers from previous runs themselves.
std::string TempLogDir(const char* tag) {
  std::string dir =
      std::string(::testing::TempDir()) + "/next700_" + tag + ".logd";
  RemoveLogDir(dir);
  return dir;
}

uint64_t TotalLogBytes(const std::string& dir) {
  std::vector<LogSegment> segments;
  NEXT700_CHECK(ListLogSegments(dir, &segments).ok());
  uint64_t total = 0;
  for (const LogSegment& s : segments) total += s.bytes;
  return total;
}

std::string OnlySegmentPath(const std::string& dir) {
  std::vector<LogSegment> segments;
  NEXT700_CHECK(ListLogSegments(dir, &segments).ok());
  NEXT700_CHECK(segments.size() == 1);
  return segments[0].path;
}

TEST(LogManagerTest, AppendAdvancesLsnAndBecomesDurable) {
  LogManagerOptions options;
  options.dir = TempLogDir("append");
  options.flush_interval_us = 100;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body{1, 2, 3, 4};
  const Lsn lsn1 = log.Append(LogRecordType::kTxnValue, body);
  const Lsn lsn2 = log.Append(LogRecordType::kTxnValue, body);
  EXPECT_GT(lsn2, lsn1);
  EXPECT_TRUE(log.WaitDurable(lsn2).ok());
  EXPECT_GE(log.durable_lsn(), lsn2);
  log.Close();
  // On-disk bytes match appended bytes.
  EXPECT_EQ(TotalLogBytes(options.dir), lsn2);
}

TEST(LogManagerTest, GroupCommitBatchesFlushes) {
  LogManagerOptions options;
  options.dir = TempLogDir("group");
  options.flush_interval_us = 2000;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(64, 7);
  Lsn last = 0;
  for (int i = 0; i < 100; ++i) {
    last = log.Append(LogRecordType::kTxnValue, body);
  }
  EXPECT_TRUE(log.WaitDurable(last).ok());
  // 100 records must not require 100 physical flushes.
  EXPECT_LT(log.flush_count(), 50u);
  log.Close();
}

TEST(LogManagerTest, FdatasyncPolicyIssuesRealBarriers) {
  LogManagerOptions options;
  options.dir = TempLogDir("fdatasync");
  options.sync_policy = LogSyncPolicy::kFdatasync;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(32, 3);
  Lsn last = 0;
  for (int i = 0; i < 10; ++i) {
    last = log.Append(LogRecordType::kTxnValue, body);
    ASSERT_TRUE(log.WaitDurable(last).ok());
  }
  // Every flush that advanced durable_lsn_ carried a barrier.
  EXPECT_GT(log.sync_count(), 0u);
  EXPECT_EQ(log.sync_count(), log.flush_count());
  log.Close();
}

TEST(LogManagerTest, ODsyncPolicyCountsWritesAsBarriers) {
  LogManagerOptions options;
  options.dir = TempLogDir("odsync");
  options.sync_policy = LogSyncPolicy::kODsync;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(32, 3);
  const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
  ASSERT_TRUE(log.WaitDurable(lsn).ok());
  EXPECT_GT(log.sync_count(), 0u);
  log.Close();
}

TEST(LogManagerTest, RotatesSegmentsOnSizeThreshold) {
  LogManagerOptions options;
  options.dir = TempLogDir("rotate");
  options.segment_bytes = 256;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(64, 9);
  Lsn last = 0;
  for (int i = 0; i < 20; ++i) {
    last = log.Append(LogRecordType::kTxnValue, body);
    ASSERT_TRUE(log.WaitDurable(last).ok());
  }
  log.Close();
  EXPECT_GT(log.segments_opened(), 1u);
  std::vector<LogSegment> segments;
  ASSERT_TRUE(ListLogSegments(options.dir, &segments).ok());
  EXPECT_EQ(segments.size(), log.segments_opened());
  EXPECT_EQ(TotalLogBytes(options.dir), last);
}

TEST(LogManagerTest, RetireSegmentsBelowDeletesWholePrefixOnly) {
  LogManagerOptions options;
  options.dir = TempLogDir("retire");
  options.segment_bytes = 256;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(64, 9);
  Lsn last = 0;
  for (int i = 0; i < 20; ++i) {
    last = log.Append(LogRecordType::kTxnValue, body);
    ASSERT_TRUE(log.WaitDurable(last).ok());
  }
  const std::vector<SealedSegment> sealed = log.sealed_segments();
  ASSERT_GE(sealed.size(), 2u);
  // The sealed chain tiles the LSN space with no gaps.
  EXPECT_EQ(sealed.front().start_lsn, 0u);
  for (size_t i = 1; i < sealed.size(); ++i) {
    EXPECT_EQ(sealed[i].start_lsn, sealed[i - 1].end_lsn) << i;
  }
  // An LSN *inside* the second segment retires only the first: a segment
  // goes only when it sits wholly below the cut.
  int unlink_gaps = 0;
  ASSERT_TRUE(
      log.RetireSegmentsBelow(sealed[1].end_lsn - 1, [&] { ++unlink_gaps; })
          .ok());
  EXPECT_EQ(unlink_gaps, 1);
  std::vector<LogSegment> on_disk;
  ASSERT_TRUE(ListLogSegments(options.dir, &on_disk).ok());
  ASSERT_FALSE(on_disk.empty());
  EXPECT_EQ(on_disk.front().index, sealed[1].index);
  EXPECT_EQ(log.sealed_segments().front().index, sealed[1].index);
  // The live log keeps appending, unbothered.
  const Lsn more = log.Append(LogRecordType::kTxnValue, body);
  EXPECT_TRUE(log.WaitDurable(more).ok());
  log.Close();
}

TEST(LogManagerTest, ReopenWithBaseResumesLsnSpaceOverTruncatedPrefix) {
  LogManagerOptions options;
  options.dir = TempLogDir("base_reopen");
  options.segment_bytes = 256;
  const std::vector<uint8_t> body(64, 5);
  Lsn end = 0;
  SealedSegment base;
  {
    LogManager log(options);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 20; ++i) {
      end = log.Append(LogRecordType::kTxnValue, body);
      ASSERT_TRUE(log.WaitDurable(end).ok());
    }
    const std::vector<SealedSegment> sealed = log.sealed_segments();
    ASSERT_GE(sealed.size(), 2u);
    base = log.BaseAfterRetire(sealed[0].end_lsn);
    EXPECT_EQ(base.index, sealed[1].index);
    EXPECT_EQ(base.start_lsn, sealed[0].end_lsn);
    ASSERT_TRUE(log.RetireSegmentsBelow(sealed[0].end_lsn, nullptr).ok());
    log.Close();
  }
  LogManagerOptions reopened = options;
  reopened.base_index = base.index;
  reopened.base_lsn = base.start_lsn;
  LogManager log(reopened);
  ASSERT_TRUE(log.Open().ok());
  // The LSN space continues where the *full* history ended — not at the
  // byte count of what happens to survive on disk.
  EXPECT_EQ(log.appended_lsn(), end);
  const Lsn more = log.Append(LogRecordType::kTxnValue, body);
  EXPECT_GT(more, end);
  ASSERT_TRUE(log.WaitDurable(more).ok());
  log.Close();
}

TEST(LogManagerTest, OpenDeletesStaleSegmentsBelowBase) {
  // A crash between the MANIFEST update and the segment unlinks leaves
  // retired segments on disk; the next Open must finish the job.
  LogManagerOptions options;
  options.dir = TempLogDir("stale_base");
  options.segment_bytes = 256;
  const std::vector<uint8_t> body(64, 5);
  Lsn end = 0;
  SealedSegment base;
  {
    LogManager log(options);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 20; ++i) {
      end = log.Append(LogRecordType::kTxnValue, body);
      ASSERT_TRUE(log.WaitDurable(end).ok());
    }
    base = log.BaseAfterRetire(log.sealed_segments()[0].end_lsn);
    log.Close();  // "Crash" before the unlinks: everything still on disk.
  }
  LogManagerOptions reopened = options;
  reopened.base_index = base.index;
  reopened.base_lsn = base.start_lsn;
  {
    LogManager log(reopened);
    ASSERT_TRUE(log.Open().ok());
    EXPECT_EQ(log.appended_lsn(), end);
    log.Close();
  }
  std::vector<LogSegment> on_disk;
  ASSERT_TRUE(ListLogSegments(options.dir, &on_disk).ok());
  ASSERT_FALSE(on_disk.empty());
  EXPECT_EQ(on_disk.front().index, base.index);
}

TEST(LogManagerTest, ReopenResumesLsnSpaceAfterHistory) {
  LogManagerOptions options;
  options.dir = TempLogDir("reopen");
  const std::vector<uint8_t> body(16, 1);
  Lsn first_end = 0;
  {
    LogManager log(options);
    ASSERT_TRUE(log.Open().ok());
    first_end = log.Append(LogRecordType::kTxnValue, body);
    ASSERT_TRUE(log.WaitDurable(first_end).ok());
    log.Close();
  }
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  // The LSN space continues after the surviving segment instead of
  // restarting at zero over truncated history.
  EXPECT_EQ(log.appended_lsn(), first_end);
  const Lsn second_end = log.Append(LogRecordType::kTxnValue, body);
  EXPECT_GT(second_end, first_end);
  ASSERT_TRUE(log.WaitDurable(second_end).ok());
  log.Close();
  EXPECT_EQ(TotalLogBytes(options.dir), second_end);
}

TEST(LogManagerTest, ReopenTruncatesTornTailAtEveryByteBoundary) {
  LogManagerOptions options;
  options.dir = TempLogDir("reopen_torn");
  const std::vector<uint8_t> body(16, 4);
  Lsn valid_prefix = 0;  // Everything but the final frame.
  Lsn full_end = 0;
  {
    LogManager log(options);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 3; ++i) {
      valid_prefix = full_end;
      full_end = log.Append(LogRecordType::kTxnValue, body);
    }
    ASSERT_TRUE(log.WaitDurable(full_end).ok());
    log.Close();
  }
  std::ifstream in(OnlySegmentPath(options.dir), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(bytes.size(), full_end);
  const size_t last_frame_len = full_end - valid_prefix;

  // A crash can stop the final write after any byte. Reopening must cut
  // the torn frame back to the last valid boundary — once the reopened
  // manager appends a new segment, the torn one is no longer final and
  // recovery would reject its tail as corruption forever.
  for (size_t cut = 1; cut <= last_frame_len; ++cut) {
    const std::string torn = TempLogDir("reopen_torn_case");
    ASSERT_TRUE(EnsureLogDir(torn).ok());
    std::ofstream out(LogSegmentPath(torn, 0), std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - cut));
    out.close();

    LogManagerOptions reopened = options;
    reopened.dir = torn;
    LogManager log(reopened);
    ASSERT_TRUE(log.Open().ok()) << "cut=" << cut;
    EXPECT_EQ(log.appended_lsn(), valid_prefix) << "cut=" << cut;
    const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
    ASSERT_TRUE(log.WaitDurable(lsn).ok());
    log.Close();

    std::vector<LogSegment> segments;
    ASSERT_TRUE(ListLogSegments(torn, &segments).ok());
    ASSERT_EQ(segments.size(), 2u) << "cut=" << cut;
    // The torn frame is gone from disk, not just skipped in memory.
    EXPECT_EQ(segments[0].bytes, valid_prefix) << "cut=" << cut;
    EXPECT_EQ(TotalLogBytes(torn), lsn) << "cut=" << cut;
    RemoveLogDir(torn);
  }
}

TEST(LogManagerTest, ReopenRejectsCorruptFinalSegment) {
  LogManagerOptions options;
  options.dir = TempLogDir("reopen_corrupt");
  const std::vector<uint8_t> body(16, 4);
  Lsn end = 0;
  {
    LogManager log(options);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 3; ++i) {
      end = log.Append(LogRecordType::kTxnValue, body);
    }
    ASSERT_TRUE(log.WaitDurable(end).ok());
    log.Close();
  }
  // Flip a byte in the middle: a *complete* frame with a bad checksum was
  // flushed that way — truncating it would silently drop acked txns, so
  // Open must refuse instead.
  const std::string segment = OnlySegmentPath(options.dir);
  std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(40);
  char byte;
  f.read(&byte, 1);
  f.seekp(40);
  byte = static_cast<char>(byte ^ 0xFF);
  f.write(&byte, 1);
  f.close();

  LogManager log(options);
  EXPECT_EQ(log.Open().code(), StatusCode::kCorruption);
  // And nothing was truncated.
  std::vector<LogSegment> segments;
  ASSERT_TRUE(ListLogSegments(options.dir, &segments).ok());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].bytes, end);
}

TEST(LogManagerTest, WaitDurableReportsUnavailableWhenClosedEarly) {
  LogManagerOptions options;
  options.dir = TempLogDir("closed_early");
  options.flush_interval_us = 50;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(8, 2);
  const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
  Status waiter_status;
  std::thread waiter([&] {
    // An LSN past everything ever appended: only Close() can end the wait.
    waiter_status = log.WaitDurable(lsn + 1000);
  });
  ASSERT_TRUE(log.WaitDurable(lsn).ok());
  log.Close();
  waiter.join();
  EXPECT_EQ(waiter_status.code(), StatusCode::kUnavailable);
}

TEST(LogManagerTest, ReentrantDurableCallbackDoesNotDeadlock) {
  LogManagerOptions options;
  options.dir = TempLogDir("reentrant_cb");
  options.flush_interval_us = 20;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  std::atomic<int> invocations{0};
  // A callback that re-registers itself from inside the invocation — the
  // pattern a server uses to swap its release function. This used to
  // self-deadlock on callback_mu_.
  std::function<void(Lsn)> reregister = [&](Lsn) {
    ++invocations;
    log.SetDurableCallback([&](Lsn) { ++invocations; });
  };
  log.SetDurableCallback(reregister);
  const std::vector<uint8_t> body(8, 5);
  Lsn last = 0;
  for (int i = 0; i < 5; ++i) {
    last = log.Append(LogRecordType::kTxnValue, body);
    ASSERT_TRUE(log.WaitDurable(last).ok());
  }
  // External re-registration still drains an in-flight invocation.
  log.SetDurableCallback(nullptr);
  EXPECT_GE(invocations.load(), 1);
  log.Close();
}

// --- Write-retry / error-path shims ----------------------------------------

/// PosixLogFile with a scripted RawWrite: exercises the retry loop without
/// touching the logic under test.
class ShimLogFile : public PosixLogFile {
 public:
  enum class Step { kEintr, kEagain, kShort, kEio, kOk };

  explicit ShimLogFile(std::vector<Step> script)
      : script_(std::move(script)) {}

 protected:
  ssize_t RawWrite(const uint8_t* data, size_t len) override {
    const Step step =
        cursor_ < script_.size() ? script_[cursor_++] : Step::kOk;
    switch (step) {
      case Step::kEintr:
        errno = EINTR;
        return -1;
      case Step::kEagain:
        errno = EAGAIN;
        return -1;
      case Step::kShort:
        return PosixLogFile::RawWrite(data, len < 3 ? len : 3);
      case Step::kEio:
        errno = EIO;
        return -1;
      case Step::kOk:
        break;
    }
    return PosixLogFile::RawWrite(data, len);
  }

 private:
  std::vector<Step> script_;
  size_t cursor_ = 0;
};

TEST(LogManagerTest, EintrEagainAndShortWritesAreRetried) {
  using Step = ShimLogFile::Step;
  LogManagerOptions options;
  options.dir = TempLogDir("eintr");
  options.file_factory = [] {
    return std::make_unique<ShimLogFile>(std::vector<Step>{
        Step::kEintr, Step::kEintr, Step::kShort, Step::kEagain,
        Step::kShort, Step::kEintr, Step::kOk});
  };
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(64, 11);
  const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
  ASSERT_TRUE(log.WaitDurable(lsn).ok());
  log.Close();
  // Every byte landed despite the interruptions and short writes.
  EXPECT_EQ(TotalLogBytes(options.dir), lsn);
}

TEST(LogManagerTest, PersistentIoErrorIsStickyNotFatal) {
  using Step = ShimLogFile::Step;
  LogManagerOptions options;
  options.dir = TempLogDir("eio");
  options.file_factory = [] {
    // EIO forever: the device is gone.
    return std::make_unique<ShimLogFile>(
        std::vector<Step>(64, Step::kEio));
  };
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(16, 1);
  const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
  EXPECT_EQ(log.WaitDurable(lsn).code(), StatusCode::kIOError);
  // Sticky: later waiters fail too instead of hanging or aborting.
  EXPECT_EQ(log.WaitDurable(lsn).code(), StatusCode::kIOError);
  EXPECT_EQ(log.io_status().code(), StatusCode::kIOError);
  EXPECT_EQ(log.durable_lsn(), 0u);
  log.Close();
}

/// A consumer that never blocks in WaitDurable (the shard router's commit
/// point) learns of a sticky device error from one last durable callback
/// at the unchanged watermark, with io_status() already the error.
TEST(LogManagerTest, StickyIoErrorInvokesDurableCallback) {
  using Step = ShimLogFile::Step;
  LogManagerOptions options;
  options.dir = TempLogDir("eio_cb");
  options.file_factory = [] {
    return std::make_unique<ShimLogFile>(
        std::vector<Step>(64, Step::kEio));
  };
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  std::atomic<int> calls{0};
  std::atomic<Lsn> seen_lsn{~Lsn{0}};
  std::atomic<int> seen_code{static_cast<int>(StatusCode::kOk)};
  log.SetDurableCallback([&](Lsn durable) {
    seen_lsn.store(durable);
    seen_code.store(static_cast<int>(log.io_status().code()));
    calls.fetch_add(1);
  });
  const std::vector<uint8_t> body(16, 1);
  log.Append(LogRecordType::kTxnValue, body);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (calls.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_lsn.load(), 0u);
  EXPECT_EQ(seen_code.load(), static_cast<int>(StatusCode::kIOError));
  EXPECT_EQ(log.io_status().code(), StatusCode::kIOError);
  log.SetDurableCallback(nullptr);
  log.Close();
}

/// Tailing the durable frame stream while a writer keeps appending and
/// rotating segments under the reader — the log shipper's access pattern.
/// Every chunk must be whole frames, and the concatenation of all chunks
/// must be byte-identical to a quiesced read of the full range.
TEST(LogManagerTest, ReadFramesInRangeWhileAppendsContinue) {
  LogManagerOptions options;
  options.dir = TempLogDir("tail_read");
  options.segment_bytes = 512;  // Rotate often, under the reader.
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(48, 7);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
      if (i % 32 == 0) {
        ASSERT_TRUE(log.WaitDurable(lsn).ok());
      }
    }
    ASSERT_TRUE(log.WaitDurable(log.appended_lsn()).ok());
    done.store(true, std::memory_order_release);
  });

  std::vector<uint8_t> tailed;
  Lsn cursor = 0;
  while (!done.load(std::memory_order_acquire) ||
         cursor < log.durable_lsn()) {
    std::vector<uint8_t> chunk;
    Lsn end = cursor;
    ASSERT_TRUE(
        log.ReadFramesInRange(cursor, cursor + 4096, &chunk, &end).ok());
    ASSERT_EQ(end - cursor, chunk.size());
    if (chunk.empty()) {
      std::this_thread::yield();
      continue;
    }
    tailed.insert(tailed.end(), chunk.begin(), chunk.end());
    cursor = end;
  }
  writer.join();
  EXPECT_EQ(cursor, log.durable_lsn());

  std::vector<uint8_t> reference;
  Lsn ref_end = 0;
  ASSERT_TRUE(
      log.ReadFramesInRange(0, log.durable_lsn(), &reference, &ref_end)
          .ok());
  EXPECT_EQ(ref_end, log.durable_lsn());
  EXPECT_EQ(tailed, reference);
  log.Close();
}

/// A reader whose cursor fell below the retired prefix gets kNotFound (it
/// must re-bootstrap from a checkpoint); a cursor at or above the surviving
/// base keeps working.
TEST(LogManagerTest, ReadFramesInRangeBelowRetiredPrefixIsNotFound) {
  LogManagerOptions options;
  options.dir = TempLogDir("tail_retired");
  options.segment_bytes = 256;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  const std::vector<uint8_t> body(64, 9);
  Lsn last = 0;
  for (int i = 0; i < 20; ++i) {
    last = log.Append(LogRecordType::kTxnValue, body);
    ASSERT_TRUE(log.WaitDurable(last).ok());
  }
  const std::vector<SealedSegment> sealed = log.sealed_segments();
  ASSERT_GE(sealed.size(), 2u);
  const Lsn cut = sealed[0].end_lsn;
  ASSERT_TRUE(log.RetireSegmentsBelow(cut, nullptr).ok());

  std::vector<uint8_t> out;
  Lsn end = 0;
  EXPECT_TRUE(
      log.ReadFramesInRange(0, log.durable_lsn(), &out, &end).IsNotFound());
  ASSERT_TRUE(
      log.ReadFramesInRange(cut, log.durable_lsn(), &out, &end).ok());
  EXPECT_EQ(end, log.durable_lsn());
  EXPECT_EQ(out.size(), log.durable_lsn() - cut);
  log.Close();
}

// --- Recovery ---------------------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  static EngineOptions BaseOptions(LoggingKind logging,
                                   const std::string& dir) {
    EngineOptions options;
    options.cc_scheme = CcScheme::kNoWait;
    options.max_threads = 2;
    options.logging = logging;
    options.log_dir = dir;
    options.log_flush_interval_us = 50;
    return options;
  }

  /// Builds a fresh engine with the KV schema (and procedure) registered.
  static std::unique_ptr<Engine> MakeEngine(const EngineOptions& options,
                                            Table** table, Index** index) {
    auto engine = std::make_unique<Engine>(options);
    Schema schema;
    schema.AddUint64("val");
    *table = engine->CreateTable("kv", std::move(schema));
    *index = engine->CreateIndex("kv_pk", *table, IndexKind::kHash, 256);
    // Procedure 1: add args[1] to row args[0] (creating it if missing).
    engine->RegisterProcedure(
        1, [table, index](Engine* e, TxnContext* txn, const uint8_t* args,
                          size_t len) -> Status {
          NEXT700_CHECK(len == 16);
          uint64_t key, delta;
          std::memcpy(&key, args, 8);
          std::memcpy(&delta, args + 8, 8);
          uint8_t buf[8];
          Status s = e->Read(txn, *index, key, buf);
          if (s.IsNotFound()) {
            (*table)->schema().SetUint64(buf, 0, delta);
            Result<Row*> row = e->Insert(txn, *table, 0, key, buf);
            NEXT700_RETURN_IF_ERROR(row.status());
            e->AddIndexInsert(txn, *index, key, row.value());
            return Status::OK();
          }
          NEXT700_RETURN_IF_ERROR(s);
          (*table)->schema().SetUint64(
              buf, 0, (*table)->schema().GetUint64(buf, 0) + delta);
          return e->Update(txn, *index, key, buf);
        });
    return engine;
  }

  static uint64_t Value(Engine* engine, Index* index, Table* table,
                        uint64_t key) {
    Row* row = index->Lookup(key);
    NEXT700_CHECK(row != nullptr);
    return table->schema().GetUint64(engine->RawImage(row), 0);
  }
};

TEST_F(RecoveryTest, ValueLogReplayRestoresState) {
  const std::string dir = TempLogDir("value_replay");
  {
    Table* table;
    Index* index;
    auto engine =
        MakeEngine(BaseOptions(LoggingKind::kValue, dir), &table, &index);
    for (uint64_t key = 0; key < 20; ++key) {
      uint64_t args[2] = {key, key * 10};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
    // Update a few again so replay must take the latest image.
    for (uint64_t key = 0; key < 5; ++key) {
      uint64_t args[2] = {key, 1};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }  // Engine destruction closes (flushes) the log.

  Table* table;
  Index* index;
  EngineOptions clean = BaseOptions(LoggingKind::kNone, "");
  auto recovered = MakeEngine(clean, &table, &index);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  ASSERT_TRUE(recovery.Replay(dir, &stats).ok());
  EXPECT_EQ(stats.txns_replayed, 25u);
  for (uint64_t key = 0; key < 20; ++key) {
    const uint64_t expected = key * 10 + (key < 5 ? 1 : 0);
    EXPECT_EQ(Value(recovered.get(), index, table, key), expected) << key;
  }
}

TEST_F(RecoveryTest, CommandLogReplayReexecutesProcedures) {
  const std::string dir = TempLogDir("command_replay");
  {
    Table* table;
    Index* index;
    auto engine =
        MakeEngine(BaseOptions(LoggingKind::kCommand, dir), &table, &index);
    for (int i = 0; i < 30; ++i) {
      uint64_t args[2] = {static_cast<uint64_t>(i % 3), 5};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  Table* table;
  Index* index;
  auto recovered =
      MakeEngine(BaseOptions(LoggingKind::kNone, ""), &table, &index);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  ASSERT_TRUE(recovery.Replay(dir, &stats).ok());
  EXPECT_EQ(stats.txns_replayed, 30u);
  for (uint64_t key = 0; key < 3; ++key) {
    EXPECT_EQ(Value(recovered.get(), index, table, key), 50u);
  }
}

TEST_F(RecoveryTest, CommandLogIsSmallerThanValueLog) {
  const std::string vdir = TempLogDir("size_value");
  const std::string cdir = TempLogDir("size_command");
  for (const auto& [kind, dir] :
       {std::pair{LoggingKind::kValue, vdir},
        std::pair{LoggingKind::kCommand, cdir}}) {
    Table* table;
    Index* index;
    auto engine = MakeEngine(BaseOptions(kind, dir), &table, &index);
    for (int i = 0; i < 50; ++i) {
      uint64_t args[2] = {static_cast<uint64_t>(i), 1};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  // Insert-heavy value logs carry full images; command logs only args. For
  // this tiny schema they are close, so just assert the ordering.
  EXPECT_GT(TotalLogBytes(vdir), 0u);
  EXPECT_LE(TotalLogBytes(cdir), TotalLogBytes(vdir));
}

TEST_F(RecoveryTest, SegmentRotationSurvivesReplay) {
  const std::string dir = TempLogDir("rotated_replay");
  EngineOptions options = BaseOptions(LoggingKind::kValue, dir);
  options.log_segment_bytes = 512;  // Tiny: force many rotations.
  {
    Table* table;
    Index* index;
    auto engine = MakeEngine(options, &table, &index);
    for (uint64_t key = 0; key < 40; ++key) {
      uint64_t args[2] = {key, key + 1};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  std::vector<LogSegment> segments;
  ASSERT_TRUE(ListLogSegments(dir, &segments).ok());
  ASSERT_GT(segments.size(), 1u);

  Table* table;
  Index* index;
  auto recovered =
      MakeEngine(BaseOptions(LoggingKind::kNone, ""), &table, &index);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  ASSERT_TRUE(recovery.Replay(dir, &stats).ok());
  EXPECT_EQ(stats.segments_read, segments.size());
  EXPECT_EQ(stats.txns_replayed, 40u);
  for (uint64_t key = 0; key < 40; ++key) {
    EXPECT_EQ(Value(recovered.get(), index, table, key), key + 1) << key;
  }
}

TEST_F(RecoveryTest, ReopenedLogAccumulatesHistoryAcrossRuns) {
  const std::string dir = TempLogDir("two_lives");
  for (int life = 0; life < 2; ++life) {
    Table* table;
    Index* index;
    auto engine =
        MakeEngine(BaseOptions(LoggingKind::kValue, dir), &table, &index);
    for (uint64_t key = 0; key < 10; ++key) {
      uint64_t args[2] = {key, 1};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  Table* table;
  Index* index;
  auto recovered =
      MakeEngine(BaseOptions(LoggingKind::kNone, ""), &table, &index);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  ASSERT_TRUE(recovery.Replay(dir, &stats).ok());
  // Both lives replay: the second Open appended after the first's segments
  // instead of truncating them. Each life starts from an empty engine, so
  // each logs a fresh insert image of 1; replay takes the latest image.
  EXPECT_EQ(stats.txns_replayed, 20u);
  EXPECT_GE(stats.segments_read, 2u);
  for (uint64_t key = 0; key < 10; ++key) {
    EXPECT_EQ(Value(recovered.get(), index, table, key), 1u) << key;
  }
}

TEST_F(RecoveryTest, CrashTailSurvivesRestartRunRecoverCycle) {
  // The full adversarial sequence: crash (torn tail) -> restart and run
  // more transactions -> recover. The restart's Open() must truncate the
  // torn frame while its segment is still final; otherwise every later
  // replay reports "torn frame in non-final segment" and the acked
  // history is permanently unrecoverable.
  const std::string dir = TempLogDir("torn_restart");
  {
    Table* table;
    Index* index;
    auto engine =
        MakeEngine(BaseOptions(LoggingKind::kValue, dir), &table, &index);
    for (uint64_t key = 0; key < 10; ++key) {
      uint64_t args[2] = {key, 7};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  // Tear the final frame: key 9's txn loses its tail, as a crash would.
  std::vector<LogSegment> segments;
  ASSERT_TRUE(ListLogSegments(dir, &segments).ok());
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_EQ(::truncate(segments[0].path.c_str(),
                       static_cast<off_t>(segments[0].bytes - 3)),
            0);

  {  // Restart: appends a second segment after the (truncated) first.
    Table* table;
    Index* index;
    auto engine =
        MakeEngine(BaseOptions(LoggingKind::kValue, dir), &table, &index);
    for (uint64_t key = 0; key < 10; ++key) {
      uint64_t args[2] = {key, 1};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  Table* table;
  Index* index;
  auto recovered =
      MakeEngine(BaseOptions(LoggingKind::kNone, ""), &table, &index);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  ASSERT_TRUE(recovery.Replay(dir, &stats).ok());
  // 9 surviving txns from the first life + 10 from the second.
  EXPECT_EQ(stats.txns_replayed, 19u);
  EXPECT_GE(stats.segments_read, 2u);
  // The second life started from an empty engine, so its fresh insert
  // images (value 1) are the latest for every key — including key 9,
  // whose first-life txn was legitimately lost in the torn tail.
  for (uint64_t key = 0; key < 10; ++key) {
    EXPECT_EQ(Value(recovered.get(), index, table, key), 1u) << key;
  }
}

TEST_F(RecoveryTest, TornTailStopsReplayCleanlyAtEveryByteBoundary) {
  const std::string dir = TempLogDir("torn");
  {
    Table* table;
    Index* index;
    auto engine =
        MakeEngine(BaseOptions(LoggingKind::kValue, dir), &table, &index);
    for (uint64_t key = 0; key < 10; ++key) {
      uint64_t args[2] = {key, 7};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  const std::string segment = OnlySegmentPath(dir);
  std::ifstream in(segment, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Find the final frame's start by walking the frame headers.
  size_t last_frame_start = 0;
  for (size_t pos = 0; pos < bytes.size();) {
    uint32_t body_len;
    std::memcpy(&body_len, bytes.data() + pos, 4);
    last_frame_start = pos;
    pos += kFrameOverheadBytes + body_len;
  }
  const size_t last_frame_len = bytes.size() - last_frame_start;
  ASSERT_GT(last_frame_len, 0u);

  // A crash can stop the final write after any byte: truncating the frame
  // at *every* boundary must lose exactly that one transaction.
  for (size_t cut = 1; cut <= last_frame_len; ++cut) {
    const std::string torn = TempLogDir("torn_case");
    ASSERT_TRUE(EnsureLogDir(torn).ok());
    std::ofstream out(LogSegmentPath(torn, 0), std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - cut));
    out.close();

    Table* table;
    Index* index;
    auto recovered =
        MakeEngine(BaseOptions(LoggingKind::kNone, ""), &table, &index);
    RecoveryManager recovery(recovered.get());
    RecoveryStats stats;
    ASSERT_TRUE(recovery.Replay(torn, &stats).ok()) << "cut=" << cut;
    EXPECT_EQ(stats.txns_replayed, 9u) << "cut=" << cut;
    RemoveLogDir(torn);
  }
}

TEST_F(RecoveryTest, TornFrameInNonFinalSegmentIsCorruption) {
  const std::string dir = TempLogDir("torn_mid");
  {
    Table* table;
    Index* index;
    EngineOptions options = BaseOptions(LoggingKind::kValue, dir);
    options.log_segment_bytes = 512;
    auto engine = MakeEngine(options, &table, &index);
    for (uint64_t key = 0; key < 40; ++key) {
      uint64_t args[2] = {key, 7};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  std::vector<LogSegment> segments;
  ASSERT_TRUE(ListLogSegments(dir, &segments).ok());
  ASSERT_GT(segments.size(), 1u);
  // Rotation happens on frame boundaries, so a truncated *non-final*
  // segment cannot be a legal crash artifact.
  ASSERT_EQ(::truncate(segments[0].path.c_str(),
                       static_cast<off_t>(segments[0].bytes - 3)),
            0);

  Table* table;
  Index* index;
  auto recovered =
      MakeEngine(BaseOptions(LoggingKind::kNone, ""), &table, &index);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  EXPECT_EQ(recovery.Replay(dir, &stats).code(), StatusCode::kCorruption);
}

TEST_F(RecoveryTest, MidFileCorruptionIsReported) {
  const std::string dir = TempLogDir("corrupt");
  {
    Table* table;
    Index* index;
    auto engine =
        MakeEngine(BaseOptions(LoggingKind::kValue, dir), &table, &index);
    for (uint64_t key = 0; key < 10; ++key) {
      uint64_t args[2] = {key, 7};
      ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
    }
  }
  // Flip a byte in the middle of the segment.
  const std::string segment = OnlySegmentPath(dir);
  std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(40);
  char byte;
  f.read(&byte, 1);
  f.seekp(40);
  byte = static_cast<char>(byte ^ 0xFF);
  f.write(&byte, 1);
  f.close();

  Table* table;
  Index* index;
  auto recovered =
      MakeEngine(BaseOptions(LoggingKind::kNone, ""), &table, &index);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  EXPECT_EQ(recovery.Replay(dir, &stats).code(), StatusCode::kCorruption);
}

TEST_F(RecoveryTest, AsyncCommitTradesDurabilityWindow) {
  const std::string dir = TempLogDir("async");
  Table* table;
  Index* index;
  EngineOptions options = BaseOptions(LoggingKind::kValue, dir);
  options.sync_commit = false;
  auto engine = MakeEngine(options, &table, &index);
  for (uint64_t key = 0; key < 10; ++key) {
    uint64_t args[2] = {key, 3};
    ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
  }
  // Commits returned before durability; the log manager still flushes on
  // close, after which everything must be on disk.
  ASSERT_TRUE(engine->log_manager()
                  ->WaitDurable(engine->log_manager()->appended_lsn())
                  .ok());
  EXPECT_GE(engine->log_manager()->durable_lsn(),
            engine->log_manager()->appended_lsn());
}

/// Replay of a *live* log directory whose prefix was retired mid-run: the
/// replay must resume at the post-retirement base (mapping file offsets
/// back into the shared LSN space via base_index/base_lsn) and still
/// reconstruct every row whose latest image lies at or above the cut —
/// the path a checkpoint-bootstrapped recovery or promoted replica takes
/// while the primary's directory is still open.
TEST_F(RecoveryTest, ReplayResumesAcrossRetireBoundaryOnLiveDirectory) {
  const std::string dir = TempLogDir("retire_replay");
  Table* table;
  Index* index;
  EngineOptions options = BaseOptions(LoggingKind::kValue, dir);
  options.log_segment_bytes = 512;
  auto engine = MakeEngine(options, &table, &index);
  LogManager* log = engine->log_manager();

  // Phase 1: create keys 0..19 (value key*10), spilling over several
  // segments.
  for (uint64_t key = 0; key < 20; ++key) {
    uint64_t args[2] = {key, key * 10};
    ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
  }
  const std::vector<SealedSegment> sealed = log->sealed_segments();
  ASSERT_GE(sealed.size(), 2u);
  const Lsn cut = sealed[0].end_lsn;
  const SealedSegment base = log->BaseAfterRetire(cut);
  ASSERT_TRUE(log->RetireSegmentsBelow(cut, nullptr).ok());

  // Phase 2, after the retirement: touch *every* key so each row's latest
  // image sits above the cut, then keep the directory live (no Close).
  for (uint64_t key = 0; key < 20; ++key) {
    uint64_t args[2] = {key, 3};
    ASSERT_TRUE(engine->RunProcedure(1, 0, args, sizeof(args)).ok());
  }
  ASSERT_TRUE(log->WaitDurable(log->appended_lsn()).ok());

  Table* rtable;
  Index* rindex;
  auto recovered =
      MakeEngine(BaseOptions(LoggingKind::kNone, ""), &rtable, &rindex);
  RecoveryManager recovery(recovered.get());
  RecoveryStats stats;
  ASSERT_TRUE(recovery
                  .Replay(dir, &stats, /*start_lsn=*/base.start_lsn,
                          /*log_base_index=*/base.index,
                          /*log_base_lsn=*/base.start_lsn)
                  .ok());
  EXPECT_GT(stats.segments_read, 1u);
  for (uint64_t key = 0; key < 20; ++key) {
    EXPECT_EQ(Value(recovered.get(), rindex, rtable, key), key * 10 + 3)
        << key;
  }
}

/// The async flusher path: with io_backend=kUring the flusher submits each
/// staged batch as a linked write+barrier through a private ring. The
/// durability contract and the on-disk bytes must be identical to the
/// synchronous device path.
TEST(LogManagerTest, UringFlusherWritesDurableBytes) {
  if (!io::UringSupported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel/sandbox";
  }
  LogManagerOptions options;
  options.dir = TempLogDir("uring_flush");
  options.sync_policy = LogSyncPolicy::kFdatasync;
  options.flush_interval_us = 100;
  options.io_backend = io::IoBackendKind::kUring;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  EXPECT_STREQ(log.io_backend_name(), "uring");
  const std::vector<uint8_t> body(64, 3);
  Lsn last = 0;
  for (int i = 0; i < 200; ++i) {
    last = log.Append(LogRecordType::kTxnValue, body);
  }
  ASSERT_TRUE(log.WaitDurable(last).ok());
  EXPECT_GT(log.sync_count(), 0u);
  // Device writes are visible through the same counter the sync path uses.
  EXPECT_GT(log.write_syscalls(), 0u);
  ASSERT_NE(log.io_counters(), nullptr);
  EXPECT_GT(log.io_counters()->write_ops.load(), 0u);
  EXPECT_GT(log.io_counters()->fsync_ops.load(), 0u);
  log.Close();
  EXPECT_EQ(TotalLogBytes(options.dir), last);
}

TEST(LogManagerTest, EpollKindKeepsSynchronousDevicePath) {
  LogManagerOptions options;
  options.dir = TempLogDir("sync_device");
  options.sync_policy = LogSyncPolicy::kFdatasync;
  options.io_backend = io::IoBackendKind::kEpoll;  // No ring for the log.
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  EXPECT_STREQ(log.io_backend_name(), "sync");
  EXPECT_EQ(log.io_counters(), nullptr);
  const std::vector<uint8_t> body(32, 9);
  const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
  ASSERT_TRUE(log.WaitDurable(lsn).ok());
  EXPECT_GT(log.write_syscalls(), 0u);
  log.Close();
  EXPECT_EQ(TotalLogBytes(options.dir), lsn);
}

/// The crash-fault seam survives the async spine: a custom file_factory
/// always wins over the ring, and its RawWrite/RawSync shims interpose on
/// every flusher batch (the default SubmitAppend routes through them), so
/// fault-injected writes behave identically under io_backend=kAuto.
TEST(LogManagerTest, FaultShimsInterposeUnderAsyncBackendOption) {
  using Step = ShimLogFile::Step;
  LogManagerOptions options;
  options.dir = TempLogDir("shim_async");
  options.io_backend = io::IoBackendKind::kAuto;
  options.file_factory = [] {
    return std::make_unique<ShimLogFile>(std::vector<Step>{
        Step::kEintr, Step::kShort, Step::kEagain, Step::kOk});
  };
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  // The custom device is in charge, whatever the ring probe said.
  EXPECT_STREQ(log.io_backend_name(), "sync");
  const std::vector<uint8_t> body(64, 13);
  const Lsn lsn = log.Append(LogRecordType::kTxnValue, body);
  ASSERT_TRUE(log.WaitDurable(lsn).ok());
  // The shim's write_count() feeds the same syscalls-per-txn counter; the
  // injected EINTR/short/EAGAIN retries mean strictly more than one write.
  EXPECT_GT(log.write_syscalls(), 1u);
  log.Close();
  EXPECT_EQ(TotalLogBytes(options.dir), lsn);
}

}  // namespace
}  // namespace next700
