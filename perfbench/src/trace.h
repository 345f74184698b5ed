#ifndef NEXT700_PERFBENCH_TRACE_H_
#define NEXT700_PERFBENCH_TRACE_H_

/// \file
/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its own calls into the library; nothing inside the
/// library is instrumented. Each recording thread owns one SpanBuffer
/// (no sharing, no atomics on the record path); buffers are fixed-size,
/// and spans past capacity are dropped. At exit the spans are written to
/// a file and folded into per-name statistics.
///
/// A span's self time is its length minus the time its child spans cover.
/// Children of one span are recorded by the same thread one after another,
/// so their union is the sum of their lengths clipped to the parent.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint16_t {
  // engine-2pl: one kTxn per logical transaction (all retries), with one
  // child per Engine call.
  kTxn,
  kBegin,
  kRead,
  kRmw,  // Engine::ReadForUpdate + Engine::Update of one key.
  kCommit,
  kAbort,
  // Served workloads: one span per request, from when it was due until
  // its response was decoded.
  kGet,
  kPut,
  kRmwRequest,
  kSingleShard,
  kCrossShard,
  kCount,
};

const char* SpanNameString(SpanName name);

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = kNoParent;  // Index in the same buffer.
  SpanName name = SpanName::kTxn;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span; returns its index, or kNoParent when the buffer is
  /// full (the span is then dropped and End() ignores it).
  uint32_t Begin(SpanName name, uint32_t parent, uint64_t now_ns) {
    if (spans_.size() == spans_.capacity()) return kNoParent;
    spans_.push_back(Span{now_ns, now_ns, parent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t index, uint64_t now_ns) {
    if (index != kNoParent) spans_[index].end_ns = now_ns;
  }
  /// A span whose bounds are already known.
  void Record(SpanName name, uint64_t start_ns, uint64_t end_ns) {
    End(Begin(name, kNoParent, start_ns), end_ns);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-name aggregate over every buffer.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  /// Hands out a buffer owned by the tracer (valid for its lifetime).
  SpanBuffer* NewBuffer(size_t capacity);

  /// Folds every buffer into per-name statistics.
  std::vector<SpanStats> Summarize() const;

  /// Writes every span as text: one "thread index parent name start end"
  /// line per span. Returns false on an I/O error.
  bool WriteOut(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // NEXT700_PERFBENCH_TRACE_H_
