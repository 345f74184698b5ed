#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kTxn: return "txn";
    case SpanName::kBegin: return "begin";
    case SpanName::kRead: return "read";
    case SpanName::kRmw: return "rmw";
    case SpanName::kCommit: return "commit";
    case SpanName::kAbort: return "abort";
    case SpanName::kGet: return "get";
    case SpanName::kPut: return "put";
    case SpanName::kRmwRequest: return "rmw_request";
    case SpanName::kSingleShard: return "single_shard";
    case SpanName::kCrossShard: return "cross_shard";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanBuffer* Tracer::NewBuffer(size_t capacity) {
  buffers_.push_back(std::make_unique<SpanBuffer>(capacity));
  return buffers_.back().get();
}

std::vector<SpanStats> Tracer::Summarize() const {
  std::vector<SpanStats> stats(static_cast<size_t>(SpanName::kCount));
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<uint64_t> covered(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent == kNoParent) continue;
      const Span& parent = spans[span.parent];
      const uint64_t lo = std::max(span.start_ns, parent.start_ns);
      const uint64_t hi = std::min(span.end_ns, parent.end_ns);
      if (hi > lo) covered[span.parent] += hi - lo;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const uint64_t length = span.end_ns - span.start_ns;
      SpanStats& s = stats[static_cast<size_t>(span.name)];
      ++s.count;
      s.total_ns += length;
      s.self_ns += length - std::min(length, covered[i]);
    }
  }
  return stats;
}

bool Tracer::WriteOut(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# thread index parent name start_ns end_ns\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu %zu %lld %s %llu %llu\n", t, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   SpanNameString(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
