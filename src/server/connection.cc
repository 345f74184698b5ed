#include "server/connection.h"

namespace next700 {
namespace server {

uint64_t Connection::AdmitRequest() {
  const uint64_t seq = next_seq_++;
  order_.push_back(seq);
  return seq;
}

void Connection::Complete(uint64_t seq,
                          std::vector<uint8_t> encoded_response) {
  completed_.emplace(seq, std::move(encoded_response));
}

size_t Connection::FlushOrdered() {
  size_t released = 0;
  while (!order_.empty()) {
    auto it = completed_.find(order_.front());
    if (it == completed_.end()) break;
    out_bytes_ += it->second.size();
    out_q_.push_back(std::move(it->second));
    completed_.erase(it);
    order_.pop_front();
    ++released;
  }
  return released;
}

void Connection::EnqueueRaw(const uint8_t* data, size_t len) {
  if (len == 0) return;
  out_bytes_ += len;
  out_q_.emplace_back(data, data + len);
}

int Connection::BuildIovec(struct iovec* iov) const {
  int count = 0;
  size_t off = front_off_;
  for (const auto& frame : out_q_) {
    if (count == kMaxIov) break;
    iov[count].iov_base =
        const_cast<uint8_t*>(frame.data()) + off;
    iov[count].iov_len = frame.size() - off;
    ++count;
    off = 0;
  }
  return count;
}

void Connection::ConsumeWritten(size_t n) {
  out_bytes_ -= n;
  while (n > 0) {
    std::vector<uint8_t>& front = out_q_.front();
    const size_t remaining = front.size() - front_off_;
    if (n < remaining) {
      front_off_ += n;
      return;
    }
    n -= remaining;
    front_off_ = 0;
    out_q_.pop_front();
  }
}

uint8_t* Connection::EnsureReadBuffer(size_t len) {
  // No zero-fill: the kernel writes every byte a read reports.
  if (read_buf_ == nullptr) {
    read_buf_ = std::make_unique_for_overwrite<uint8_t[]>(len);
  }
  return read_buf_.get();
}

}  // namespace server
}  // namespace next700
