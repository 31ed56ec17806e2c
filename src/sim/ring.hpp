// Ring<T>: a growable FIFO ring owned by the component whose pipeline its
// elements are traversing — a Link's in-flight window, a SendPacer's pending
// departures, a queue's backlog, a SACK scoreboard's per-packet flags, the
// RLA sender's per-packet send records.
//
// The point is allocation behaviour: scheduled events reference the owning
// component (`this`) and pop from its ring, instead of capturing ~150-byte
// Packet copies inside chained closures.  Elements are copied in once, into
// their slot, and read in place from there: a packet's trip through a queue
// or a pipe costs one copy.  The ring grows geometrically to
// the pipeline's natural depth (bandwidth-delay product of the hop, burst
// depth of the pacer, the sender's window) and then recycles storage
// forever — steady-state traffic performs zero heap allocations.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace rlacast::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  /// The i-th oldest element (0 = front).
  T& operator[](std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  /// Copies `v` into the slot after the newest element and returns that
  /// slot, so the caller can adjust the stored copy in place.
  T& push_back(const T& v) {
    if (count_ == buf_.size()) grow();
    T& slot = buf_[(head_ + count_) & (buf_.size() - 1)];
    slot = v;
    ++count_;
    return slot;
  }

  /// Inserts `v` ahead of the oldest element (it becomes the new front).
  void push_front(const T& v) {
    if (count_ == buf_.size()) grow();
    head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
    buf_[head_] = v;
    ++count_;
  }

  /// Removes the oldest element.  Its slot is left as it was: a reference
  /// taken with front() still reads the element until pushes fill the ring
  /// up to that slot again (the slot is the last one they reuse).
  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 4 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  // Power-of-two capacity so the index wrap is a mask.
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace rlacast::sim
