// TimedFifo<T, Sink>: a FIFO event source — values that fall due in the
// order they were pushed — holding one scheduler event however many values
// it holds.
//
// push(at, v) reserves v's dispatch sequence number with take_seq() exactly
// where an event of its own would have been scheduled, copies v into a
// recycled Ring and keeps (at, seq) in a parallel one.  Only the head is
// armed (schedule_at_seq): the FIFO holds exactly one scheduled event while
// non-empty and none while empty.  When the head falls due it is popped and
// the next head armed before the value is handed to the sink, so a sink
// that re-enters push() finds the FIFO in that state.  Every value
// therefore dispatches under the key a per-value event would have had, and
// the heap holds one key for the whole source (a link's propagation pipe,
// a pacer's pending departures).
//
// The sink reads the value in its popped ring slot, not a copy.  The slot
// keeps the value until pushes fill the ring up to it again, so a sink that
// pushes onto its own FIFO must copy the value before it does (the sinks
// here hand packets to net::Network::inject, which takes its own copy, or
// to a node that can never reach the same FIFO synchronously).
//
// Keys must increase in both components: each push's time must not be
// earlier than the previous one's (sequence numbers increase by
// construction).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/ring.hpp"
#include "sim/scheduler.hpp"

namespace rlacast::sim {

template <typename T, typename Sink>
class TimedFifo {
 public:
  TimedFifo(Scheduler& sched, Sink sink)
      : sched_(sched), sink_(std::move(sink)) {}

  // Armed events capture `this`.
  TimedFifo(const TimedFifo&) = delete;
  TimedFifo& operator=(const TimedFifo&) = delete;

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  /// Appends a copy of `v`, due at `at`, and returns the stored copy; arms
  /// it if the FIFO was empty.
  T& push(SimTime at, const T& v) {
    assert(keys_.empty() || keys_[keys_.size() - 1].at <= at);
    T& stored = values_.push_back(v);
    keys_.push_back(Key{at, sched_.take_seq()});
    if (keys_.size() == 1) arm_head();
    return stored;
  }

 private:
  struct Key {
    SimTime at = 0.0;
    std::uint64_t seq = 0;
  };

  void arm_head() {
    const Key& head = keys_.front();
    auto due = [this] { fire(); };
    static_assert(SmallCallback::fits_inline<decltype(due)>(),
                  "FIFO head events must use the inline callback path");
    sched_.schedule_at_seq(head.at, head.seq, std::move(due));
  }

  void fire() {
    const T& value = values_.front();
    values_.pop_front();
    keys_.pop_front();
    if (!keys_.empty()) arm_head();
    sink_(value);
  }

  Scheduler& sched_;
  Sink sink_;
  Ring<T> values_;  // values_[i] is due under keys_[i]
  Ring<Key> keys_;
};

}  // namespace rlacast::sim
