// TimedFifo<T, Sink>: a FIFO event source — values that fall due in the
// order they were pushed — holding one scheduler event however many values
// it holds.
//
// push(at, v) reserves v's dispatch sequence number with take_seq() exactly
// where an event of its own would have been scheduled, and keeps (at, seq)
// beside v in a recycled Ring.  Only the head is armed (schedule_at_seq):
// the FIFO holds exactly one scheduled event while non-empty and none while
// empty.  When the head falls due it is popped and the next head armed
// before the value is handed to the sink, so a sink that re-enters push()
// finds the FIFO in that state.  Every value therefore dispatches under the
// key a per-value event would have had, and the heap holds one key for the
// whole source (a link's propagation pipe, a pacer's pending departures).
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

  bool empty() const { return ring_.empty(); }
  std::size_t size() const { return ring_.size(); }

  /// Appends `v`, due at `at`; arms it if the FIFO was empty.
  void push(SimTime at, T v) {
    assert(ring_.empty() || ring_[ring_.size() - 1].at <= at);
    ring_.push_back(Entry{std::move(v), at, sched_.take_seq()});
    if (ring_.size() == 1) arm_head();
  }

 private:
  struct Entry {
    T value;
    SimTime at = 0.0;
    std::uint64_t seq = 0;
  };

  void arm_head() {
    const Entry& head = ring_.front();
    auto due = [this] { fire(); };
    static_assert(SmallCallback::fits_inline<decltype(due)>(),
                  "FIFO head events must use the inline callback path");
    sched_.schedule_at_seq(head.at, head.seq, std::move(due));
  }

  void fire() {
    Entry head = ring_.pop_front();
    if (!ring_.empty()) arm_head();
    sink_(std::move(head.value));
  }

  Scheduler& sched_;
  Sink sink_;
  Ring<Entry> ring_;
};

}  // namespace rlacast::sim
