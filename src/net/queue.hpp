// Queue discipline interface for router output buffers.
//
// The paper's evaluation contrasts two disciplines: drop-tail FIFO (the
// dominant Internet router of 1998) and RED.  Both are measured in packets —
// "all nodes have a buffer of size 20 packets".
//
// A discipline is only its admission decision: admit() looks at an offered
// packet and the backlog and answers drop, accept or accept-and-mark (RED's
// ECN).  Queue owns the storage — one packet ring and its byte count — and
// the counters, so every discipline stores, serves and counts alike.  RED
// also hears when the queue goes idle, for its idle-time aging.
//
// Storage is a copy of the packet in a ring slot; the link serves the head
// by reading front() in place and then pop()ping it.  A link whose
// transmitter is free offers through pass_through() instead: the queue is
// empty then, and the packet only needs the decision enqueue() would make
// on its way to the wire.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>

#include "net/packet.hpp"
#include "replay/snapshot.hpp"
#include "sim/ring.hpp"

namespace rlacast::net {

/// Cumulative counters every queue maintains; read by scenario harnesses and
/// tests to compute loss rates per gateway.
struct QueueStats {
  std::uint64_t enqueued = 0;   // accepted packets
  std::uint64_t dropped = 0;    // rejected/discarded packets
  std::uint64_t dequeued = 0;

  double drop_rate() const {
    const double arrivals = static_cast<double>(enqueued + dropped);
    return arrivals > 0.0 ? static_cast<double>(dropped) / arrivals : 0.0;
  }
};

class Queue : public replay::Snapshotable {
 public:
  /// An admission decision.  kMark accepts the packet with its CE bit set.
  enum class Verdict : std::uint8_t { kDrop, kAccept, kMark };

  ~Queue() override = default;

  /// Offers a packet at time `now` and stores it if admitted. Returns true
  /// if accepted; a false return means the packet was dropped (the caller
  /// discards it).
  bool enqueue(const Packet& p, sim::SimTime now) {
    const Verdict v = admit(p, now);
    if (v == Verdict::kDrop) {
      ++stats_.dropped;
      return false;
    }
    Packet& stored = q_.push_back(p);
    if (v == Verdict::kMark) stored.ce = true;
    bytes_ += p.size_bytes;
    ++stats_.enqueued;
    return true;
  }

  /// Offers a packet to an empty queue whose server takes it at once: the
  /// decision enqueue() would make, counted as an enqueue and a dequeue at
  /// `now` as enqueue() then dequeue() would count them, without storing
  /// the packet.  The caller sends an accepted packet on, with its CE bit
  /// set on kMark.
  Verdict pass_through(const Packet& p, sim::SimTime now) {
    assert(q_.empty());
    const Verdict v = admit(p, now);
    if (v == Verdict::kDrop) {
      ++stats_.dropped;
    } else {
      ++stats_.enqueued;
      ++stats_.dequeued;
      went_idle(now);
    }
    return v;
  }

  /// The head-of-line packet, in its slot; the queue must not be empty.
  const Packet& front() const { return q_.front(); }

  /// Removes the head-of-line packet at `now`; the queue must not be empty.
  void pop(sim::SimTime now) {
    bytes_ -= q_.front().size_bytes;
    q_.pop_front();
    ++stats_.dequeued;
    if (q_.empty()) went_idle(now);
  }

  /// Removes and returns the head-of-line packet; nullopt when empty.
  std::optional<Packet> dequeue(sim::SimTime now) {
    if (q_.empty()) return std::nullopt;
    std::optional<Packet> p = q_.front();
    pop(now);
    return p;
  }

  /// Instantaneous backlog in packets.
  std::size_t length() const { return q_.size(); }

  /// Instantaneous backlog in bytes.
  std::int64_t bytes() const { return bytes_; }

  const QueueStats& stats() const { return stats_; }

  /// Checkpoint state: backlog + cumulative counters. Disciplines with
  /// internal estimator state (RED) extend this.
  replay::Snapshot snapshot_state() const override {
    replay::Snapshot s;
    s.put("length", length());
    s.put("enqueued", stats_.enqueued);
    s.put("dropped", stats_.dropped);
    s.put("dequeued", stats_.dequeued);
    return s;
  }

 protected:
  /// The discipline's decision on `p`, offered at `now` to the current
  /// backlog.  Called exactly once per offered packet.
  virtual Verdict admit(const Packet& p, sim::SimTime now) = 0;

  /// The last packet left at `now`; the queue is empty.
  virtual void went_idle(sim::SimTime /*now*/) {}

 private:
  sim::Ring<Packet> q_;
  std::int64_t bytes_ = 0;
  QueueStats stats_;
};

}  // namespace rlacast::net
