// Queue discipline interface for router output buffers.
//
// The paper's evaluation contrasts two disciplines: drop-tail FIFO (the
// dominant Internet router of 1998) and RED.  Both are measured in packets —
// "all nodes have a buffer of size 20 packets".
#pragma once

#include <cstdint>
#include <optional>

#include "net/packet.hpp"
#include "replay/snapshot.hpp"

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
  ~Queue() override = default;

  /// Offers a packet at time `now`. Returns true if accepted; a false return
  /// means the packet was dropped (the caller discards it).
  virtual bool enqueue(const Packet& p, sim::SimTime now) = 0;

  /// Removes the head-of-line packet; nullopt when empty.
  virtual std::optional<Packet> dequeue(sim::SimTime now) = 0;

  /// Instantaneous backlog in packets.
  virtual std::size_t length() const = 0;

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
  void note_enqueue() { ++stats_.enqueued; }
  void note_dequeue() { ++stats_.dequeued; }
  void note_drop() { ++stats_.dropped; }

 private:
  QueueStats stats_;
};

}  // namespace rlacast::net
