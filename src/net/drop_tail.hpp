// Drop-tail FIFO queue: finite buffer, arrivals beyond capacity discarded.
//
// This is the gateway type §3.1 of the paper analyses: buffer occupancy
// oscillates between near-empty and full ("buffer periods"), and the drop
// pattern is phase-sensitive — which is why the protocols add random sender
// overhead when operating across drop-tail gateways.
#pragma once

#include "net/queue.hpp"

namespace rlacast::net {

class DropTailQueue final : public Queue {
 public:
  /// `capacity` is the total buffer size in packets (including the packet in
  /// service, as in ns-2). With `slot_bytes > 0` the buffer is accounted in
  /// bytes instead — capacity * slot_bytes total — so small packets (ACKs)
  /// consume proportionally less room, matching ns-2's queue-in-bytes mode.
  /// Byte accounting matters on feedback paths: a multicast data packet
  /// reaching N receivers at once triggers N simultaneous 40-byte ACKs,
  /// which must not overflow a buffer sized for 1000-byte data packets.
  explicit DropTailQueue(std::size_t capacity, std::int32_t slot_bytes = 0)
      : capacity_(capacity), slot_bytes_(slot_bytes) {}

  std::size_t capacity() const { return capacity_; }
  bool byte_mode() const { return slot_bytes_ > 0; }

 private:
  Verdict admit(const Packet& p, sim::SimTime now) override;

  std::size_t capacity_;
  std::int32_t slot_bytes_;
};

}  // namespace rlacast::net
