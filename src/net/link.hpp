// Unidirectional link: output queue + transmitter + propagation pipe.
//
// Model (identical to ns-2's SimpleLink):
//  * a packet offered to a busy link goes to the queue (which may drop it);
//  * the transmitter serializes one packet at a time at `bandwidth` bit/s;
//  * after serialization the packet propagates for `delay` seconds, during
//    which the transmitter is free to serve the next packet (propagation is
//    pipelined, serialization is not).
//
// In-flight packets — the one being serialized and those in the propagation
// pipe — live in a small ring owned by the link; the pipeline events per hop
// (serialization end, propagation end) are thin callbacks referencing the
// link, so pumping a packet performs zero heap allocations and copies no
// Packet into closures.  Propagation delay is a per-link constant and
// serialization ends are strictly ordered, so deliveries pop the ring FIFO.
// The pipe is a sim::TimedFifo: each packet reserves its arrival's dispatch
// key at serialization end and only the head's arrival is armed, so the
// link holds at most two events (serializer, pipe head) however many
// packets are on the wire, and each arrival still dispatches under the key
// an event of its own would have had.
//
// Note on buffer semantics: the packet currently being serialized has left
// the queue, so a queue capacity of B packets admits B+1 packets on the hop.
// ns-2 counts the in-service packet against the limit; the difference of one
// packet is immaterial to the reproduced results (buffer 20) but is recorded
// here for honesty.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_fifo.hpp"

namespace rlacast::net {

class Network;

/// Fault-injection hook for one unidirectional link (implemented by
/// src/fault/; null = pristine link, zero overhead).  The link consults it
/// at the two points of the pipeline where real impairments act:
///  * transmit() — interface state: a down link discards offered packets
///    before they enter the queue (they were never transmitted);
///  * serialization end — the wire: a serialized packet may be corrupted
///    (lost), duplicated, or delayed (jitter) on its propagation leg.
/// Queue dynamics are never touched: congestion drops stay congestion
/// drops, and fault discards are counted separately (Link::fault_drops(),
/// stats::EngineCounters::fault_drops).
class LinkFaultHook {
 public:
  virtual ~LinkFaultHook() = default;

  /// Interface state at `now`. Called once per offered packet; a true
  /// return means that packet is discarded at the link entrance.
  virtual bool down(sim::SimTime now) = 0;

  /// Non-mutating interface probe: same answer as down() would give at
  /// `now`, but without counting a discarded packet.  Used by failure
  /// detectors (topo::FailoverManager) that poll interface health without
  /// offering traffic.  Default matches a pristine link.
  virtual bool peek_down(sim::SimTime /*now*/) const { return false; }

  struct WireVerdict {
    bool lost = false;             // corrupted on the wire, never arrives
    bool duplicated = false;       // one extra copy propagates
    sim::SimTime extra_delay = 0;  // jitter added to the propagation leg
  };

  /// Wire verdict for one serialized packet. Called once per packet that
  /// finishes serialization while the hook is installed.
  virtual WireVerdict wire(const Packet& p, sim::SimTime now) = 0;
};

class Link : public replay::Snapshotable {
 public:
  Link(sim::Simulator& sim, Network& network, NodeId from, NodeId to,
       double bandwidth_bps, sim::SimTime delay, std::unique_ptr<Queue> queue);

  ~Link() override;

  /// Offers a packet for transmission (from the `from` node).
  void transmit(const Packet& p);

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  sim::SimTime delay() const { return delay_; }

  Queue& queue() { return *queue_; }
  const Queue& queue() const { return *queue_; }

  /// Serialization time of a packet of `bytes` bytes.
  sim::SimTime tx_time(std::int32_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / bandwidth_bps_;
  }

  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// Packets rejected by the output queue at transmit() time.  Mirrors
  /// queue().stats().dropped but survives queue swaps and is the link-level
  /// answer to "did this hop silently discard traffic?".
  std::uint64_t drops() const { return drops_; }

  /// Packets currently on the hop: serializing + in the propagation pipe.
  std::size_t in_flight() const { return pipe_.size() + (busy_ ? 1u : 0u); }

  /// Deepest simultaneous in-flight occupancy seen (engine counter; bounded
  /// by the hop's bandwidth-delay product plus the serializer).
  std::size_t in_flight_hiwater() const { return inflight_hiwater_; }

  /// Installs (or clears, with nullptr) the fault-injection hook. The hook
  /// must outlive the link or be cleared before it dies, and must not be
  /// cleared while packets it jittered are still in flight: a later pristine
  /// arrival could then fall before them, and the pipe delivers in order.
  void set_fault_hook(LinkFaultHook* hook) { fault_ = hook; }
  const LinkFaultHook* fault_hook() const { return fault_; }

  /// Non-mutating "is the interface down right now?" probe for failure
  /// detectors; never counts a drop.  False on a pristine link.
  bool interface_down(sim::SimTime now) const {
    return fault_ != nullptr && fault_->peek_down(now);
  }

  /// Whether Network::build_routes() may use this link.  Backup links are
  /// created routing-disabled and flipped on by failover re-grafting; a
  /// disabled link still transmits fine if something routes onto it
  /// explicitly.  Default on (no behavior change for existing topologies).
  bool routing_enabled() const { return routing_enabled_; }
  void set_routing_enabled(bool on) { routing_enabled_ = on; }

  /// Packets discarded by injected faults (interface outage at transmit()
  /// plus wire loss at serialization end). Disjoint from drops().
  std::uint64_t fault_drops() const { return fault_drops_; }
  /// Extra packet copies delivered because of injected duplication.
  std::uint64_t fault_duplicates() const { return fault_duplicates_; }

  /// Checkpoint state: transmitter occupancy, pipe depth, and delivery /
  /// drop totals. The output queue snapshots separately (attached as
  /// "link-<from>-<to>/queue" beside this link's own registration).
  replay::Snapshot snapshot_state() const override;

 private:
  /// Hands a packet at the end of its propagation leg to the far node.
  struct Deliver {
    Network* network;
    NodeId to;
    void operator()(const Packet& p) const;
  };

  void pump();
  void on_serialized();

  sim::Simulator& sim_;
  Network& network_;
  NodeId from_;
  NodeId to_;
  double bandwidth_bps_;
  sim::SimTime delay_;
  std::unique_ptr<Queue> queue_;
  bool busy_ = false;
  Packet tx_pkt_;      // the packet being serialized (valid while busy_)
  sim::TimedFifo<Packet, Deliver> pipe_;  // serialized, still propagating
  std::size_t inflight_hiwater_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t drops_ = 0;
  LinkFaultHook* fault_ = nullptr;
  bool routing_enabled_ = true;
  sim::SimTime last_arrival_ = 0.0;  // monotone clamp keeping jittered
                                     // deliveries FIFO (pipe pops in order)
  std::uint64_t fault_drops_ = 0;
  std::uint64_t fault_duplicates_ = 0;
};

}  // namespace rlacast::net
