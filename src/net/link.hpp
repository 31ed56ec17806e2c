// Unidirectional link: output queue + transmitter + propagation pipe.
//
// Model (identical to ns-2's SimpleLink):
//  * a packet offered to a busy link goes to the queue (which may drop it);
//  * the transmitter serializes one packet at a time at `bandwidth` bit/s;
//  * after serialization the packet propagates for `delay` seconds, during
//    which the transmitter is free to serve the next packet (propagation is
//    pipelined, serialization is not).
//
// A packet is copied once per hop, into its pipe slot.  The queue holds
// packets only while the transmitter is busy, so a packet offered to a free
// transmitter takes only the queue's admission decision
// (Queue::pass_through: the same verdict, counters and RED state as storing
// it and serving it at once) and goes onto the wire; a waiting packet is
// copied from its queue slot into the pipe when the transmitter frees up.
// Both go onto the wire through start().
//
// Events follow ns-2's order.  When a packet starts transmitting its fate
// on the wire is settled at once: it enters the propagation pipe, due at
// serialization end + delay, and only then is the transmitter's end key
// (busy_until_, end_seq_) reserved, as LinkDelay::recv schedules target_
// before intr_.  The pipe is a sim::TimedFifo: each packet keeps its
// arrival key beside it in a ring and only the head's arrival is armed, so
// starting a packet performs zero heap allocations and every arrival still
// dispatches under the key an event of its own would have had.  Propagation
// delay is a per-link constant and starts are strictly ordered, so
// deliveries pop the ring FIFO.
//
// The serializer end is an event only when a packet waits behind a busy
// transmitter: transmit() then schedules it under exactly the reserved end
// key, and it re-arms itself while the queue is non-empty.  A hop with no
// backlog costs one event per packet (its arrival), a backlogged hop two,
// and every event runs under the key it has when each serializer end is an
// event.  Whether the transmitter is free is a key comparison
// (sim::Scheduler::passed): a packet offered at exactly busy_until_ starts
// only if the offering event orders after the end key.
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
///  * transmission start — the wire: the packet may be corrupted (lost),
///    duplicated, or delayed (jitter) on its propagation leg.  The verdict
///    is drawn when the packet starts serializing, for the time its
///    serialization ends, and applied to the wire.
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

  /// Wire verdict for one packet whose serialization ends at `now`. Called
  /// once per packet that starts serializing while the hook is installed.
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

  /// Packets (and their bytes) that finished serialization onto the wire;
  /// wire losses excluded.
  std::uint64_t packets_delivered() const {
    return delivered_ - (in_service_delivers() ? 1u : 0u);
  }
  std::uint64_t bytes_delivered() const {
    return bytes_delivered_ -
           (in_service_delivers() ? static_cast<std::uint64_t>(tx_bytes_) : 0u);
  }

  /// Packets rejected by the output queue at transmit() time.  Mirrors
  /// queue().stats().dropped but survives queue swaps and is the link-level
  /// answer to "did this hop silently discard traffic?".
  std::uint64_t drops() const { return drops_; }

  /// Packets currently on the hop: the one serializing and those
  /// propagating, all of which sit in the pipe (a packet lost on the wire
  /// never enters it).
  std::size_t in_flight() const { return pipe_.size(); }

  /// Deepest simultaneous in-flight occupancy seen (engine counter; bounded
  /// by the hop's bandwidth-delay product plus the serializer, and a
  /// duplicate's copy on a faulted wire).
  std::size_t in_flight_hiwater() const { return inflight_hiwater_; }

  /// Installs (or clears, with nullptr) the fault-injection hook; packets
  /// that start serializing afterwards get its verdicts. The hook
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
  /// plus wire loss, counted when the lost packet starts serializing).
  /// Disjoint from drops().
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

  /// True until the end key of the packet last started has passed.
  bool serializing() const {
    return !sim_.scheduler().passed(busy_until_, end_seq_);
  }
  /// Whether the packet in service is counted in delivered_ already.
  bool in_service_delivers() const { return tx_bytes_ >= 0 && serializing(); }

  /// Puts `p` on the wire, with its CE bit set if `ce`: draws its wire
  /// verdict, copies it into the pipe and reserves the transmitter's end
  /// key.  The one path onto the wire, for a packet offered to a free
  /// transmitter and for the head of the queue at a serializer end.
  void start(const Packet& p, bool ce);
  /// Schedules the serializer end under the reserved end key.
  void arm_end();
  void on_serialized();

  sim::Simulator& sim_;
  Network& network_;
  NodeId from_;
  NodeId to_;
  double bandwidth_bps_;
  sim::SimTime delay_;
  std::unique_ptr<Queue> queue_;
  sim::SimTime busy_until_ = 0.0;  // with end_seq_, the transmitter's end
  std::uint64_t end_seq_ = 0;      // key; (0, 0) has passed from the start
  bool end_armed_ = false;         // the serializer-end event is scheduled
  std::int32_t tx_bytes_ = -1;     // bytes of the last packet started; -1
                                   // if the wire lost it (never delivered)
  sim::TimedFifo<Packet, Deliver> pipe_;  // on the wire, not yet arrived
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
