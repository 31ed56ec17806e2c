// Agent: an endpoint protocol entity attached to a node.
//
// Agents receive packets addressed to (their node, their port) or multicast
// to a group they subscribed to.  They send by handing packets to the
// Network, optionally through a SendPacer that models per-packet sender
// processing overhead — the mechanism §3.1 of the paper uses to break
// drop-tail phase effects ("a uniformly distributed random processing time
// up to the bottleneck server service time").
#pragma once

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_fifo.hpp"

namespace rlacast::net {

class Network;

class Agent {
 public:
  virtual ~Agent() = default;

  /// Called by the node when a packet is delivered to this agent.
  virtual void on_receive(const Packet& p) = 0;
};

/// Serializing send path with optional uniform random per-packet overhead.
/// With max_overhead == 0 packets are injected immediately (in order).
/// With max_overhead > 0 each packet waits Uniform(0, max_overhead) of
/// "processing time"; departures remain in FIFO order.
///
/// Pending packets wait in a sim::TimedFifo owned by the pacer: each
/// reserves its departure's dispatch key when it is sent and only the
/// head's departure is armed (no Packet captured in a closure, no
/// allocation on the send path), so each departure dispatches under the
/// key an event of its own would have had.
class SendPacer {
 public:
  SendPacer(sim::Simulator& sim, Network& network, sim::Rng rng,
            sim::SimTime max_overhead = 0.0)
      : sim_(sim),
        network_(network),
        rng_(std::move(rng)),
        max_overhead_(max_overhead),
        pending_(sim.scheduler(), Inject{&network}) {}

  /// Sends (or schedules the send of) a packet.
  void send(const Packet& p);

 private:
  /// Injects a packet whose processing time has elapsed.
  struct Inject {
    Network* network;
    void operator()(const Packet& p) const;
  };

  sim::Simulator& sim_;
  Network& network_;
  sim::Rng rng_;
  const sim::SimTime max_overhead_;
  sim::SimTime last_departure_ = 0.0;
  sim::TimedFifo<Packet, Inject> pending_;
};

}  // namespace rlacast::net
