// OnOffSource: unreliable CBR datagram cross-traffic, gated by exponential
// on/off periods of mean 1 s each (the classic interrupted-Poisson shape).
//
// During an ON period the source emits evenly spaced fixed-size data
// packets at `rate_pps`.  OFF periods are silent.  There is no congestion control and
// no retransmission: this is the inelastic traffic the paper's TCP and RLA
// flows must survive next to, not compete with politely.
//
// All randomness (period lengths) comes from the source's named
// Rng stream, so the emission schedule is bit-identical across --jobs and
// journals cleanly through src/replay/.  PacketSink counts arrivals so
// benches can report the cross-traffic's delivered rate.
#pragma once

#include <cstdint>
#include <string>

#include "net/agent.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace rlacast::workload {

struct OnOffConfig {
  double rate_pps = 50.0;  // emission rate while ON
};

/// Terminal counter for datagram traffic (no ACKs, no feedback).
class PacketSink final : public net::Agent {
 public:
  PacketSink(net::Network& network, net::NodeId node, net::PortId port);
  void on_receive(const net::Packet& p) override;
  std::int64_t packets_received() const { return received_; }

 private:
  std::int64_t received_ = 0;
};

class OnOffSource {
 public:
  /// Emits flow `flow` from (`node`, `port`) towards (`dst_node`,
  /// `dst_port`); `name` keys the Rng stream (e.g. "workload-onoff-5").
  OnOffSource(net::Network& network, net::NodeId node, net::PortId port,
              net::NodeId dst_node, net::PortId dst_port, net::FlowId flow,
              const std::string& name, OnOffConfig config);

  /// First ON period begins at `when`.
  void start_at(sim::SimTime when);

  std::int64_t packets_sent() const { return sent_; }
  bool on() const { return on_; }

 private:
  void begin_on();
  void begin_off();
  void emit();

  net::Network& network_;
  sim::Simulator& sim_;
  net::NodeId node_;
  net::PortId port_;
  net::NodeId dst_node_;
  net::PortId dst_port_;
  net::FlowId flow_;
  OnOffConfig config_;
  sim::Rng rng_;
  sim::Timer gate_timer_;  // flips ON <-> OFF
  sim::Timer send_timer_;  // next packet within an ON period
  bool on_ = false;
  std::int64_t sent_ = 0;
  net::SeqNum next_seq_ = 0;
};

}  // namespace rlacast::workload
