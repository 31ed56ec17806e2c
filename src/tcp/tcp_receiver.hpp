// TCP SACK receiver: acknowledges every data packet with a cumulative ACK
// plus up to three SACK blocks (RFC 2018), echoing the sender timestamp for
// RTT measurement.  The receiving application is infinitely fast (the paper's
// assumption), so data is consumed immediately.
#pragma once

#include "net/agent.hpp"
#include "net/network.hpp"
#include "tcp/reassembly.hpp"

namespace rlacast::tcp {

class TcpReceiver final : public net::Agent {
 public:
  /// `max_ack_overhead` adds Uniform(0, max) processing time per ACK — the
  /// §3.1 phase-effect randomization on the feedback path (drop-tail runs).
  TcpReceiver(net::Network& network, net::NodeId node, net::PortId port,
              sim::SimTime max_ack_overhead = 0.0);

  void on_receive(const net::Packet& p) override;

  const ReassemblyBuffer& buffer() const { return buf_; }
  std::uint64_t data_packets_received() const { return received_; }
  std::uint64_t duplicates_received() const { return duplicates_; }

 private:
  net::Network& network_;
  net::NodeId node_;
  net::PortId port_;
  net::SendPacer ack_pacer_;
  ReassemblyBuffer buf_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace rlacast::tcp
