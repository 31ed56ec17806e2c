// Aggregated RLA receiver: g co-located session members behind one leaf.
//
// The large-topology builder (topo/big_tree) collapses a subtree of `g`
// real receivers into a single simulation node so that simulator memory
// does not mask the quantity under test — SENDER memory per receiver.
// Everything below the group's access link is identical for its members
// (same loss pattern, same delay), so one reassembly buffer suffices; what
// must NOT be collapsed is the feedback volume: the sender still hears one
// ACK per member per delivered data packet, each carrying that member's
// receiver id, exactly as if the g receivers ran separately.  The group's
// ACK pacer draws a Uniform(0, max_ack_overhead) processing delay per ACK,
// which doubles as the per-host jitter that keeps the synchronized
// multicast delivery from arriving at shared reverse queues as one burst.
//
// Unicast repairs addressed to the shared (node, port) satisfy the common
// buffer and are acknowledged by every member, mirroring the fact that a
// repair reaching the group's subtree reaches all of it.
#pragma once

#include <cstdint>
#include <vector>

#include "net/agent.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"
#include "tcp/reassembly.hpp"

namespace rlacast::rla {

class GroupReceiver final : public net::Agent {
 public:
  /// `member_ids` are the session receiver indices this leaf answers for
  /// (one sender-side census entry each, registered by the caller through
  /// RlaSender::add_receiver with this node/port).  `max_ack_overhead` is
  /// the random per-ACK processing time, Uniform(0, max); see the header
  /// note.
  GroupReceiver(net::Network& network, net::NodeId node, net::PortId port,
                net::GroupId group, net::NodeId sender_node,
                net::PortId sender_port, std::vector<int> member_ids,
                sim::SimTime max_ack_overhead);

  void on_receive(const net::Packet& p) override;

  std::size_t member_count() const { return members_.size(); }
  const tcp::ReassemblyBuffer& buffer() const { return buf_; }
  std::uint64_t data_packets_received() const { return received_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t urgent_requests_sent() const { return urgent_requests_; }

 private:
  net::Network& network_;
  net::NodeId node_;
  net::PortId port_;
  net::GroupId group_;
  net::NodeId sender_node_;
  net::PortId sender_port_;
  std::vector<int> members_;

  net::SendPacer ack_pacer_;
  tcp::ReassemblyBuffer buf_;
  std::uint64_t received_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t urgent_requests_ = 0;
  net::SeqNum stuck_cum_ = -1;
  int stuck_acks_ = 0;
};

}  // namespace rlacast::rla
