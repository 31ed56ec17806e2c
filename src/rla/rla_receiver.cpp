#include "rla/rla_receiver.hpp"

#include <string>

namespace rlacast::rla {

namespace {

/// The ACK-jitter stream label. Two sessions' receivers can share a node
/// and an index, so every session but the first (group 1, the only group
/// of single-session runs, whose labels and seeds stay as they were) also
/// names its group.
std::string ack_overhead_label(net::NodeId node, int id, net::GroupId group) {
  std::string label =
      "rla-ack-overhead-" + std::to_string(node) + "-" + std::to_string(id);
  if (group != 1) label += "-g" + std::to_string(group);
  return label;
}

}  // namespace

RlaReceiver::RlaReceiver(net::Network& network, net::NodeId node,
                         net::PortId port, net::GroupId group,
                         net::NodeId sender_node, net::PortId sender_port,
                         int id, Options options)
    : network_(network),
      node_(node),
      port_(port),
      group_(group),
      sender_node_(sender_node),
      sender_port_(sender_port),
      id_(id),
      options_(options),
      ack_pacer_(network.simulator(), network,
                 network.simulator().rng_stream(
                     ack_overhead_label(node, id, group)),
                 options.max_ack_overhead) {
  // Unicast retransmissions arrive addressed to (node, port); multicast
  // payload arrives via the group subscription.
  network_.attach(node_, port_, this);
  network_.subscribe(group_, node_, this);
}

void RlaReceiver::on_receive(const net::Packet& p) {
  if (silenced_) return;  // crashed host: packets fall on the floor
  if (p.type != net::PacketType::kData) return;
  if (options_.resume_at_first_packet && buf_.cum_ack() == 0 &&
      buf_.highest() == 0 && p.seq > 0)
    buf_.start_at(p.seq);
  if (buf_.add(p.seq))
    ++received_;
  else
    ++duplicates_;

  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.flow = p.flow;
  ack.src = node_;
  ack.dst = sender_node_;
  ack.src_port = port_;
  ack.dst_port = sender_port_;
  ack.size_bytes = net::kAckPacketBytes;
  ack.ack = buf_.cum_ack();
  ack.seq = p.seq;
  ack.ts_echo = p.ts_echo;
  ack.ece = p.ce;  // echo a congestion-experienced mark (ECN)
  ack.receiver_id = id_;
  ack.n_sack = static_cast<std::uint8_t>(
      buf_.sack_blocks(ack.sack.data(), net::kMaxSackBlocks));

  if (ack_tap_ != nullptr) {
    const AckTap::Verdict v = ack_tap_->on_ack(ack, network_.simulator().now());
    if (v.suppress) return;
    ack_pacer_.send(ack);
    for (int i = 0; i < v.extra_copies; ++i) ack_pacer_.send(ack);
    return;
  }
  ack_pacer_.send(ack);
}

}  // namespace rlacast::rla
