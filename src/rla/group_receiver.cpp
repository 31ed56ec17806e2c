#include "rla/group_receiver.hpp"

#include <string>
#include <utility>

namespace rlacast::rla {

namespace {

/// Urgent-repair request (the paper's receiver-triggered immediate unicast
/// retransmission) after this many consecutive data arrivals with an
/// unchanged cumulative point and data above it.  One member's ACK carries
/// the flag per trigger — a single unicast repair refills the shared
/// buffer for the whole group.
constexpr int kUrgentAfterStuckAcks = 8;

}  // namespace

GroupReceiver::GroupReceiver(net::Network& network, net::NodeId node,
                             net::PortId port, net::GroupId group,
                             net::NodeId sender_node, net::PortId sender_port,
                             std::vector<int> member_ids,
                             sim::SimTime max_ack_overhead)
    : network_(network),
      node_(node),
      port_(port),
      group_(group),
      sender_node_(sender_node),
      sender_port_(sender_port),
      members_(std::move(member_ids)),
      ack_pacer_(network.simulator(), network,
                 network.simulator().rng_stream(
                     "rla-ack-overhead-" + std::to_string(node) + "-g" +
                     std::to_string(members_.empty() ? -1 : members_.front())),
                 max_ack_overhead) {
  network_.attach(node_, port_, this);
  network_.subscribe(group_, node_, this);
}

void GroupReceiver::on_receive(const net::Packet& p) {
  if (p.type != net::PacketType::kData) return;
  if (buf_.add(p.seq)) ++received_;

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
  ack.n_sack = static_cast<std::uint8_t>(
      buf_.sack_blocks(ack.sack.data(), net::kMaxSackBlocks));

  // Urgent-repair request when the shared buffer's hole persists; carried
  // on the first member's ACK only (one unicast repair fills it for all).
  bool urgent = false;
  if (buf_.cum_ack() == stuck_cum_ && buf_.highest() > buf_.cum_ack()) {
    if (++stuck_acks_ >= kUrgentAfterStuckAcks) {
      urgent = true;
      ++urgent_requests_;
      stuck_acks_ = 0;
    }
  } else {
    stuck_cum_ = buf_.cum_ack();
    stuck_acks_ = 0;
  }

  // One feedback packet per member: the group shares one buffer but not
  // one voice — sender-side state, census liveness, and reverse-path load
  // all scale with the real membership.
  for (int id : members_) {
    ack.receiver_id = id;
    ack.urgent_rexmit_request = urgent && id == members_.front();
    ack_pacer_.send(ack);
    ++acks_sent_;
  }
}

}  // namespace rlacast::rla
