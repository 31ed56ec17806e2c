#include "tcp/tcp_receiver.hpp"

#include <string>

namespace rlacast::tcp {

TcpReceiver::TcpReceiver(net::Network& network, net::NodeId node,
                         net::PortId port, sim::SimTime max_ack_overhead)
    : network_(network),
      node_(node),
      port_(port),
      ack_pacer_(network.simulator(), network,
                 network.simulator().rng_stream(
                     "tcp-ack-overhead-" + std::to_string(node) + "-" +
                     std::to_string(port)),
                 max_ack_overhead) {
  network_.attach(node_, port_, this);
}

void TcpReceiver::on_receive(const net::Packet& p) {
  if (p.type != net::PacketType::kData) return;
  if (buf_.add(p.seq))
    ++received_;
  else
    ++duplicates_;

  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.flow = p.flow;
  ack.src = node_;
  ack.dst = p.src;
  ack.src_port = port_;
  ack.dst_port = p.src_port;
  ack.size_bytes = net::kAckPacketBytes;
  ack.ack = buf_.cum_ack();
  ack.seq = p.seq;          // seq that triggered this ACK (for Karn check)
  ack.ts_echo = p.ts_echo;  // sender timestamp echo
  ack.ece = p.ce;           // echo a congestion-experienced mark (ECN)
  ack.n_sack = static_cast<std::uint8_t>(
      buf_.sack_blocks(ack.sack.data(), net::kMaxSackBlocks));
  ack_pacer_.send(ack);
}

}  // namespace rlacast::tcp
