#include "workload/onoff_source.hpp"

namespace rlacast::workload {

namespace {

constexpr sim::SimTime kMeanOn = 1.0;   // exponential mean ON duration, s
constexpr sim::SimTime kMeanOff = 1.0;  // exponential mean OFF duration, s

}  // namespace

PacketSink::PacketSink(net::Network& network, net::NodeId node,
                       net::PortId port) {
  network.attach(node, port, this);
}

void PacketSink::on_receive(const net::Packet& p) {
  if (p.type == net::PacketType::kData) ++received_;
}

OnOffSource::OnOffSource(net::Network& network, net::NodeId node,
                         net::PortId port, net::NodeId dst_node,
                         net::PortId dst_port, net::FlowId flow,
                         const std::string& name, OnOffConfig config)
    : network_(network),
      sim_(network.simulator()),
      node_(node),
      port_(port),
      dst_node_(dst_node),
      dst_port_(dst_port),
      flow_(flow),
      config_(config),
      rng_(sim_.rng_stream(name)),
      gate_timer_(sim_, [this] {
        if (on_)
          begin_off();
        else
          begin_on();
      }),
      send_timer_(sim_, [this] { emit(); }) {}

void OnOffSource::start_at(sim::SimTime when) {
  sim_.at(when, [this] { begin_on(); });
}

void OnOffSource::begin_on() {
  on_ = true;
  gate_timer_.schedule(rng_.exponential(kMeanOn));
  emit();
}

void OnOffSource::begin_off() {
  on_ = false;
  send_timer_.cancel();
  gate_timer_.schedule(rng_.exponential(kMeanOff));
}

void OnOffSource::emit() {
  if (!on_ || config_.rate_pps <= 0.0) return;
  net::Packet p;
  p.type = net::PacketType::kData;
  p.flow = flow_;
  p.src = node_;
  p.dst = dst_node_;
  p.src_port = port_;
  p.dst_port = dst_port_;
  p.size_bytes = net::kDataPacketBytes;
  p.seq = next_seq_++;
  network_.inject(p);
  ++sent_;
  send_timer_.schedule(1.0 / config_.rate_pps);
}

}  // namespace rlacast::workload
