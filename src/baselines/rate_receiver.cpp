#include "baselines/rate_receiver.hpp"

#include <algorithm>

namespace rlacast::baselines {

namespace {

constexpr sim::SimTime kMonitorPeriod = 1.0;  // one loss report per period
constexpr double kLossEwmaGain = 0.25;

}  // namespace

RateReceiver::RateReceiver(net::Network& network, net::NodeId node,
                           net::PortId port, net::GroupId group,
                           net::NodeId sender_node, net::PortId sender_port,
                           int id)
    : network_(network),
      sim_(network.simulator()),
      node_(node),
      port_(port),
      group_(group),
      sender_node_(sender_node),
      sender_port_(sender_port),
      id_(id),
      report_timer_(sim_, [this] { emit_report(); }),
      loss_(kLossEwmaGain) {
  network_.attach(node_, port_, this);
  network_.subscribe(group_, node_, this);
}

void RateReceiver::start_at(sim::SimTime when) {
  sim_.at(when, [this] { emit_report(); });
}

void RateReceiver::on_receive(const net::Packet& p) {
  if (p.type != net::PacketType::kData) return;
  ++received_;
  ++period_received_;
  highest_seen_ = std::max(highest_seen_, p.seq);
}

void RateReceiver::emit_report() {
  // Expected-packets estimate over the period from the sequence progress;
  // anything missing counts as loss. Out-of-period stragglers make the
  // estimate slightly optimistic, which every threshold scheme shares.
  const std::int64_t expected = highest_seen_ - period_start_seq_;
  if (expected > 0) {
    const double loss = std::clamp(
        1.0 - static_cast<double>(period_received_) /
                  static_cast<double>(expected),
        0.0, 1.0);
    loss_.add(loss);
  }
  period_start_seq_ = highest_seen_;
  period_received_ = 0;

  net::Packet rep;
  rep.type = net::PacketType::kReport;
  rep.src = node_;
  rep.dst = sender_node_;
  rep.src_port = port_;
  rep.dst_port = sender_port_;
  rep.size_bytes = net::kAckPacketBytes;
  rep.receiver_id = id_;
  rep.report_loss_rate = loss_.initialized() ? loss_.value() : 0.0;
  rep.report_received = period_received_;
  network_.inject(rep);

  report_timer_.schedule(kMonitorPeriod);
}

}  // namespace rlacast::baselines
