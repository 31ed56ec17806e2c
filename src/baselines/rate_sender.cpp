#include "baselines/rate_sender.hpp"

namespace rlacast::baselines {

namespace {

cc::AimdRateParams rate_params(const RateSenderParams& p) {
  cc::AimdRateParams rp;
  rp.initial_rate = p.initial_rate_pps;
  rp.min_rate = p.min_rate_pps;
  rp.max_rate = 1e6;  // pkt/s: above every bottleneck the benches build
  rp.dead_time = p.dead_time;
  return rp;
}

}  // namespace

RateBasedSender::RateBasedSender(net::Network& network, net::NodeId node,
                                 net::PortId port, net::GroupId group,
                                 net::FlowId flow, RateSenderParams params)
    : network_(network),
      sim_(network.simulator()),
      node_(node),
      port_(port),
      group_(group),
      flow_(flow),
      params_(params),
      rate_(rate_params(params)),
      send_timer_(sim_, [this] { send_next(); }),
      policy_timer_(sim_, [this] { policy_tick(); }) {
  network_.attach(node_, port_, this);
  rate_mean_.start(0.0, rate_.rate());
}

int RateBasedSender::add_receiver() {
  reported_loss_.push_back(0.0);
  return static_cast<int>(reported_loss_.size()) - 1;
}

void RateBasedSender::start_at(sim::SimTime when) {
  sim_.at(when, [this] {
    started_ = true;
    send_next();
    policy_tick();
  });
}

void RateBasedSender::on_receive(const net::Packet& p) {
  if (p.type != net::PacketType::kReport) return;
  if (p.receiver_id < 0 ||
      static_cast<std::size_t>(p.receiver_id) >= reported_loss_.size())
    return;
  reported_loss_[static_cast<std::size_t>(p.receiver_id)] =
      p.report_loss_rate;
}

void RateBasedSender::send_next() {
  if (!started_) return;
  net::Packet p;
  p.type = net::PacketType::kData;
  p.flow = flow_;
  p.src = node_;
  p.src_port = port_;
  p.group = group_;
  p.size_bytes = net::kDataPacketBytes;
  p.seq = next_seq_++;
  p.ts_echo = sim_.now();
  network_.inject(p);
  ++sent_;
  send_timer_.schedule(1.0 / rate_.rate());
}

void RateBasedSender::policy_tick() {
  // should_cut() runs first even when the dead time would block the cut:
  // RL-style policies draw from their RNG inside it, and the stream must
  // advance identically either way.
  if (!(should_cut() && rate_.try_cut(sim_.now()))) {
    // Linear increase: one packet per RTT per RTT, i.e. slope 1/RTT^2
    // packets per second per second, applied over the update interval.
    const double slope =
        1.0 / (params_.nominal_rtt * params_.nominal_rtt);
    rate_.increase(slope * params_.update_interval);
  }
  rate_mean_.update(sim_.now(), rate_.rate());
  policy_timer_.schedule(params_.update_interval);
}

}  // namespace rlacast::baselines
