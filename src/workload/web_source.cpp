#include "workload/web_source.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace rlacast::workload {

namespace {

/// Pareto(shape, scale) transfer size: P[X > x] = (scale/x)^shape for
/// x >= scale.  Shape in (1, 2) gives the heavy tail with finite mean the
/// web-traffic literature measures; scale is the minimum transfer in
/// packets.
constexpr double kParetoShape = 1.3;
constexpr double kParetoScale = 6.0;

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

WebFlowSource::WebFlowSource(net::Network& network, net::NodeId src_node,
                             net::NodeId dst_node, net::PortId src_port_base,
                             net::PortId dst_port_base, net::FlowId flow_base,
                             const std::string& name, WebConfig config)
    : network_(network),
      sim_(network.simulator()),
      src_node_(src_node),
      dst_node_(dst_node),
      src_port_base_(src_port_base),
      dst_port_base_(dst_port_base),
      flow_base_(flow_base),
      name_(name),
      config_(config),
      rng_(sim_.rng_stream(name)),
      timer_(sim_, [this] { start_fetch(); }) {}

void WebFlowSource::start_at(sim::SimTime when) {
  sim_.at(when, [this] { think(); });
}

void WebFlowSource::think() {
  thinking_ = true;
  limited_mark_ = true;
  timer_.schedule(rng_.exponential(config_.mean_think));
}

std::int64_t WebFlowSource::draw_size() {
  // Inverse transform: X = scale * U^(-1/shape). One draw per flow.
  const double u = std::max(rng_.uniform(), 1e-12);
  const double size = kParetoScale * std::pow(u, -1.0 / kParetoShape);
  const auto pkts = static_cast<std::int64_t>(std::ceil(size));
  return std::clamp<std::int64_t>(pkts, 1, config_.max_flow_packets);
}

void WebFlowSource::start_fetch() {
  thinking_ = false;
  const std::int64_t size = draw_size();
  const int k = flows_started_++;
  fingerprint_ = fnv1a_mix(fingerprint_, static_cast<std::uint64_t>(size));
  fingerprint_ = fnv1a_mix(fingerprint_, double_bits(sim_.now()));

  const auto src_port = static_cast<net::PortId>(src_port_base_ + k);
  const auto dst_port = static_cast<net::PortId>(dst_port_base_ + k);
  const auto flow = static_cast<net::FlowId>(flow_base_ + k);

  receivers_.push_back(std::make_unique<tcp::TcpReceiver>(
      network_, dst_node_, dst_port, config_.tcp.max_send_overhead));
  tcp::TcpParams params = config_.tcp;
  params.flow_packets = size;
  auto sender = std::make_unique<tcp::TcpSender>(
      network_, src_node_, src_port, dst_node_, dst_port, flow, params);
  // Per-fetch measurement starts at creation (there is no shared warmup
  // boundary for flows born mid-run; callers snapshot delivered_total() at
  // their own warmup instead).
  sender->measurement().begin_measurement(sim_.now());
  sender->set_on_complete([this] {
    ++flows_completed_;
    think();
  });
  sender->start_at(sim_.now());
  senders_.push_back(std::move(sender));
}

std::int64_t WebFlowSource::delivered_total() const {
  std::int64_t total = 0;
  for (const auto& s : senders_) total += s->measurement().total_acked();
  return total;
}

bool WebFlowSource::app_limited() const {
  if (thinking_ || senders_.empty()) return true;
  return senders_.back()->app_limited();
}

bool WebFlowSource::poll_app_limited() {
  const bool now = app_limited();
  const bool limited = limited_mark_ || now;
  limited_mark_ = now;
  return limited;
}

}  // namespace rlacast::workload
