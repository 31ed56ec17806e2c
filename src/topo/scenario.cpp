#include "topo/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace rlacast::topo {
namespace {

/// Competing flows must share one jitter bound — unequal bounds quietly
/// bias the fairness comparison — so every flow takes the scenario's, and a
/// bound already set in a flow's params is a configuration error.
void set_jitter(sim::SimTime& bound, sim::SimTime jitter) {
  assert(bound == 0.0 && "the scenario sets every flow's send-jitter bound");
  bound = jitter;
}

}  // namespace

double pps_to_bps(double pps) {
  return pps * static_cast<double>(net::kDataPacketBytes) * 8.0;
}

FlowRow make_row(const stats::FlowMeasurement& m, sim::SimTime t_end) {
  FlowRow r;
  r.throughput_pps = m.throughput_pps(t_end);
  r.avg_cwnd = m.avg_cwnd(t_end);
  r.avg_rtt = m.avg_rtt();
  r.cong_signals = m.congestion_signals();
  r.window_cuts = m.window_cuts();
  r.forced_cuts = m.forced_cuts();
  r.timeouts = m.timeouts();
  return r;
}

std::size_t worst_index(const std::vector<FlowRow>& rows) {
  assert(!rows.empty());
  std::size_t w = 0;
  for (std::size_t i = 1; i < rows.size(); ++i)
    if (rows[i].throughput_pps < rows[w].throughput_pps) w = i;
  return w;
}

std::size_t best_index(const std::vector<FlowRow>& rows) {
  assert(!rows.empty());
  std::size_t b = 0;
  for (std::size_t i = 1; i < rows.size(); ++i)
    if (rows[i].throughput_pps > rows[b].throughput_pps) b = i;
  return b;
}

Scenario::Scenario(std::uint64_t seed,
                   const std::function<void(sim::Simulator&)>& instrument)
    : sim_(seed), net_(sim_) {
  if (instrument) instrument(sim_);  // the empty network has no state yet
}

void Scenario::build_routes(GatewayType gateway, bool phase_randomization) {
  net_.build_routes();
  if (gateway != GatewayType::kDropTail || !phase_randomization) return;
  double slowest_bps = std::numeric_limits<double>::infinity();
  for (const auto& l : net_.links())
    slowest_bps = std::min(slowest_bps, l->bandwidth_bps());
  jitter_ = static_cast<double>(net::kDataPacketBytes) * 8.0 / slowest_bps;
}

rla::RlaSession& Scenario::add_session(net::NodeId src, net::GroupId group,
                                       net::PortId port, net::FlowId flow,
                                       rla::RlaParams params) {
  set_jitter(params.max_send_overhead, jitter_);
  rla::RlaReceiverOptions receiver_options;
  receiver_options.max_ack_overhead = jitter_;
  sessions_.push_back(std::make_unique<rla::RlaSession>(
      net_, src, group, port, flow, params, receiver_options));
  return *sessions_.back();
}

void Scenario::add_tcp(net::NodeId src, net::NodeId dst, net::PortId port,
                       net::FlowId flow, tcp::TcpParams params) {
  set_jitter(params.max_send_overhead, jitter_);
  tcp_receivers_.push_back(
      std::make_unique<tcp::TcpReceiver>(net_, dst, port, jitter_));
  tcp_senders_.push_back(
      std::make_unique<tcp::TcpSender>(net_, src, port, dst, port, flow, params));
}

void Scenario::add_web(net::NodeId src, net::NodeId dst, net::PortId port_base,
                       net::FlowId flow_base, const std::string& name,
                       workload::WebConfig config) {
  set_jitter(config.tcp.max_send_overhead, jitter_);
  web_sources_.push_back(std::make_unique<workload::WebFlowSource>(
      net_, src, dst, port_base, port_base, flow_base, name, config));
}

void Scenario::add_onoff(net::NodeId src, net::NodeId dst, net::PortId port,
                         net::FlowId flow, const std::string& name,
                         const workload::OnOffConfig& config) {
  onoff_sinks_.push_back(std::make_unique<workload::PacketSink>(net_, dst, port));
  onoff_sources_.push_back(std::make_unique<workload::OnOffSource>(
      net_, src, port, dst, port, flow, name, config));
}

void Scenario::start(sim::SimTime warmup, sim::SimTime session_spread) {
  auto starts = sim_.rng_stream("start-jitter");
  for (auto& t : tcp_senders_) t->start_at(starts.uniform(0.0, 1.0));
  for (auto& w : web_sources_) w->start_at(starts.uniform(0.0, 1.0));
  for (auto& o : onoff_sources_) o->start_at(starts.uniform(0.0, 1.0));
  for (auto& s : sessions_) s->start_at(starts.uniform(0.0, session_spread));

  warmup_ = warmup;
  web_delivered_at_warmup_.assign(web_sources_.size(), 0);
  sim_.at(warmup, [this] {
    for (auto& s : sessions_)
      s->sender().measurement().begin_measurement(sim_.now());
    for (auto& t : tcp_senders_) t->measurement().begin_measurement(sim_.now());
    for (std::size_t i = 0; i < web_sources_.size(); ++i)
      web_delivered_at_warmup_[i] = web_sources_[i]->delivered_total();
  });
}

std::vector<FlowRow> Scenario::background_rows(sim::SimTime t_end) const {
  std::vector<FlowRow> rows;
  for (const auto& t : tcp_senders_)
    rows.push_back(make_row(t->measurement(), t_end));
  const double measured_span = t_end - warmup_;
  for (std::size_t i = 0; i < web_sources_.size(); ++i) {
    const workload::WebFlowSource& w = *web_sources_[i];
    FlowRow row;
    row.throughput_pps =
        measured_span > 0.0
            ? static_cast<double>(w.delivered_total() -
                                  web_delivered_at_warmup_[i]) /
                  measured_span
            : 0.0;
    double rtt_sum = 0.0;
    int rtt_n = 0;
    for (const auto& snd : w.senders()) {
      const stats::FlowMeasurement& m = snd->measurement();
      row.cong_signals += m.congestion_signals();
      row.window_cuts += m.window_cuts();
      row.forced_cuts += m.forced_cuts();
      row.timeouts += m.timeouts();
      if (m.avg_rtt() > 0.0) {
        rtt_sum += m.avg_rtt();
        ++rtt_n;
      }
    }
    row.avg_rtt = rtt_n > 0 ? rtt_sum / rtt_n : 0.0;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace rlacast::topo
