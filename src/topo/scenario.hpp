// Scenario: the flows every topology runner puts on its graph.
//
// Each experiment runs RLA sessions against competing TCP traffic on a
// fixed graph: Figure 1's restricted topology (run_flat_tree), Figure 6's
// tertiary tree (run_tertiary_tree) and the collapsed scale tree
// (run_big_tree).  A runner builds its graph on net() and keeps its own
// extras (faults, failover, group receivers, ...); Scenario owns the
// simulator, the network and the flows, and makes the decisions the paper's
// setups share:
//   * one send-jitter bound for every flow (§3.1's phase randomization);
//   * start times drawn from the "start-jitter" stream, so flows start
//     together without synchronizing;
//   * measurement from the warm-up on, and the background flows' rows.
// Ports and flow ids stay the caller's: flow ids name RNG streams, so they
// are part of each runner's reproducible output.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "stats/flow_measurement.hpp"
#include "tcp/tcp_sender.hpp"
#include "workload/workload.hpp"

namespace rlacast::topo {

/// The gateways' queue discipline: the paper runs each figure with
/// drop-tail (Figure 7) and with RED (Figure 9) gateways.
using GatewayType = net::QueueKind;

/// Link rate, bit/s, that carries `pps` data packets per second.
double pps_to_bps(double pps);

/// One flow's result row: exactly the columns the paper's Figures 7, 9 and
/// 10 report per flow.
struct FlowRow {
  double throughput_pps = 0.0;  // packets/second over the measured period
  double avg_cwnd = 0.0;        // time-averaged congestion window
  double avg_rtt = 0.0;         // mean per-packet RTT (clean packets only)
  std::uint64_t cong_signals = 0;
  std::uint64_t window_cuts = 0;
  std::uint64_t forced_cuts = 0;
  std::uint64_t timeouts = 0;
};

/// Builds a row from a FlowMeasurement at end-of-run time `t_end`.
FlowRow make_row(const stats::FlowMeasurement& m, sim::SimTime t_end);

/// Index of the row with the smallest / largest throughput.
std::size_t worst_index(const std::vector<FlowRow>& rows);
std::size_t best_index(const std::vector<FlowRow>& rows);

class Scenario {
 public:
  /// `instrument`, if set, sees the simulator before anything is built —
  /// the hook where replay observers are installed.
  Scenario(std::uint64_t seed,
           const std::function<void(sim::Simulator&)>& instrument);

  sim::Simulator& sim() { return sim_; }
  net::Network& net() { return net_; }

  /// Builds the unicast routes of the finished graph and fixes the run's
  /// send-jitter bound: Uniform(0, T) extra overhead per packet on every
  /// flow added afterwards (senders and receivers alike), where T is the
  /// service time of one data packet at the graph's slowest link. Drop-tail
  /// gateways only (§3.1), and only with `phase_randomization`; T = 0
  /// otherwise.
  void build_routes(GatewayType gateway, bool phase_randomization = true);
  sim::SimTime send_jitter() const { return jitter_; }

  /// An RLA session sending from (`src`, `port`) to `group`; its members
  /// join through the returned session. The params' jitter bound must be
  /// left unset: the scenario sets it.
  rla::RlaSession& add_session(net::NodeId src, net::GroupId group,
                               net::PortId port, net::FlowId flow,
                               rla::RlaParams params);
  /// An infinite TCP connection from `src` to `dst`, on `port` at both
  /// ends. The receiver is built first.
  void add_tcp(net::NodeId src, net::NodeId dst, net::PortId port,
               net::FlowId flow, tcp::TcpParams params);
  /// A web user fetching from `src` to `dst` (workload::WebFlowSource);
  /// fetch k uses port `port_base` + k at both ends and flow `flow_base` + k.
  void add_web(net::NodeId src, net::NodeId dst, net::PortId port_base,
               net::FlowId flow_base, const std::string& name,
               workload::WebConfig config);
  /// On/off datagram cross-traffic from `src` to a sink at `dst`, on `port`
  /// at both ends. The sink is built first.
  void add_onoff(net::NodeId src, net::NodeId dst, net::PortId port,
                 net::FlowId flow, const std::string& name,
                 const workload::OnOffConfig& config);

  /// Draws every start from the "start-jitter" stream — TCP connections,
  /// web users and on/off sources from U[0, 1), each kind in the order
  /// added, then sessions from U[0, `session_spread`) — and schedules the
  /// warm-up, where measurement begins.
  void start(sim::SimTime warmup, sim::SimTime session_spread = 1.0);

  /// One row per background flow at end-of-run time `t_end`: each TCP
  /// connection, then each web user (its post-warm-up delivered rate; the
  /// counters sum over every fetch).
  std::vector<FlowRow> background_rows(sim::SimTime t_end) const;

  const std::vector<std::unique_ptr<rla::RlaSession>>& sessions() const {
    return sessions_;
  }
  const std::vector<std::unique_ptr<tcp::TcpSender>>& tcp_senders() const {
    return tcp_senders_;
  }
  const std::vector<std::unique_ptr<workload::WebFlowSource>>& web_sources()
      const {
    return web_sources_;
  }
  const std::vector<std::unique_ptr<workload::OnOffSource>>& onoff_sources()
      const {
    return onoff_sources_;
  }
  const std::vector<std::unique_ptr<workload::PacketSink>>& onoff_sinks()
      const {
    return onoff_sinks_;
  }

 private:
  sim::Simulator sim_;
  net::Network net_;
  sim::SimTime jitter_ = 0.0;
  sim::SimTime warmup_ = 0.0;

  std::vector<std::unique_ptr<rla::RlaSession>> sessions_;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> tcp_receivers_;
  std::vector<std::unique_ptr<tcp::TcpSender>> tcp_senders_;
  std::vector<std::unique_ptr<workload::WebFlowSource>> web_sources_;
  std::vector<std::unique_ptr<workload::PacketSink>> onoff_sinks_;
  std::vector<std::unique_ptr<workload::OnOffSource>> onoff_sources_;
  std::vector<std::int64_t> web_delivered_at_warmup_;
};

}  // namespace rlacast::topo
