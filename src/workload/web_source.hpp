// WebFlowSource: one simulated web "user" — think, fetch, think, fetch.
//
// The generator alternates exponential think times with finite TCP
// transfers (tcp::TcpSender with flow_packets > 0) whose sizes are Pareto
// (the classic self-similar-web result), synthesized from the source's own
// named Rng stream by inverse transform so the draw count per flow is fixed
// (1 size draw + 1 think draw) and the schedule is bit-identical across
// --jobs and replayable.
//
// Each fetch gets a FRESH (sender, receiver) pair on fresh ports: the
// Network has no detach, and TCP state (scoreboard, reassembly) is
// per-connection anyway.  Completed pairs are kept alive until the source
// dies — ~100 bytes + two idle Rng streams per finished flow, a fine price
// for never reusing sequence space.
//
// app_limited() is true between fetches (thinking) and while the active
// transfer's tail can no longer fill its window — stats::FairnessMonitor
// uses it to keep think-time windows out of the fairness evidence.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace rlacast::workload {

struct WebConfig {
  /// Mean of the exponential think time between transfers, seconds.
  sim::SimTime mean_think = 2.0;
  /// Hard tail clamp so one astronomical Pareto draw cannot turn a web run
  /// back into an infinite FTP run.
  std::int64_t max_flow_packets = 4000;
  /// Template for every per-fetch sender (variant, overhead, ECN, ...);
  /// flow_packets is overwritten per fetch.
  tcp::TcpParams tcp{};
};

class WebFlowSource {
 public:
  /// The user fetches from `src_node` to `dst_node`:`dst_port_base`+k, with
  /// packet flow ids `flow_base`+k; `name` keys the Rng stream (unique per
  /// source, e.g. "workload-web-3").  Port/flow blocks must not collide
  /// across sources — the topo builders space them 1000 apart.
  WebFlowSource(net::Network& network, net::NodeId src_node,
                net::NodeId dst_node, net::PortId src_port_base,
                net::PortId dst_port_base, net::FlowId flow_base,
                const std::string& name, WebConfig config);

  /// First think period begins at `when` (the transfer follows it).
  void start_at(sim::SimTime when);

  // --- telemetry --------------------------------------------------------
  /// Cumulative packets acknowledged across all fetches (finished + live).
  std::int64_t delivered_total() const;
  int flows_started() const { return flows_started_; }
  int flows_completed() const { return flows_completed_; }
  /// True while thinking, done, or the live transfer cannot fill its window.
  bool app_limited() const;
  /// Windowed variant for fairness probes: true if the source was
  /// application-limited at ANY point since the previous poll (think
  /// periods are usually shorter than a fairness window, so edge sampling
  /// alone would miss them and count half-idle windows as evidence).
  /// Clears the mark and carries the current state into the next interval.
  bool poll_app_limited();
  /// FNV-1a over the (size, start-time-bits) sequence: two runs produced
  /// the same flow schedule iff the fingerprints match — the workload
  /// determinism test compares this across --jobs settings.
  std::uint64_t schedule_fingerprint() const { return fingerprint_; }
  const std::vector<std::unique_ptr<tcp::TcpSender>>& senders() const {
    return senders_;
  }

 private:
  void think();
  void start_fetch();
  std::int64_t draw_size();

  net::Network& network_;
  sim::Simulator& sim_;
  net::NodeId src_node_;
  net::NodeId dst_node_;
  net::PortId src_port_base_;
  net::PortId dst_port_base_;
  net::FlowId flow_base_;
  std::string name_;
  WebConfig config_;
  sim::Rng rng_;
  sim::Timer timer_;

  std::vector<std::unique_ptr<tcp::TcpSender>> senders_;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> receivers_;
  int flows_started_ = 0;
  int flows_completed_ = 0;
  bool thinking_ = true;
  bool limited_mark_ = true;  // sticky "was limited since last poll"
  std::uint64_t fingerprint_ = 14695981039346656037ULL;  // FNV-1a basis
};

}  // namespace rlacast::workload
