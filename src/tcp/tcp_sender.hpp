// TCP SACK sender (ns-2 "sack1"-style, packet-granularity sequence space).
//
// Implements the congestion control loop §4.1 of the paper models:
//   * slow start:  cwnd += 1 per new ACK while cwnd < ssthresh;
//   * congestion avoidance:  cwnd += 1/cwnd per new ACK;
//   * SACK loss detection: a packet is lost when dupthresh (3) packets above
//     it have been SACKed;
//   * fast recovery with pipe-based transmission (conservation of packets),
//     one window halving per recovery episode;
//   * retransmission timeout: cwnd = 1, ssthresh = cwnd/2, exponential
//     backoff (Karn), scoreboard restart.
//
// The window arithmetic, RTO management, signal grouping, and the cut
// decision all live in the shared congestion-control core (src/cc/): this
// class keeps only the transport mechanics — what to (re)send, when to
// sample RTT, and the variant-specific recovery plumbing (SACK pipe vs
// Reno dupack counting and window inflation).
//
// The application is an infinite FTP source by default: there is always
// data to send.  TcpParams::flow_packets > 0 turns the connection into a
// finite flow (the src/workload/ web-traffic generator's building block):
// the sender transmits exactly that many packets, reports completion
// through set_on_complete, and goes quiescent — and while the tail of a
// finite flow (or a completed one) cannot fill its window, app_limited()
// is true so the fairness telemetry can exclude those windows from band
// checks (a flow that WON'T use its share is not evidence about one that
// CAN'T get it).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "cc/bbr_policy.hpp"
#include "cc/delay_policy.hpp"
#include "cc/loss_policy.hpp"
#include "cc/peer_state.hpp"
#include "cc/rto_manager.hpp"
#include "cc/signal_grouper.hpp"
#include "cc/window.hpp"
#include "net/agent.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "stats/flow_measurement.hpp"

namespace rlacast::tcp {

/// Congestion-control flavour of the sender.  The paper's background
/// traffic is SACK TCP; Reno and Tahoe are provided for comparison runs
/// (the paper cites Fall & Floyd's Tahoe/Reno/SACK study for the "multiple
/// drops in one window = one signal" behaviour).
enum class TcpVariant {
  kSack,   // scoreboard loss detection + pipe-based recovery (default)
  kReno,   // dupack-count fast retransmit + window-inflation fast recovery
  kTahoe,  // dupack-count fast retransmit, then slow start from 1
  // Modern competitors (not part of the paper's evaluation; PAPERS.md):
  kVegas,  // delay-based: once-per-RTT srtt-gradient window adjustment
           // (cc::DelayGradient) over Reno loss mechanics
  kBbr     // BBR-style: windowed max-bandwidth / min-RTT model (cc::BbrModel)
           // paces sends and caps cwnd; grouped losses do not cut
};

struct TcpParams {
  TcpVariant variant = TcpVariant::kSack;
  double initial_cwnd = 1.0;
  double initial_ssthresh = 64.0;
  double max_cwnd = 1e6;          // receiver window, packets
  /// Random per-packet sender processing time, Uniform(0, max): §3.1's
  /// phase-effect elimination. 0 disables. Competing flows must use the
  /// same bound as RlaParams::max_send_overhead — unequal jitter quietly
  /// biases the fairness ratio (the topo/ builders assert this).
  sim::SimTime max_send_overhead = 0.0;
  // ECN (RFC 3168, simplified): mark data ECN-capable and treat an echoed
  // CE (ECE on an ACK) as a congestion signal — one window halving per
  // episode, no packet loss required. Needs ECN-enabled RED gateways.
  bool ecn = false;
  /// Finite-flow size in packets; 0 keeps the historical infinite FTP
  /// source. When > 0 the connection sends exactly this many packets,
  /// fires the on_complete callback once fully acknowledged, and goes
  /// quiescent (timers cancelled).
  std::int64_t flow_packets = 0;
};

class TcpSender final : public net::Agent {
 public:
  /// The sender lives at (`node`, `port`) and talks to a TcpReceiver at
  /// (`dst_node`, `dst_port`). `flow` tags its packets for tracing.
  TcpSender(net::Network& network, net::NodeId node, net::PortId port,
            net::NodeId dst_node, net::PortId dst_port, net::FlowId flow,
            TcpParams params = {});

  ~TcpSender() override;

  /// Opens the connection at absolute simulation time `when`.
  void start_at(sim::SimTime when);

  /// Completion callback for finite flows (flow_packets > 0): fired exactly
  /// once, when every packet of the flow has been cumulatively acknowledged.
  /// The callback may construct new senders (the web workload's user loop)
  /// but must not destroy this one.
  void set_on_complete(std::function<void()> cb) { on_complete_ = std::move(cb); }

  void on_receive(const net::Packet& p) override;

  // --- observability ---------------------------------------------------------
  double cwnd() const { return win_.cwnd(); }
  double ssthresh() const { return win_.ssthresh(); }
  bool in_recovery() const { return grouper_.in_episode(); }
  net::SeqNum highest_sent() const { return peer_.sb.high(); }
  net::SeqNum una() const { return peer_.sb.una(); }
  /// Finite flows only: all flow_packets acknowledged, sender quiescent.
  bool done() const { return done_; }
  /// True when the application, not the network, is the throughput limit
  /// right now: the connection has not started, has completed, or a finite
  /// flow's remaining data cannot fill the congestion window. Sampled by
  /// stats::FairnessMonitor to mark windows that must not count as
  /// fairness evidence.
  bool app_limited() const;
  const cc::RttEstimator& rtt() const { return peer_.rtt; }
  stats::FlowMeasurement& measurement() { return meas_; }
  const stats::FlowMeasurement& measurement() const { return meas_; }
  const TcpParams& params() const { return params_; }

  // kVegas observability.
  const cc::DelayGradient& delay_gradient() const { return vegas_; }
  // kBbr observability.
  const cc::BbrModel& bbr_model() const { return bbr_; }

 private:
  void on_ack(const net::Packet& ack);
  void on_ack_sack(const net::Packet& ack, std::int64_t newly_acked);
  void on_ack_reno(const net::Packet& ack, std::int64_t newly_acked);
  void on_rtt_sample_vegas(double sample);
  void on_delivery_sample_bbr(const net::Packet& ack, std::int64_t newly_acked);
  void grow_window();
  void apply_cut(cc::CutAction action);
  cc::SignalContext signal_ctx(bool from_ecn) const;
  void on_timeout();
  void send_what_we_can();
  void pace_bbr();
  bool send_one_eligible(std::int64_t cwnd);
  void send_packet(net::SeqNum seq, bool rexmit);
  void restart_rexmit_timer();
  net::SeqNum flow_limit() const;
  void maybe_complete();

  net::Network& network_;
  sim::Simulator& sim_;
  net::NodeId node_;
  net::PortId port_;
  net::NodeId dst_node_;
  net::PortId dst_port_;
  net::FlowId flow_;
  TcpParams params_;

  net::SendPacer pacer_;
  cc::PeerState peer_;  // {scoreboard, RTT estimator}: one, for one receiver
  cc::Window win_;
  cc::SignalGrouper grouper_;  // sequence-mode recovery episodes
  cc::RtoManager rto_;
  std::unique_ptr<cc::LossResponsePolicy> policy_;  // one heap alloc, in ctor

  bool started_ = false;
  bool done_ = false;
  std::function<void()> on_complete_;
  // Reno/Tahoe dupack machinery.
  int dupacks_ = 0;
  double inflation_ = 0.0;  // Reno fast-recovery window inflation

  // kVegas: the srtt-gradient core plus the once-per-RTT epoch marker.
  cc::DelayGradient vegas_;
  net::SeqNum vegas_epoch_end_ = 0;

  // kBbr: the bandwidth/propagation model, the pacing timer, per-packet
  // delivered-count records for BBR-style rate samples, and round tracking.
  cc::BbrModel bbr_;
  sim::Timer pace_timer_;
  std::int64_t delivered_ = 0;  // cumulative cleanly-delivered packets
  struct DeliveryRecord {
    std::int64_t delivered_at_send = 0;
    sim::SimTime sent_at = 0.0;
  };
  std::map<net::SeqNum, DeliveryRecord> delivery_records_;
  net::SeqNum bbr_round_end_ = 0;
  net::SeqNum last_timeout_una_ = -1;  // repeated-stall detection (kBbr)

  stats::FlowMeasurement meas_;
};

}  // namespace rlacast::tcp
