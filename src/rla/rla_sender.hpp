// RLA multicast sender — the paper's primary contribution (§3.3).
//
// A window-based multicast congestion controller that stays TCP-like in its
// window dynamics but *randomizes* which congestion signals it obeys:
//
//   1. Loss detection  — per-receiver SACK scoreboards; packet P is lost for
//      receiver i once a packet >= 3 above P is SACKed by i, or on timeout.
//   2. Congestion detection — losses from receiver i within
//      2*srtt_i of the congestion-period start are grouped into ONE signal
//      (one signal per buffer period, mirroring TCP's one cut per window).
//   3. Window adjustment on a signal from receiver i:
//        - skip if i is not a troubled receiver (rare loss);
//        - forced-cut  if no cut happened within the last 2*awnd*srtt_i;
//        - otherwise randomized-cut: halve with probability pthresh.
//   4. Window growth — cwnd += 1/cwnd per packet newly ACKed by ALL
//      receivers (slow start: cwnd += 1 while cwnd < ssthresh).
//   5. Window bounds — trailing edge follows max_reach_all; leading edge
//      never beyond min_last_ack + receiver buffer.
//   6. Troubled census — see cc::TroubledCensus (η = 20).
//
// pthresh = f(srtt_i/srtt_max) / num_trouble_rcvr with f(x) = x^k; k = 0 is
// the original equal-RTT RLA (pthresh = 1/n), k = 2 the generalized RLA of
// §5.3 for heterogeneous round-trip times.
//
// The window arithmetic lives in cc::Window, the §3.3 cut rules in
// cc::RlaPolicy, the signal grouping in cc::SignalGrouper, and the
// per-receiver state in rla::ReceiverTable — flat parallel arrays plus
// lazily materialized SACK scoreboards, so a receiver only costs scoreboard
// memory while it is actually losing packets and the all-healthy ACK path
// is allocation-free (see DESIGN.md "Memory model").  Aggregates the paper
// consults per signal (srtt_max, num_trouble_rcvr) come from the census's
// cached SoA mirrors instead of O(N) rescans.
//
// Retransmissions go by multicast when more than rexmit_thresh receivers
// miss the packet, else by unicast to each requester.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cc/rla_policy.hpp"
#include "cc/rto_manager.hpp"
#include "cc/troubled_census.hpp"
#include "cc/window.hpp"
#include "net/agent.hpp"
#include "net/network.hpp"
#include "replay/snapshot.hpp"
#include "rla/receiver_table.hpp"
#include "rla/rla_params.hpp"
#include "sim/simulator.hpp"
#include "stats/flow_measurement.hpp"

namespace rlacast::rla {

class RlaSender final : public net::Agent, public replay::Snapshotable {
 public:
  RlaSender(net::Network& network, net::NodeId node, net::PortId port,
            net::GroupId group, net::FlowId flow, RlaParams params = {});

  ~RlaSender() override;

  /// Capacity hint ahead of a bulk add_receiver() loop: reserves the
  /// receiver table and census arrays so the per-member rows carry no
  /// push_back growth overshoot (the scale benches report capacity bytes).
  void reserve_receivers(std::size_t n) {
    table_.reserve(n);
    census_.reserve(n);
  }

  /// Registers a receiver endpoint (must match an RlaReceiver's node/port
  /// and id). May be called before start_at() or mid-session (late join):
  /// a late joiner's state begins at the current send frontier, so it owes
  /// nothing for data sent before it arrived. Returns the receiver index.
  int add_receiver(net::NodeId node, net::PortId port);

  /// Gracefully removes receiver `idx` from the session (leave): its ACKs
  /// are ignored from now on and the window no longer waits for it. The
  /// multicast tree itself is pruned by the caller if desired (delivery to
  /// a departed subscriber is harmless).
  void remove_receiver(int idx);

  /// Starts the session at absolute simulation time `when`.
  void start_at(sim::SimTime when);

  /// Assigns receiver `idx` to topology subtree `subtree` for the
  /// structural-degradation detector (SubtreeDegradeParams).  The topology
  /// builder knows which receivers share a partitionable uplink; the sender
  /// only needs the grouping.  No-op unless params().degrade.enabled, so
  /// wiring it up unconditionally keeps default runs byte-identical.
  void set_subtree(int idx, int subtree);

  void on_receive(const net::Packet& p) override;

  // --- observability ---------------------------------------------------------
  double cwnd() const { return win_.cwnd(); }
  double awnd() const { return awnd_; }
  double ssthresh() const { return win_.ssthresh(); }
  net::SeqNum min_last_ack() const;
  net::SeqNum max_reach_all() const { return max_reach_all_; }
  net::SeqNum next_seq() const { return next_seq_; }
  int num_trouble_rcvr() const { return census_.num_troubled(); }
  const cc::TroubledCensus& census() const { return census_; }
  double pthresh_for(int rcvr) const;
  std::size_t receiver_count() const { return table_.size(); }
  std::uint64_t signals_from(int rcvr) const { return census_.signals(rcvr); }
  std::uint64_t acks_received() const { return acks_received_; }
  std::uint64_t multicast_rexmits() const { return mcast_rexmits_; }
  std::uint64_t unicast_rexmits() const { return ucast_rexmits_; }
  bool receiver_dropped(int rcvr) const { return census_.excluded(rcvr); }
  /// Receivers excluded by the silent-receiver (crash) protection.
  std::uint64_t silent_drops() const { return silent_drops_; }
  /// Receivers still participating (not left, not dropped, not silent).
  int active_receivers() const { return census_.active_count(); }
  double srtt_of(int rcvr) const { return table_.rtt(rcvr).srtt(); }
  /// Receivers currently carrying a materialized scoreboard (the rest are
  /// in the compact all-healthy representation).
  std::size_t materialized_scoreboards() const {
    return table_.materialized_count();
  }
  /// Frontier-watchdog force-quarantines issued so far.
  std::uint64_t watchdog_quarantines() const { return watchdog_quarantines_; }
  /// Structural-degradation episodes: every excision (with its heal /
  /// re-admission outcome filled in once it happens).
  const std::vector<SubtreeEvent>& subtree_events() const { return events_; }
  std::uint64_t subtree_excisions() const { return subtree_excisions_; }
  std::uint64_t subtree_readmissions() const { return subtree_readmissions_; }
  /// Catch-up retransmissions multicast by re-admission ramps (disjoint
  /// from multicast_rexmits(), which counts loss-repair traffic).
  std::uint64_t ramp_rexmits() const { return ramp_rexmits_; }
  /// Resident bytes of the sender's per-receiver machinery: receiver table
  /// (SoA arrays + materialized boards), census, and per-packet send info.
  std::size_t state_bytes() const;
  /// What the same session state would cost in the historical one-
  /// scoreboard-per-receiver layout — the denominator of the scale bench's
  /// memory-ratio headline.
  std::size_t baseline_state_bytes() const;
  stats::FlowMeasurement& measurement() { return meas_; }
  const stats::FlowMeasurement& measurement() const { return meas_; }
  const RlaParams& params() const { return params_; }

  /// Checkpoint state: sequence frontiers, window edges, rexmit totals and
  /// the RNG cursors of the listening / pacing streams. Sub-components
  /// (window, census, per-receiver RTT estimators) attach separately under
  /// "rla-<flow>/..." ids.
  replay::Snapshot snapshot_state() const override;

 private:
  /// Bookkeeping for every packet at or above max_reach_all.
  struct SendInfo {
    sim::SimTime first_sent = 0.0;
    bool ever_rexmitted = false;
    sim::SimTime last_rexmit = -1e18;
    /// Set when the packet was retransmitted to EVERYBODY (multicast repair
    /// or timeout).  Compact receivers don't carry per-packet rexmit flags;
    /// materialization replays this onto the fresh scoreboard so Karn's
    /// rule and the repair rate-limit see the same marks the historical
    /// per-receiver boards held.
    bool rexmitted_for_all = false;
    /// Bit i set once receiver i has acknowledged the packet (cumulatively
    /// or selectively). The per-packet RLA RTT — time until the LAST
    /// receiver's ACK, the quantity eq. (5) bounds — is sampled the moment
    /// coverage completes, so head-of-line repairs of *other* packets do
    /// not inflate it. Bounds the session to 64 receivers (paper scale: 36).
    std::uint64_t acked_mask = 0;
    bool rtt_sampled = false;
  };

  void on_ack(const net::Packet& ack, int idx);
  void mark_covered(const net::Packet& ack, int idx);
  void mark_one(net::SeqNum seq, SendInfo& info, std::uint64_t bit);
  std::uint64_t active_mask() const;
  void handle_congestion_signal(int idx);
  void advance_reach_all();
  void maybe_retransmit(net::SeqNum seq, int requester_idx, bool urgent);
  void send_new_data(int budget);
  void send_data_packet(net::SeqNum seq, bool rexmit, net::NodeId unicast_to,
                        net::PortId unicast_port);
  void on_timeout();
  void drop_silent_receivers();
  // Structural degradation (SubtreeDegradeParams); all no-ops when off.
  struct Subtree {
    enum class Phase { kHealthy, kExcised, kRamping };
    Phase phase = Phase::kHealthy;
    std::vector<int> members;
    sim::SimTime excised_at = 0.0;
    net::SeqNum reach_at_excise = 0;
    sim::SimTime healed_at = -1.0;
    std::size_t event_index = 0;      // row in events_ for the open episode
    net::SeqNum ramp_next = 0;        // catch-up resend cursor
    int ramp_burst = 0;
    std::map<int, net::SeqNum> heard; // healed member -> last seen cum
  };
  void check_subtrees();
  void excise_subtree(int sid, Subtree& st, sim::SimTime silence);
  void note_heal_ack(const net::Packet& ack, int idx);
  void ramp_tick();
  void graduate_subtree(Subtree& st);
  void restart_timeout_timer();
  void maybe_drop_slowest(int idx);
  void check_frontier_watchdog();
  void rejoin_receivers(const std::vector<int>& rejoined);
  /// Receiver idx's scoreboard, materializing it (with the global repair
  /// flags replayed) if it is still compact.
  cc::Scoreboard& ensure_board(int idx);
  /// on_retransmit with the compact semantics of the historical board:
  /// no-op for seqs below the receiver's cumulative point, materializes
  /// otherwise.
  void sb_on_retransmit(int idx, net::SeqNum seq);

  net::Network& network_;
  sim::Simulator& sim_;
  net::NodeId node_;
  net::PortId port_;
  net::GroupId group_;
  net::FlowId flow_;
  RlaParams params_;

  net::SendPacer pacer_;
  sim::Rng listen_rng_;  // the π draws of the random listening decision
  cc::RtoManager rto_;

  ReceiverTable table_;
  cc::TroubledCensus census_;
  cc::RlaPolicy policy_;  // borrows census_ and listen_rng_: declare after
  cc::Window win_;

  double awnd_;
  sim::SimTime last_window_cut_ = -1e18;
  net::SeqNum next_seq_ = 0;
  net::SeqNum max_reach_all_ = 0;
  net::SeqNum timeout_blocking_ = -1;  // stall point at the last timeout
  bool started_ = false;

  std::map<net::SeqNum, SendInfo> send_info_;

  // Frontier watchdog (see FrontierWatchdogParams).
  sim::SimTime last_frontier_progress_ = 0.0;
  std::uint64_t acks_since_progress_ = 0;
  std::uint64_t watchdog_quarantines_ = 0;

  std::uint64_t acks_received_ = 0;
  std::uint64_t mcast_rexmits_ = 0;
  std::uint64_t ucast_rexmits_ = 0;
  std::uint64_t silent_drops_ = 0;

  // Structural degradation state (empty / never allocated when off).
  std::vector<int> subtree_of_;           // receiver idx -> subtree, -1 none
  std::vector<std::uint8_t> excised_;     // receiver idx -> excised flag
  std::map<int, Subtree> subtrees_;
  std::vector<SubtreeEvent> events_;
  std::unique_ptr<sim::Timer> degrade_timer_;  // detection poll
  std::unique_ptr<sim::Timer> ramp_timer_;     // re-admission ramp
  std::uint64_t subtree_excisions_ = 0;
  std::uint64_t subtree_readmissions_ = 0;
  std::uint64_t ramp_rexmits_ = 0;

  stats::FlowMeasurement meas_;
};

}  // namespace rlacast::rla
