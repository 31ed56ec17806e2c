// Tunables of the Random Listening Algorithm, with the defaults the paper
// recommends or uses in its evaluation (§3.3, §5).
#pragma once

#include <cstdint>

#include "cc/rtt_estimator.hpp"
#include "cc/troubled_census.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace rlacast::rla {

/// Frontier-progress watchdog (liveness defense).  The census rate defense
/// catches receivers that signal too often; it cannot catch a coalition
/// that simply stops acknowledging past some sequence number while staying
/// otherwise chatty — the reach-all frontier freezes, the window drains to
/// its trailing edge, and the session stalls even though a *majority* of
/// receivers keeps ACKing (the silent-receiver drop never fires because the
/// pinners are not silent).  The watchdog detects that shape — frontier
/// pinned for several RTOs while a healthy ACK stream flows and the
/// blocking packet has already been repaired — and force-quarantines the
/// pinning receivers through the census strike machinery, unless every
/// active receiver is pinned (then the loss is genuine and the timeout path
/// owns it).
struct FrontierWatchdogParams {
  bool enabled = false;
  /// Stall threshold in units of the current max receiver RTO.
  double stall_rtos = 3.0;
  /// Absolute floor of the stall threshold, seconds.
  sim::SimTime min_stall = 1.0;
  /// ACKs that must arrive during the stall before receivers are blamed —
  /// a frozen frontier with no ACK flow at all is loss, not pinning.
  std::uint64_t min_acks = 32;
  /// Cum-withholding bound.  A receiver can freeze its cumulative ACK while
  /// SACKing everything above it: reach-all then advances through
  /// first_missing (no frontier stall for the watchdog to see), but
  /// advance() never prunes its scoreboard, whose per-packet state — and
  /// the cost of every SACK walk across it — grows without bound.  An
  /// honest receiver's SACK lead over its own cumulative point is bounded
  /// by the congestion window; one whose lead exceeds this many packets is
  /// withholding and is quarantined like a frontier pinner.  0 disables.
  std::int64_t max_sack_lead = 2048;
};

/// Sender-side graceful degradation under structural failure (partition /
/// router crash).  The per-receiver ladders — silent_drop_after, the census
/// strike machinery — treat each dead receiver separately: a partitioned
/// subtree of k members costs k independent detections while the reach-all
/// frontier stays pinned and the RTO path keeps multicasting repairs into
/// the void.  This detector recognizes the *structural* shape instead:
/// every member of one topology subtree fell silent at once while
/// receivers outside it keep acknowledging.  The whole subtree is then
/// excised in one event — members ride the census exclusion, so
/// num_trouble, reach-all, and the RTO loop shrink to the survivors and
/// the dead members' rexmit state collapses into a single SubtreeEvent
/// record (no RTO storm).  When the partition heals, the first ACK whose
/// ts_echo postdates the excision starts a slow-start-style re-admission
/// ramp: missed data is re-multicast in doubling bursts, and once the
/// rejoiners' cumulative point is within handover_packets of the send
/// frontier they are re-admitted to the census (fresh epoch, reset
/// liveness clock) without collapsing the survivors' window.
struct SubtreeDegradeParams {
  bool enabled = false;
  /// Whole-subtree ACK silence before excision — also the bound on
  /// time-to-excise (plus one check_period of polling slack).  Must be
  /// well above one leaf RTT or a burst loss looks like a partition.
  sim::SimTime silence_after = 1.0;
  /// Detection poll period.
  sim::SimTime check_period = 0.25;
  /// Re-admission ramp tick; each tick multicasts one burst of catch-up
  /// retransmissions for every ramping subtree.
  sim::SimTime ramp_tick = 0.05;
  /// First ramp burst, in packets; doubles each tick (slow-start shape)
  /// up to ramp_max_burst.
  int ramp_initial_burst = 2;
  int ramp_max_burst = 64;
  /// The rejoining subtree graduates (census re-admission) once the gap
  /// between its members' cumulative point and the send frontier is at
  /// most this many packets; the ordinary repair path closes the rest.
  std::int64_t handover_packets = 8;
};

/// One excision → (heal → re-admission) episode of a subtree, exposed by
/// RlaSender::subtree_events() and surfaced in topo results.
struct SubtreeEvent {
  int subtree = -1;
  sim::SimTime excised_at = 0.0;
  /// Silence observed when the excision fired (>= silence_after).
  sim::SimTime time_to_excise = 0.0;
  int members_excised = 0;
  sim::SimTime healed_at = -1.0;      // first post-excision ACK; -1 = never
  sim::SimTime readmitted_at = -1.0;  // ramp graduation; -1 = never
  sim::SimTime time_to_readmit = -1.0;  // readmitted_at - healed_at
  int members_readmitted = 0;
  /// Reach-all frontier advance rate over [excised_at, readmitted_at] —
  /// what the survivors actually got while the subtree was out.
  double survivor_goodput_pps = 0.0;
};

struct RlaParams {
  double initial_cwnd = 1.0;
  double initial_ssthresh = 64.0;
  double max_cwnd = 1e6;
  int dupthresh = 3;  // "at least three higher" SACK loss rule (§3.3 rule 1)
  std::int32_t packet_bytes = net::kDataPacketBytes;
  std::int32_t ack_bytes = net::kAckPacketBytes;

  /// η of §3.3 rule 6: a congested receiver is troubled only if its average
  /// congestion-signal interval is below η * min_congestion_interval
  /// (equivalently its congestion probability exceeds p_max/η).  The proof
  /// in §4.2 needs the ratio above p_1/(2 - 1.5 p_1) ≈ 0.026 at p ≤ 5%;
  /// η = 20 (ratio 0.05) is the recommended setting.
  double eta = 20.0;

  /// EWMA gain of awnd, the moving average of cwnd used by the forced-cut
  /// guard. Updated once per reach-all acknowledgment.
  double awnd_gain = 0.01;

  /// EWMA gain of the per-receiver congestion-signal interval estimate.
  double signal_interval_gain = 0.25;

  /// Forced-cut guard multiplier: force a halving if the last cut is more
  /// than `forced_cut_factor * awnd * srtt_i` in the past (§3.3 rule 3).
  /// The paper's (ad hoc, but validated) choice is 2.
  double forced_cut_factor = 2.0;

  /// Congestion-signal grouping window, in units of srtt_i (§3.3 rule 2).
  double grouping_rtts = 2.0;

  /// Retransmission goes out by multicast when more than this many
  /// receivers are missing the packet, else by unicast (§3.3; the paper's
  /// simulations use 0 = always multicast).
  int rexmit_thresh = 0;

  /// Exponent k of f(x) = x^k in the generalized pthresh
  /// f(srtt_i/srtt_max)/num_trouble_rcvr for heterogeneous RTTs (§5.3).
  /// k = 0 reproduces the original RLA (pthresh = 1/num_trouble_rcvr);
  /// the paper's heterogeneous experiments use k = 2.
  double rtt_exponent = 0.0;

  /// §2's "ideal situation": a controllable constant c such that the
  /// session obtains roughly c times a competing TCP's share. Weight w
  /// scales the congestion-avoidance growth by w and the listening
  /// probability by 1/w (MulTCP-style emulation of w TCP flows), so the
  /// zero-drift window scales ~linearly in w. 1.0 = the paper's RLA.
  double fairness_weight = 1.0;

  /// Testing/ablation override: when >= 0, pthresh is this constant instead
  /// of f(srtt_i/srtt_max)/num_trouble_rcvr.  1.0 yields the naive
  /// listen-to-every-signal multicast sender whose throughput §3.2 argues
  /// collapses as the receiver count grows.
  double fixed_pthresh = -1.0;

  /// Receiver buffer B: the send window's upper bound never exceeds
  /// min_last_ack + B (§3.3 rule 5).
  std::int64_t receiver_buffer = 1'000'000;

  /// Max packets launched per ACK event, to keep a suddenly-opened window
  /// from bursting (the paper's "fast-recovery mechanism to prevent a
  /// suddenly widely-open window").
  int max_burst = 4;

  /// New data is released only once the window has this much unused room,
  /// and then as a back-to-back burst. 1 sends as soon as a slot opens
  /// (smooth, paced-like stream). Values near a TCP burst size make the
  /// multicast stream cluster like its TCP competitors, which equalizes
  /// drop-tail loss rates (§3.1's premise that all senders "send packets in
  /// a fashion similar" — see EXPERIMENTS.md on the drop-tail phase effect).
  int send_quantum = 1;

  /// Random per-packet sender processing time, Uniform(0, max): §3.1's
  /// phase-effect elimination for drop-tail gateways. 0 disables.
  /// Competing flows must use the same bound as
  /// TcpParams::max_send_overhead — unequal jitter quietly biases the
  /// fairness ratio (the topo/ builders assert this).
  sim::SimTime max_send_overhead = 0.0;

  /// ECN: mark data ECN-capable; an echoed CE from receiver i enters the
  /// same congestion-period grouping and random-listening decision as a
  /// loss from receiver i — congestion control without packet loss. Needs
  /// ECN-enabled RED gateways. (The paper's §3.3 remark that "any changes
  /// to networks to improve TCP performance can be easily incorporated"
  /// made concrete.)
  bool ecn = false;

  /// Silent-receiver (crash) protection: a receiver whose last ACK is more
  /// than this many seconds in the past is excluded at the next timeout, so
  /// a crashed receiver cannot freeze the window for the survivors.  The
  /// check rides the retransmission-timeout path — a silent receiver is
  /// indistinguishable from total loss until a timeout fires anyway.
  /// 0 disables (the paper's model: receivers never crash).
  sim::SimTime silent_drop_after = 0.0;

  /// §4.3 option: permanently drop the most congested receiver when its
  /// signal rate dominates (disabled by default, as in the paper's runs).
  bool enable_slow_receiver_drop = false;
  /// A receiver is dropped if it alone accounts for more than this fraction
  /// of all congestion signals after `slow_drop_min_signals` signals.
  double slow_drop_fraction = 0.9;
  std::uint64_t slow_drop_min_signals = 200;

  /// Estimator tuning; the shared TCP/RLA defaults live in
  /// cc/rtt_estimator.hpp.
  cc::RttEstimatorParams rtt{};

  /// Feedback-plane hardening: robust srtt aggregation, per-receiver
  /// signal-rate limiting, and the quarantine → probation → rejoin state
  /// machine of cc::TroubledCensus. Disabled by default — the paper's
  /// honest-receiver model — and byte-identical to it when disabled.
  cc::CensusDefenseParams defense{};

  /// Census reservoir size.  The default holds every member (the exact
  /// census); a bounded reservoir makes the census aggregates sublinear at
  /// large receiver counts.
  cc::CensusSampleParams census{};

  /// Liveness defense against frontier-pinning coalitions; see
  /// FrontierWatchdogParams. Disabled by default.
  FrontierWatchdogParams frontier_watchdog{};

  /// Structural graceful degradation: whole-subtree excision on partition
  /// and the slow-start re-admission ramp on heal; see
  /// SubtreeDegradeParams. Disabled by default (no timers, no draws —
  /// byte-identical to a sender without it).
  SubtreeDegradeParams degrade{};
};

}  // namespace rlacast::rla
