// BBR-style model-based rate control — the second modern competitor beyond
// the paper's evaluation (exemplar: the ns-3 TCP-BBRv1 friendliness and
// fairness harnesses in SNIPPETS.md §1–2).
//
// This is NOT a line-for-line BBRv1: it is the model-based *shape* of BBR
// reduced to what the discrete-event benches need, built on the repo's
// shared pieces (cc::AimdRate holds the pacing rate, cc::LossResponsePolicy
// carries the loss reaction):
//
//   * bandwidth model — windowed maximum of per-ACK delivery-rate samples
//     (delivered-count delta / elapsed, BBR's rate-sample idea) over the
//     last 10 RTT rounds;
//   * propagation model — windowed minimum RTT over 10 seconds;
//   * gain cycling — ProbeBW rotates pacing gain through
//     [1.25, 0.75, 1, 1, 1, 1, 1, 1], one phase per min_rtt, after a
//     Startup phase (gain 2/ln2) that exits when bandwidth stops growing
//     for 3 consecutive rounds, followed by one Drain phase;
//   * cwnd cap — cwnd_gain x estimated BDP, the model's in-flight ceiling.
//
// Losses do not move the model (BBR ignores isolated loss by design —
// exactly the behaviour the fairness benches are probing); only a repeated
// retransmission-timeout stall collapses the window, and the model restarts
// from the next delivery samples.
//
// Deterministic: no RNG draws anywhere (the phase rotation is clocked by
// min_rtt, not randomized — one less stream to journal).
#pragma once

#include <array>
#include <cstdint>

#include "cc/aimd_rate.hpp"
#include "cc/loss_policy.hpp"
#include "sim/time.hpp"

namespace rlacast::cc {

/// The bandwidth/propagation model plus the Startup/Drain/ProbeBW gain
/// plumbing. The owning sender feeds delivery-rate and RTT samples and
/// reads back pacing rate and cwnd cap; the pacing rate itself lives in a
/// cc::AimdRate so the rate arithmetic (clamping, observability) is the
/// same object the rate-based baselines use.
class BbrModel {
 public:
  enum class Mode : std::uint8_t { kStartup, kDrain, kProbeBw };

  BbrModel();

  /// One delivery-rate sample: `delivered_delta` packets acknowledged over
  /// `interval` seconds (computed by the sender from per-packet delivered
  /// counts, BBR's rate-sample), plus the accompanying clean RTT sample.
  void on_sample(sim::SimTime now, double delivered_delta,
                 sim::SimTime interval, sim::SimTime rtt);

  /// Round/phase bookkeeping: the sender calls this when a full window of
  /// data has been delivered (one "round trip" of the BBR state machine).
  void on_round(sim::SimTime now);

  /// Model outputs.
  double btlbw_pps() const { return btlbw_; }
  sim::SimTime min_rtt() const { return min_rtt_; }
  double pacing_gain() const;
  /// Current pacing rate in packets/s (gain * btlbw, via the AimdRate).
  double pacing_rate_pps() const { return pace_.rate(); }
  /// In-flight cap in packets: cwnd_gain * BDP (floored at 4 so the ACK
  /// clock can always restart).
  double cwnd_cap() const;
  Mode mode() const { return mode_; }
  int cycle_phase() const { return cycle_phase_; }
  const AimdRate& pace() const { return pace_; }

  /// Timeout collapse: forget the bandwidth model (the pipe evidently
  /// changed); min_rtt survives — propagation does not spike on loss.
  void reset_bw();

 private:
  void refresh_pace();

  AimdRate pace_;  // pacing-rate holder (rate-domain arithmetic + clamps)
  Mode mode_ = Mode::kStartup;

  // Windowed-max bandwidth filter: ring of per-round maxima.
  std::array<double, 16> bw_ring_{};
  int bw_head_ = 0;
  int bw_count_ = 0;
  double round_max_bw_ = 0.0;  // running max within the current round
  double btlbw_ = 0.0;

  // Windowed-min RTT filter (timestamped running minimum).
  sim::SimTime min_rtt_ = 0.0;
  sim::SimTime min_rtt_at_ = 0.0;
  bool min_rtt_valid_ = false;

  // Startup exit detection.
  double full_bw_ = 0.0;
  int full_bw_rounds_ = 0;

  // ProbeBW gain cycle.
  static constexpr std::array<double, 8> kCycleGains = {1.25, 0.75, 1.0, 1.0,
                                                        1.0,  1.0,  1.0, 1.0};
  int cycle_phase_ = 0;
  sim::SimTime phase_started_ = 0.0;
};

/// Loss response of the BBR-style sender: a grouped loss episode does NOT
/// cut the window (the model, not loss, sets the rate) — but the sender
/// still retransmits, and a repeated timeout stall collapses to restart
/// the ACK clock.
class BbrRatePolicy final : public LossResponsePolicy {
 public:
  CutAction on_signal(const SignalContext& ctx) override;
  CutAction on_timeout(bool repeated_stall) override;
  double halve_floor() const override { return 2.0; }
};

}  // namespace rlacast::cc
