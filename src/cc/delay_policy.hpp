// Delay-based congestion control (Vegas-style srtt-gradient), a modern
// competitor beyond the paper's evaluation (PAPERS.md: "Achieving Fair
// Network Equilibria with Delay-based Congestion Control Algorithms").
//
// Two cooperating pieces, mirroring the split every controller in the repo
// uses:
//
//   DelayGradient      — the once-per-RTT estimation core: tracks the
//                        minimum observed RTT (base_rtt, the propagation
//                        estimate) and computes the Vegas backlog
//                        diff = cwnd * (rtt - base_rtt) / rtt — the number
//                        of packets the flow keeps queued at the
//                        bottleneck.  diff < alpha -> grow, diff > beta ->
//                        shrink, otherwise hold.
//   DelayBasedPolicy   — the cc::LossResponsePolicy half: delay-based
//                        senders still halve on a genuine loss episode and
//                        collapse on a timeout (Vegas keeps Reno's loss
//                        reaction as its safety net); it exists as its own
//                        class so benches and tests can tell the competitor
//                        apart from TcpSackPolicy.
//
// Both are plain objects: no allocation, no RNG draws (determinism guard:
// a delay-based sender must consume exactly zero randomness beyond its send
// pacer — cc_policy_test pins this).
#pragma once

#include "cc/loss_policy.hpp"
#include "sim/time.hpp"

namespace rlacast::cc {

/// The once-per-RTT Vegas decision core. The owning sender feeds it clean
/// RTT samples (Karn-filtered, like the RttEstimator) plus the current
/// cwnd, and asks for a verdict once per window of data.
class DelayGradient {
 public:
  enum class Verdict { kHold, kIncrease, kDecrease };

  static constexpr double kAlpha = 2.0;  // grow while backlog < alpha packets
  static constexpr double kBeta = 4.0;   // shrink once backlog > beta packets
  /// Slow-start exit: leave exponential growth once backlog exceeds gamma.
  static constexpr double kGamma = 1.0;

  /// Feeds one clean RTT sample (seconds). Keeps the running minimum as the
  /// propagation estimate and the latest sample as the congestion signal.
  void add_sample(sim::SimTime rtt) {
    if (!valid_ || rtt < base_rtt_) base_rtt_ = rtt;
    last_rtt_ = rtt;
    valid_ = true;
  }

  /// Estimated bottleneck backlog in packets at window `cwnd`:
  /// diff = cwnd * (rtt - base_rtt) / rtt (Vegas eq. with expected =
  /// cwnd/base_rtt, actual = cwnd/rtt, scaled by base_rtt).
  double backlog(double cwnd) const {
    if (!valid_ || last_rtt_ <= 0.0) return 0.0;
    return cwnd * (last_rtt_ - base_rtt_) / last_rtt_;
  }

  /// The once-per-RTT congestion-avoidance decision.
  Verdict decide(double cwnd) const {
    if (!valid_) return Verdict::kHold;
    const double diff = backlog(cwnd);
    if (diff < kAlpha) return Verdict::kIncrease;
    if (diff > kBeta) return Verdict::kDecrease;
    return Verdict::kHold;
  }

  /// Whether slow start should end: backlog beyond gamma means the pipe is
  /// full and exponential growth would only build queue.
  bool slow_start_done(double cwnd) const {
    return valid_ && backlog(cwnd) > kGamma;
  }

  bool valid() const { return valid_; }
  sim::SimTime base_rtt() const { return base_rtt_; }
  sim::SimTime last_rtt() const { return last_rtt_; }

  /// Base-RTT refresh after a route change or long idle (unused by the
  /// benches; exposed for completeness and tests).
  void reset() { valid_ = false; }

 private:
  bool valid_ = false;
  sim::SimTime base_rtt_ = 0.0;
  sim::SimTime last_rtt_ = 0.0;
};

/// Loss response of the delay-based sender: Vegas keeps TCP's reaction to
/// actual loss (halve per episode, collapse on timeout) — the delay
/// gradient only replaces the *probing*, not the safety net.
class DelayBasedPolicy final : public LossResponsePolicy {
 public:
  CutAction on_signal(const SignalContext& ctx) override;
  CutAction on_timeout(bool repeated_stall) override;
  double halve_floor() const override { return 2.0; }
};

}  // namespace rlacast::cc
