#include "cc/bbr_policy.hpp"

#include <algorithm>

namespace rlacast::cc {

namespace {

constexpr int kBwWindowRtts = 10;            // max-filter length, RTT rounds
constexpr sim::SimTime kMinRttWindow = 10.0;  // min-filter length, seconds
constexpr double kCwndGain = 2.0;            // in-flight cap = gain * BDP
constexpr double kStartupGain = 2.885;  // 2/ln2: fill the pipe in log2 rounds
constexpr double kDrainGain = 0.3465;   // 1/startup gain: drain the queue
/// Startup exits when bandwidth grew less than this factor for
/// kStartupFullBwRounds consecutive rounds.
constexpr double kStartupGrowthThresh = 1.25;
constexpr int kStartupFullBwRounds = 3;
constexpr double kInitialRatePps = 10.0;  // pacing rate before a sample

}  // namespace

BbrModel::BbrModel()
    : pace_(AimdRateParams{.initial_rate = kInitialRatePps,
                           .min_rate = 0.5,
                           .max_rate = 1e9,
                           .dead_time = 0.0}) {}

void BbrModel::on_sample(sim::SimTime now, double delivered_delta,
                         sim::SimTime interval, sim::SimTime rtt) {
  if (delivered_delta > 0.0 && interval > 0.0)
    round_max_bw_ = std::max(round_max_bw_, delivered_delta / interval);
  if (rtt > 0.0) {
    if (!min_rtt_valid_ || rtt <= min_rtt_ ||
        now - min_rtt_at_ > kMinRttWindow) {
      min_rtt_ = rtt;
      min_rtt_at_ = now;
      min_rtt_valid_ = true;
    }
  }
}

void BbrModel::on_round(sim::SimTime now) {
  // Commit this round's bandwidth maximum into the windowed-max ring.
  const int window =
      std::min<int>(kBwWindowRtts, static_cast<int>(bw_ring_.size()));
  bw_ring_[static_cast<std::size_t>(bw_head_)] = round_max_bw_;
  bw_head_ = (bw_head_ + 1) % window;
  bw_count_ = std::min(bw_count_ + 1, window);
  round_max_bw_ = 0.0;
  btlbw_ = 0.0;
  for (int i = 0; i < bw_count_; ++i)
    btlbw_ = std::max(btlbw_, bw_ring_[static_cast<std::size_t>(i)]);

  switch (mode_) {
    case Mode::kStartup:
      // Exit once bandwidth stops growing for N consecutive rounds.
      if (btlbw_ >= full_bw_ * kStartupGrowthThresh) {
        full_bw_ = btlbw_;
        full_bw_rounds_ = 0;
      } else if (++full_bw_rounds_ >= kStartupFullBwRounds) {
        mode_ = Mode::kDrain;
        phase_started_ = now;
      }
      break;
    case Mode::kDrain:
      // One drain round empties the startup queue, then steady probing.
      mode_ = Mode::kProbeBw;
      cycle_phase_ = 0;
      phase_started_ = now;
      break;
    case Mode::kProbeBw:
      // Rotate one gain phase per min_rtt (not per round: long-RTT rounds
      // already last >= min_rtt, short rounds batch up).
      if (min_rtt_valid_ && now - phase_started_ >= min_rtt_) {
        cycle_phase_ = (cycle_phase_ + 1) % static_cast<int>(kCycleGains.size());
        phase_started_ = now;
      }
      break;
  }
  refresh_pace();
}

double BbrModel::pacing_gain() const {
  switch (mode_) {
    case Mode::kStartup:
      return kStartupGain;
    case Mode::kDrain:
      return kDrainGain;
    case Mode::kProbeBw:
      return kCycleGains[static_cast<std::size_t>(cycle_phase_)];
  }
  return 1.0;
}

double BbrModel::cwnd_cap() const {
  if (btlbw_ <= 0.0 || !min_rtt_valid_) return 4.0;
  return std::max(4.0, kCwndGain * btlbw_ * min_rtt_);
}

void BbrModel::reset_bw() {
  bw_count_ = 0;
  bw_head_ = 0;
  round_max_bw_ = 0.0;
  btlbw_ = 0.0;
  full_bw_ = 0.0;
  full_bw_rounds_ = 0;
  mode_ = Mode::kStartup;
  refresh_pace();
}

void BbrModel::refresh_pace() {
  const double bw = btlbw_ > 0.0 ? btlbw_ : kInitialRatePps;
  pace_.set_rate(pacing_gain() * bw);
}

CutAction BbrRatePolicy::on_signal(const SignalContext& ctx) {
  (void)ctx;  // the model, not loss, sets the rate
  return CutAction::kNone;
}

CutAction BbrRatePolicy::on_timeout(bool repeated_stall) {
  return repeated_stall ? CutAction::kCollapse : CutAction::kNone;
}

}  // namespace rlacast::cc
