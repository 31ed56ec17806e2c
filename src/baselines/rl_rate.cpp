#include "baselines/rl_rate.hpp"

namespace rlacast::baselines {

namespace {

/// A receiver counts as congested when its reported EWMA loss rate exceeds
/// this floor (loss measurement noise gate, not a tuned threshold: any
/// small positive value works).
constexpr double kLossFloor = 0.005;

}  // namespace

int RlRateSender::congested_count() const {
  int n = 0;
  for (double loss : reported_loss())
    if (loss > kLossFloor) ++n;
  return n;
}

bool RlRateSender::should_cut() {
  // One independent 1/n coin per congested receiver's standing report —
  // on average one obeyed signal per reporting round, the random-listening
  // invariant, regardless of how many receivers are congested.
  const int n = congested_count();
  if (n == 0) return false;
  const double pthresh = 1.0 / static_cast<double>(n);
  for (int i = 0; i < n; ++i)
    if (rng_.chance(pthresh)) return true;
  return false;
}

}  // namespace rlacast::baselines
