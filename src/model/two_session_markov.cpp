#include "model/two_session_markov.hpp"

#include <algorithm>
#include <cmath>

namespace rlacast::model {

namespace {

constexpr std::int64_t kWarmupSteps = 1'000;
constexpr std::size_t kHistBins = 80;  // per axis, over [0, 2*pipe)

}  // namespace

TwoSessionResult run_two_session_markov(const TwoSessionParams& p,
                                        sim::Rng rng) {
  const double hist_max = 2.0 * p.pipe;
  TwoSessionResult res{
      stats::Histogram2D(hist_max, hist_max, kHistBins, kHistBins)};

  double w1 = p.w0_1, w2 = p.w0_2;
  double sum1 = 0.0, sum2 = 0.0;
  const double fair = p.pipe / 2.0;
  const double near_r = p.pipe / 4.0;
  bool was_near = false;

  auto step_window = [&](double w, int n) {
    // Halvings arrive Binomial(n, 1/n): draw the count directly.
    int cuts = 0;
    for (int i = 0; i < n; ++i)
      if (rng.chance(1.0 / static_cast<double>(n))) ++cuts;
    if (cuts == 0) return w + 2.0;
    return std::max(w / std::pow(2.0, cuts), 1.0);
  };

  for (std::int64_t t = 0; t < p.steps + kWarmupSteps; ++t) {
    if (w1 + w2 < p.pipe) {
      w1 += 2.0;
      w2 += 2.0;
    } else {
      // Both senders see the same congestion signals but coin-flip
      // independently.
      const double nw1 = step_window(w1, p.n);
      const double nw2 = step_window(w2, p.n);
      w1 = nw1;
      w2 = nw2;
    }

    if (t < kWarmupSteps) continue;
    res.density.add(w1, w2);
    sum1 += w1;
    sum2 += w2;
    const bool near = std::abs(w1 - fair) <= near_r && std::abs(w2 - fair) <= near_r;
    if (near && !was_near) ++res.fair_point_visits;
    was_near = near;
  }

  const double n_samples = static_cast<double>(p.steps);
  res.mean_w1 = sum1 / n_samples;
  res.mean_w2 = sum2 / n_samples;
  res.mass_near_fair = res.density.mass_near(fair, fair, near_r);
  return res;
}

}  // namespace rlacast::model
