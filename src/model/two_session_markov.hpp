// Figure 5: Monte-Carlo simulation of the §4.4 two-session Markov chain.
//
// State (W1, W2); time step Δt = 2 RTT.  Below the pipe both windows grow by
// 2; at/above it each window independently grows by 2 with probability
// p0 = (1-1/n)^n or is divided by 2^i with probability Binomial(n, 1/n)_i.
// The paper's claims, which the benches verify: the desired operating point
// (pipe/2, pipe/2) is recurrent, both marginals have equal means (the chain
// is exchangeable), and most probability mass concentrates around the
// desired point.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "stats/histogram2d.hpp"

namespace rlacast::model {

struct TwoSessionParams {
  int n = 27;          // receivers per session
  double pipe = 40.0;  // aggregate pipe (packets); desired point = pipe/2 each
  double w0_1 = 1.0;   // initial windows
  double w0_2 = 1.0;
  std::int64_t steps = 1'000'000;
};

struct TwoSessionResult {
  stats::Histogram2D density;
  double mean_w1 = 0.0;
  double mean_w2 = 0.0;
  /// Fraction of steps within Chebyshev radius pipe/4 of the desired point.
  double mass_near_fair = 0.0;
  /// Number of visits to the neighbourhood of the desired operating point
  /// (recurrence evidence).
  std::int64_t fair_point_visits = 0;
};

TwoSessionResult run_two_session_markov(const TwoSessionParams& p,
                                        sim::Rng rng);

}  // namespace rlacast::model
