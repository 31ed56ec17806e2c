// The per-peer reliability bundle: a SACK scoreboard plus an RTT/RTO
// estimator. A TCP sender owns exactly one (its single receiver); the RLA
// sender owns a vector of them, one per multicast receiver — the same
// machinery either way, which is what makes the two controllers' loss
// detection directly comparable.
#pragma once

#include "cc/rtt_estimator.hpp"
#include "cc/scoreboard.hpp"

namespace rlacast::cc {

struct PeerState {
  Scoreboard sb;
  RttEstimator rtt;
};

}  // namespace rlacast::cc
