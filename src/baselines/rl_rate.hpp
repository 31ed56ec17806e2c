// Random-listening rate controller — the paper's §6 future-work idea made
// concrete: "the idea of 'random listening' can be used in conjunction with
// other forms of congestion control mechanism, such as rate-based control."
//
// The sender keeps the LTRC/MBFC chassis (CBR source, periodic receiver
// loss reports, linear increase, dead-time-limited halving) but replaces
// the threshold *decision* with the RLA's randomized one: each congested
// receiver's report is obeyed with probability 1/n, where n is the number
// of receivers currently reporting congestion.  No topology-specific
// threshold tuning is needed — the property §1 faults LTRC and MBFC for
// lacking.
#pragma once

#include "baselines/rate_sender.hpp"
#include "sim/random.hpp"

namespace rlacast::baselines {

struct RlRateParams {
  RateSenderParams rate{};
};

class RlRateSender final : public RateBasedSender {
 public:
  RlRateSender(net::Network& network, net::NodeId node, net::PortId port,
               net::GroupId group, net::FlowId flow, RlRateParams params = {})
      : RateBasedSender(network, node, port, group, flow, params.rate),
        rng_(network.simulator().rng_stream("rl-rate-listen")) {}

  /// Receivers currently reporting loss above the floor.
  int congested_count() const;

 protected:
  bool should_cut() override;

 private:
  sim::Rng rng_;
};

}  // namespace rlacast::baselines
