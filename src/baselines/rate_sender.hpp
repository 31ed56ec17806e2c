// Common machinery of the rate-based multicast baselines: a CBR multicast
// source whose rate is adjusted by a pluggable congestion policy fed with
// receiver loss reports.
//
// The shared AIMD frame (as §1 describes): with no congestion the rate rises
// linearly by roughly one packet per RTT (per RTT); upon a congestion
// decision the rate is halved, and further halvings are suppressed for a
// dead time.  The rate arithmetic itself — halving, dead-time refractory,
// clamping — is cc::AimdRate; subclasses implement the *decision*: LTRC's
// single loss-rate threshold, MBFC's loss-rate + loss-population double
// threshold.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/aimd_rate.hpp"
#include "net/agent.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/flow_measurement.hpp"
#include "stats/time_weighted.hpp"

namespace rlacast::baselines {

struct RateSenderParams {
  double initial_rate_pps = 10.0;
  double min_rate_pps = 0.5;
  /// How often the policy is evaluated and the linear increase applied.
  sim::SimTime update_interval = 1.0;
  /// RTT estimate for the "one packet per RTT" linear increase slope.
  sim::SimTime nominal_rtt = 0.25;
  /// Minimum time between two rate halvings.
  sim::SimTime dead_time = 2.0;
};

class RateBasedSender : public net::Agent {
 public:
  RateBasedSender(net::Network& network, net::NodeId node, net::PortId port,
                  net::GroupId group, net::FlowId flow,
                  RateSenderParams params);

  /// Registers a receiver (index must match the RateReceiver's id).
  int add_receiver();

  void start_at(sim::SimTime when);

  void on_receive(const net::Packet& p) override;

  double rate_pps() const { return rate_.rate(); }
  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t rate_cuts() const { return rate_.cuts(); }
  const stats::TimeWeightedMean& rate_mean() const { return rate_mean_; }
  stats::TimeWeightedMean& rate_mean() { return rate_mean_; }

 protected:
  /// Policy hook: given fresh reports, should the rate be halved now?
  /// Called on every policy tick (update_interval).
  virtual bool should_cut() = 0;

  /// Latest loss-rate report per receiver (EWMA computed receiver-side).
  const std::vector<double>& reported_loss() const { return reported_loss_; }
  std::size_t receiver_count() const { return reported_loss_.size(); }
  sim::Simulator& simulator() { return sim_; }
  const RateSenderParams& params() const { return params_; }

 private:
  void send_next();
  void policy_tick();

  net::Network& network_;
  sim::Simulator& sim_;
  net::NodeId node_;
  net::PortId port_;
  net::GroupId group_;
  net::FlowId flow_;
  RateSenderParams params_;

  std::vector<double> reported_loss_;
  cc::AimdRate rate_;
  sim::Timer send_timer_;    // next CBR departure (paced at 1/rate)
  sim::Timer policy_timer_;  // next policy evaluation (update_interval)
  net::SeqNum next_seq_ = 0;
  std::uint64_t sent_ = 0;
  bool started_ = false;
  stats::TimeWeightedMean rate_mean_;
};

}  // namespace rlacast::baselines
