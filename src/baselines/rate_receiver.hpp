// Receiver side of the rate-based multicast baselines (LTRC / MBFC).
//
// Subscribes to the group, counts data packets per monitor period, estimates
// the period's loss rate from sequence-number gaps, folds it into an EWMA,
// and unicasts a report packet to the sender every period — the feedback
// architecture shared by the threshold-based proposals §1 reviews.
#pragma once

#include "net/agent.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/ewma.hpp"

namespace rlacast::baselines {

class RateReceiver final : public net::Agent {
 public:
  RateReceiver(net::Network& network, net::NodeId node, net::PortId port,
               net::GroupId group, net::NodeId sender_node,
               net::PortId sender_port, int id);

  /// Starts the periodic reporting loop.
  void start_at(sim::SimTime when);

  void on_receive(const net::Packet& p) override;

  double loss_ewma() const { return loss_.value(); }
  std::uint64_t data_packets_received() const { return received_; }
  int id() const { return id_; }

 private:
  void emit_report();

  net::Network& network_;
  sim::Simulator& sim_;
  net::NodeId node_;
  net::PortId port_;
  net::GroupId group_;
  net::NodeId sender_node_;
  net::PortId sender_port_;
  int id_;

  sim::Timer report_timer_;  // next periodic loss report
  stats::Ewma loss_;
  std::uint64_t received_ = 0;
  std::int64_t period_received_ = 0;
  net::SeqNum highest_seen_ = -1;
  net::SeqNum period_start_seq_ = -1;
};

}  // namespace rlacast::baselines
