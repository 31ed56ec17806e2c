// RlaSession: one RLA multicast session — the sender, the group grafts and
// one receiver agent per member — wired in one place.  The topology runners
// (through topo::Scenario), the tertiary tree's churn rejoins and the
// examples build their sessions with it; the sender and receivers remain
// fully accessible for inspection.
//
//   rla::RlaSession session(net, sender_node, group, port, flow, params);
//   session.add_receiver(node_a, port);
//   session.add_receiver(node_b, port);
//   session.start_at(0.0);
//   ...
//   session.sender().measurement().throughput_pps(now);
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_receiver.hpp"
#include "rla/rla_sender.hpp"

namespace rlacast::rla {

class RlaSession {
 public:
  /// The sender listens on (`sender_node`, `port`) and stamps `flow` on its
  /// packets; `flow` also names its RNG streams, so two sessions in one
  /// run need distinct flows (and distinct ports on a shared node).
  /// `receiver_options` is the template for every receiver agent.
  RlaSession(net::Network& network, net::NodeId sender_node,
             net::GroupId group, net::PortId port, net::FlowId flow,
             RlaParams params = {}, RlaReceiverOptions receiver_options = {})
      : network_(network),
        sender_node_(sender_node),
        group_(group),
        port_(port),
        receiver_options_(receiver_options),
        sender_(std::make_unique<RlaSender>(network, sender_node, port, group,
                                            flow, params)) {}

  /// Grafts `node` onto the group and attaches a receiver agent at
  /// (`node`, `port`); returns the receiver index. A member joining an
  /// in-progress session resumes at the first packet it sees. A member
  /// that left and rejoins at the same node needs a fresh port: its old
  /// agent stays attached.
  int add_receiver(net::NodeId node, net::PortId port) {
    network_.join_group(group_, sender_node_, node);
    const int idx = sender_->add_receiver(node, port);
    assert(static_cast<std::size_t>(idx) == receivers_.size() &&
           "receiver(idx) needs every member to join through add_receiver");
    RlaReceiverOptions opts = receiver_options_;
    if (sender_->next_seq() > 0) opts.resume_at_first_packet = true;
    receivers_.push_back(std::make_unique<RlaReceiver>(
        network_, node, port, group_, sender_node_, port_, idx, opts));
    return idx;
  }

  /// Removes receiver `idx` from the session (leave): the sender stops
  /// waiting for it. The group tree is not pruned and the agent stays
  /// attached, so it keeps receiving and acknowledging until silenced.
  void remove_receiver(int idx) { sender_->remove_receiver(idx); }

  void start_at(sim::SimTime when) { sender_->start_at(when); }

  RlaSender& sender() { return *sender_; }
  const RlaSender& sender() const { return *sender_; }
  RlaReceiver& receiver(int idx) { return *receivers_[std::size_t(idx)]; }
  std::size_t receiver_count() const { return receivers_.size(); }
  net::GroupId group() const { return group_; }

 private:
  net::Network& network_;
  net::NodeId sender_node_;
  net::GroupId group_;
  net::PortId port_;
  RlaReceiverOptions receiver_options_;
  std::unique_ptr<RlaSender> sender_;
  std::vector<std::unique_ptr<RlaReceiver>> receivers_;
};

}  // namespace rlacast::rla
