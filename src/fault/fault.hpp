// Fault injection: scheduled per-link impairments, deterministically seeded.
//
// A FaultPlan maps unidirectional links to LinkImpairment descriptions —
// Bernoulli and Gilbert–Elliott random wire loss, duplication, delay jitter,
// and scheduled outage windows.  arm() installs one LinkFaultState per
// impaired link as that link's net::LinkFaultHook; each state draws from
// its own named sim::Rng stream ("fault-link-<from>-<to>"), so (a) faulted
// runs replay bit-identically for a given master seed, and (b) arming a
// plan cannot perturb any pre-existing stream (RED, RLA coin flips, start
// jitter) — the no-fault baseline stays byte-identical.
//
// Where each impairment acts in the queue → serializer → pipe pipeline:
//  * outages — transmit(): the interface is down, the offered packet is
//    discarded before it reaches the queue;
//  * loss / duplication / jitter — the wire: the packet survived queueing
//    but is corrupted, copied, or delayed on its propagation leg.  The
//    verdict is drawn when the packet starts serializing.
// Queue dynamics are never touched; congestion drops remain congestion
// drops, and every fault discard is counted separately (Link::fault_drops(),
// stats::EngineCounters::fault_drops).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace rlacast::fault {

/// Two-state Gilbert–Elliott burst-loss channel.  The chain advances once
/// per serialized packet; the Good state is lossless and the Bad state
/// loses each packet with probability loss_bad.
struct GilbertElliott {
  double p_good_to_bad = 0.0;  // per-packet transition Good -> Bad
  double p_bad_to_good = 0.0;  // per-packet transition Bad -> Good
  double loss_bad = 1.0;       // loss probability while Bad

  bool enabled() const { return p_good_to_bad > 0.0; }
};

/// A scheduled interface outage: the link is down on [start, end).
///
/// Onset semantics (intentional, pinned by fault_test's
/// OutageOnsetDeliversInFlightPackets): an outage downs the *interface*,
/// not the wire.  Only packets offered at transmit() while the outage is
/// active are discarded; packets already queued, serializing, or in the
/// link's propagation pipe when the outage begins are delivered
/// normally — matching a router interface going admin-down while photons
/// already on the fiber still arrive.  A model that also kills in-flight
/// packets can be composed by pairing the outage with a loss window, but
/// the base semantics here are deliver-in-flight.
struct Outage {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
};

/// A router crash: every link attached to `node` (incoming and outgoing) is
/// down on [start, end) atomically.  Resolved against the actual topology
/// at arm() time by merging an Outage into each attached link's impairment.
struct NodeFailure {
  net::NodeId node = 0;
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
};

/// A correlated bidirectional partition: both directions of the a<->b link
/// pair are down on [start, end).  Cuts one edge of the tree, severing the
/// subtree below it, without crashing either endpoint.
struct Partition {
  net::NodeId a = 0;
  net::NodeId b = 0;
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
};

/// Everything that can go wrong on one unidirectional link.
struct LinkImpairment {
  double loss_p = 0.0;           // Bernoulli wire loss per packet
  GilbertElliott ge{};           // bursty loss channel (composes with loss_p)
  double duplicate_p = 0.0;      // probability of one extra delivered copy
  sim::SimTime max_jitter = 0.0; // uniform [0, max_jitter) extra delay
  std::vector<Outage> outages;   // scheduled down windows

  bool any() const {
    return loss_p > 0.0 || ge.enabled() || duplicate_p > 0.0 ||
           max_jitter > 0.0 || !outages.empty();
  }
};

/// Aggregate fault accounting across a plan (sum over armed links).
struct FaultTotals {
  std::uint64_t offered = 0;       // packets the wire() hook adjudicated
  std::uint64_t wire_losses = 0;   // lost on the wire
  std::uint64_t outage_drops = 0;  // discarded at a down interface
  std::uint64_t duplicates = 0;    // extra copies injected
};

/// The per-link hook implementation.  Owns the link's dedicated RNG stream
/// and the Gilbert–Elliott state machine.  Created and owned by FaultPlan;
/// must outlive the simulation run.
class LinkFaultState final : public net::LinkFaultHook {
 public:
  LinkFaultState(LinkImpairment imp, sim::Rng rng);

  bool down(sim::SimTime now) override;
  bool peek_down(sim::SimTime now) const override;
  WireVerdict wire(const net::Packet& p, sim::SimTime now) override;

  const LinkImpairment& impairment() const { return imp_; }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t wire_losses() const { return wire_losses_; }
  std::uint64_t outage_drops() const { return outage_drops_; }
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  bool is_down(sim::SimTime now) const;

  LinkImpairment imp_;
  sim::Rng rng_;
  bool ge_bad_ = false;    // Gilbert–Elliott channel state
  std::uint64_t offered_ = 0;
  std::uint64_t wire_losses_ = 0;
  std::uint64_t outage_drops_ = 0;
  std::uint64_t duplicates_ = 0;
};

/// A schedule of per-link impairments.  Build with impair(), then arm()
/// once the topology exists.  An empty plan arms nothing: every link keeps a
/// null hook and the run is byte-identical to an unfaulted one.
class FaultPlan {
 public:
  /// Registers (or merges, last-write-wins) the impairment for the
  /// unidirectional link from -> to.  Call before arm().
  FaultPlan& impair(net::NodeId from, net::NodeId to,
                    const LinkImpairment& imp);

  /// Schedules a router crash: at arm() time every link attached to `node`
  /// in the armed network gets an Outage on [start, end).  Unlike impair()
  /// this is ADDITIVE — it merges into (never replaces) any per-link
  /// impairment already registered, and multiple structural failures stack.
  FaultPlan& fail_node(net::NodeId node, sim::SimTime start, sim::SimTime end);

  /// Schedules a correlated bidirectional partition of the a<->b edge on
  /// [start, end).  Additive, like fail_node().  Directions that do not
  /// exist in the armed network are skipped (a partition of a unidirectional
  /// edge downs just that direction).
  FaultPlan& partition(net::NodeId a, net::NodeId b, sim::SimTime start,
                       sim::SimTime end);

  bool empty() const {
    return entries_.empty() && node_failures_.empty() && partitions_.empty();
  }
  std::size_t size() const { return entries_.size(); }

  const std::vector<NodeFailure>& node_failures() const {
    return node_failures_;
  }
  const std::vector<Partition>& partitions() const { return partitions_; }

  /// Installs hooks on the matching links of `net`.  Throws
  /// std::invalid_argument if a registered link does not exist.  The plan
  /// must outlive the simulation run.
  void arm(net::Network& net);

  /// Sum of per-link fault counters across all armed links.
  FaultTotals totals() const;

 private:
  struct Entry {
    net::NodeId from;
    net::NodeId to;
    LinkImpairment imp;
    std::unique_ptr<LinkFaultState> state;  // null until arm()
  };
  /// Finds or creates the entry for from -> to (created entries start with
  /// an empty impairment, to be merged into).
  Entry& entry_for(net::NodeId from, net::NodeId to);
  /// Resolves node failures / partitions against the armed topology by
  /// merging outage windows into per-link entries.
  void resolve_structural(net::Network& net);

  std::vector<Entry> entries_;
  std::vector<NodeFailure> node_failures_;
  std::vector<Partition> partitions_;
};

}  // namespace rlacast::fault
