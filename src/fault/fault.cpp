#include "fault/fault.hpp"

#include <stdexcept>
#include <utility>

#include "net/network.hpp"

namespace rlacast::fault {

LinkFaultState::LinkFaultState(LinkImpairment imp, sim::Rng rng)
    : imp_(std::move(imp)), rng_(std::move(rng)) {}

bool LinkFaultState::is_down(sim::SimTime now) const {
  for (const Outage& o : imp_.outages) {
    if (now >= o.start && now < o.end) return true;
  }
  return false;
}

bool LinkFaultState::down(sim::SimTime now) {
  const bool d = is_down(now);
  if (d) ++outage_drops_;
  return d;
}

bool LinkFaultState::peek_down(sim::SimTime now) const { return is_down(now); }

net::LinkFaultHook::WireVerdict LinkFaultState::wire(const net::Packet&,
                                                     sim::SimTime) {
  ++offered_;
  WireVerdict v;
  // Draw order is fixed — GE advance, GE loss, Bernoulli loss, duplication,
  // jitter — so a given seed always consumes the stream identically and
  // reruns are bit-identical.
  if (imp_.ge.enabled()) {
    ge_bad_ = ge_bad_ ? !rng_.chance(imp_.ge.p_bad_to_good)
                      : rng_.chance(imp_.ge.p_good_to_bad);
    // The Good state is lossless: only a Bad packet can draw a loss.
    if (ge_bad_ && imp_.ge.loss_bad > 0.0 && rng_.chance(imp_.ge.loss_bad))
      v.lost = true;
  }
  if (!v.lost && imp_.loss_p > 0.0 && rng_.chance(imp_.loss_p)) v.lost = true;
  if (v.lost) {
    ++wire_losses_;
    return v;
  }
  if (imp_.duplicate_p > 0.0 && rng_.chance(imp_.duplicate_p)) {
    v.duplicated = true;
    ++duplicates_;
  }
  if (imp_.max_jitter > 0.0) {
    v.extra_delay = rng_.uniform(0.0, imp_.max_jitter);
  }
  return v;
}

FaultPlan& FaultPlan::impair(net::NodeId from, net::NodeId to,
                             const LinkImpairment& imp) {
  for (Entry& e : entries_) {
    if (e.from == from && e.to == to) {
      e.imp = imp;
      return *this;
    }
  }
  entries_.push_back(Entry{from, to, imp, nullptr});
  return *this;
}

FaultPlan& FaultPlan::fail_node(net::NodeId node, sim::SimTime start,
                                sim::SimTime end) {
  node_failures_.push_back(NodeFailure{node, start, end});
  return *this;
}

FaultPlan& FaultPlan::partition(net::NodeId a, net::NodeId b,
                                sim::SimTime start, sim::SimTime end) {
  partitions_.push_back(Partition{a, b, start, end});
  return *this;
}

FaultPlan::Entry& FaultPlan::entry_for(net::NodeId from, net::NodeId to) {
  for (Entry& e : entries_) {
    if (e.from == from && e.to == to) return e;
  }
  entries_.push_back(Entry{from, to, LinkImpairment{}, nullptr});
  return entries_.back();
}

void FaultPlan::resolve_structural(net::Network& net) {
  // Structural failures merge outage windows ADDITIVELY into per-link
  // entries.  Outage-only impairments consume zero RNG draws, and each
  // entry's stream is named by its endpoints, so resolving structure can
  // never perturb the draw sequence of an already-registered impairment.
  for (const NodeFailure& nf : node_failures_) {
    bool touched = false;
    for (const auto& link : net.links()) {
      if (link->from() != nf.node && link->to() != nf.node) continue;
      entry_for(link->from(), link->to())
          .imp.outages.push_back(Outage{nf.start, nf.end});
      touched = true;
    }
    if (!touched) {
      throw std::invalid_argument(
          "FaultPlan::arm: fail_node(" + std::to_string(nf.node) +
          ") matches no link");
    }
  }
  for (const Partition& p : partitions_) {
    bool touched = false;
    for (const auto& [from, to] : {std::pair{p.a, p.b}, std::pair{p.b, p.a}}) {
      if (net.link_between(from, to) == nullptr) continue;
      entry_for(from, to).imp.outages.push_back(Outage{p.start, p.end});
      touched = true;
    }
    if (!touched) {
      throw std::invalid_argument(
          "FaultPlan::arm: partition(" + std::to_string(p.a) + "," +
          std::to_string(p.b) + ") matches no link");
    }
  }
}

void FaultPlan::arm(net::Network& net) {
  resolve_structural(net);
  for (Entry& e : entries_) {
    net::Link* link = net.link_between(e.from, e.to);
    if (link == nullptr) {
      throw std::invalid_argument(
          "FaultPlan::arm: no link " + std::to_string(e.from) + "->" +
          std::to_string(e.to));
    }
    const std::string stream = "fault-link-" + std::to_string(e.from) + "-" +
                               std::to_string(e.to);
    e.state = std::make_unique<LinkFaultState>(
        e.imp, net.simulator().rng_stream(stream));
    link->set_fault_hook(e.state.get());
  }
}

FaultTotals FaultPlan::totals() const {
  FaultTotals t;
  for (const Entry& e : entries_) {
    if (!e.state) continue;
    t.offered += e.state->offered();
    t.wire_losses += e.state->wire_losses();
    t.outage_drops += e.state->outage_drops();
    t.duplicates += e.state->duplicates();
  }
  return t;
}

}  // namespace rlacast::fault
