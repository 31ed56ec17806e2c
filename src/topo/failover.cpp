#include "topo/failover.hpp"

#include <cassert>

namespace rlacast::topo {

namespace {

/// Primary-down dwell before the flip — the detection delay of the repair
/// protocol (keep well above the poll period).
constexpr sim::SimTime kDetectDelay = 0.5;
/// Interface poll period.
constexpr sim::SimTime kPoll = 0.05;

}  // namespace

FailoverManager::FailoverManager(net::Network& net)
    : net_(net), sim_(net.simulator()), timer_(sim_, [this] { poll(); }) {}

void FailoverManager::add_route(const BackupRoute& r) {
  Route rt;
  rt.r = r;
  rt.primary_fwd = net_.link_between(r.primary_parent, r.child);
  rt.primary_rev = net_.link_between(r.child, r.primary_parent);
  rt.backup_fwd = net_.link_between(r.backup_parent, r.child);
  rt.backup_rev = net_.link_between(r.child, r.backup_parent);
  assert(rt.primary_fwd && rt.primary_rev && rt.backup_fwd && rt.backup_rev &&
         "backup route references links that do not exist");
  routes_.push_back(rt);
}

void FailoverManager::watch_group(net::GroupId g, net::NodeId source,
                                  std::vector<net::NodeId> members) {
  groups_.push_back({g, source, std::move(members)});
}

void FailoverManager::start() { timer_.schedule(kPoll); }

std::uint64_t FailoverManager::backup_delivered(const Route& rt) const {
  return rt.backup_fwd->packets_delivered() +
         rt.backup_rev->packets_delivered();
}

std::uint64_t FailoverManager::packets_rerouted() const {
  std::uint64_t total = rerouted_closed_;
  for (const Route& rt : routes_)
    if (rt.on_backup) total += backup_delivered(rt) - rt.backup_delivered_base;
  return total;
}

void FailoverManager::poll() {
  timer_.schedule(kPoll);
  const sim::SimTime now = sim_.now();
  bool dirty = false;
  for (Route& rt : routes_) {
    const bool primary_down = rt.primary_fwd->interface_down(now) ||
                              rt.primary_rev->interface_down(now);
    if (!primary_down) {
      rt.down_since = -1.0;
      if (rt.on_backup) {
        // Primary healed: revert so the tree returns to its designed shape
        // (the backup may be a longer / shared path).
        rt.primary_fwd->set_routing_enabled(true);
        rt.primary_rev->set_routing_enabled(true);
        rt.backup_fwd->set_routing_enabled(false);
        rt.backup_rev->set_routing_enabled(false);
        rerouted_closed_ += backup_delivered(rt) - rt.backup_delivered_base;
        rt.on_backup = false;
        ++failover_reverts_;
        dirty = true;
      }
      continue;
    }
    if (rt.on_backup) continue;
    if (rt.down_since < 0.0) {
      rt.down_since = now;
      continue;
    }
    if (now - rt.down_since < kDetectDelay) continue;
    // A crashed child router downs its backup uplink too (NodeFailure is
    // atomic over the node's interfaces): nothing to fail over to, keep
    // waiting — subtree excision owns that scenario.
    if (rt.backup_fwd->interface_down(now) ||
        rt.backup_rev->interface_down(now))
      continue;
    rt.primary_fwd->set_routing_enabled(false);
    rt.primary_rev->set_routing_enabled(false);
    rt.backup_fwd->set_routing_enabled(true);
    rt.backup_rev->set_routing_enabled(true);
    rt.backup_delivered_base = backup_delivered(rt);
    rt.on_backup = true;
    ++failover_events_;
    dirty = true;
  }
  if (dirty) regraft();
}

void FailoverManager::regraft() {
  net_.build_routes();
  for (const WatchedGroup& wg : groups_) {
    net_.clear_group(wg.group);
    for (const net::NodeId m : wg.members)
      net_.join_group(wg.group, wg.source, m);
  }
}

}  // namespace rlacast::topo
