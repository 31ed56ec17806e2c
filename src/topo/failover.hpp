// Failover re-grafting over precomputed backup-parent routes.
//
// A multicast tree has no end-to-end retransmission path around a dead
// uplink: when the link (or router) feeding a subtree goes down, every
// member below it is unreachable until the routing layer re-grafts the
// subtree somewhere else.  This manager models the IGMP/PIM-style repair
// loop at simulation fidelity:
//
//   * every protected subtree root declares ONE precomputed backup parent
//     (TreeConfig::backup_paths wires sibling gateways; the backup duplex
//     exists from t=0 but is routing-disabled, so the initial BFS ignores
//     it);
//   * a poll timer probes the primary uplink's interface state in both
//     directions (Link::interface_down — non-mutating, no traffic needed);
//   * once the primary has been down for 0.5 s, the manager flips
//     routing (primary off, backup on), recomputes BFS routes, and
//     re-grafts every watched multicast group over the new paths;
//   * when the primary heals, the flip reverts the same way.
//
// A router crash (fault::NodeFailure) downs the backup uplink too — there
// is nothing to fail over TO, so no flip happens and the sender-side
// subtree excision (rla::RlaParams::degrade) is the protection that
// engages instead.  The two mechanisms are deliberately complementary:
// failover repairs *paths*, excision repairs *sessions*.
//
// Determinism: the manager draws no random numbers and creates exactly one
// timer; with backup_paths off it is never constructed, so default runs
// stay byte-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace rlacast::topo {

/// One protected subtree root with its precomputed secondary parent.  The
/// duplex links parent<->child must already exist for both parents (the
/// backup one routing-disabled).
struct BackupRoute {
  net::NodeId child = net::kNoNode;
  net::NodeId primary_parent = net::kNoNode;
  net::NodeId backup_parent = net::kNoNode;
};

class FailoverManager {
 public:
  explicit FailoverManager(net::Network& net);

  /// Registers a protected subtree root. Call before start().
  void add_route(const BackupRoute& r);

  /// Registers a multicast group to re-graft after every route flip.
  void watch_group(net::GroupId g, net::NodeId source,
                   std::vector<net::NodeId> members);

  /// Arms the poll timer.
  void start();

  /// Primary -> backup flips executed.
  std::uint64_t failover_events() const { return failover_events_; }
  /// Backup -> primary reverts executed (primary healed).
  std::uint64_t failover_reverts() const { return failover_reverts_; }
  /// Packets that traversed a backup uplink (either direction) while its
  /// route was flipped — the traffic that would have been lost without
  /// failover.  Includes still-active flips.
  std::uint64_t packets_rerouted() const;

 private:
  struct Route {
    BackupRoute r;
    net::Link* primary_fwd = nullptr;  // primary_parent -> child
    net::Link* primary_rev = nullptr;  // child -> primary_parent
    net::Link* backup_fwd = nullptr;   // backup_parent -> child
    net::Link* backup_rev = nullptr;   // child -> backup_parent
    sim::SimTime down_since = -1.0;    // first poll that saw the primary down
    bool on_backup = false;
    std::uint64_t backup_delivered_base = 0;  // fwd+rev delivered at flip
  };
  struct WatchedGroup {
    net::GroupId group;
    net::NodeId source;
    std::vector<net::NodeId> members;
  };

  void poll();
  std::uint64_t backup_delivered(const Route& rt) const;
  void regraft();

  net::Network& net_;
  sim::Simulator& sim_;
  std::vector<Route> routes_;
  std::vector<WatchedGroup> groups_;
  sim::Timer timer_;
  std::uint64_t failover_events_ = 0;
  std::uint64_t failover_reverts_ = 0;
  std::uint64_t rerouted_closed_ = 0;  // from flips already reverted
};

}  // namespace rlacast::topo
