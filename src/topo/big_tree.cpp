#include "topo/big_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "rla/group_receiver.hpp"

namespace rlacast::topo {
namespace {

/// Leading group links that carry the soft bottleneck + background TCP.
constexpr int kCongestedGroups = 4;
/// Uncongested hops and collapsed ACK paths.
constexpr double kFastLinkBps = 10e9;
constexpr sim::SimTime kUpperDelay = sim::milliseconds(5);
constexpr sim::SimTime kLeafDelay = sim::milliseconds(100);
/// Per-ACK processing jitter at the group receivers, Uniform(0, max).
/// Replaces the per-host jitter the collapse removed: without it every
/// member of every group answers one multicast delivery at the same instant
/// and the shared reverse queues see a synchronized burst.
constexpr sim::SimTime kAckSpread = 0.02;
/// Sampling period of the materialized-scoreboard / state-bytes high-water
/// probes.
constexpr sim::SimTime kSamplePeriod = 0.5;

}  // namespace

BigTreeResult run_big_tree(const BigTreeConfig& cfg) {
  assert(cfg.receivers > 0 && cfg.group_size > 0);
  Scenario scn(cfg.seed, cfg.instrument);
  sim::Simulator& sim = scn.sim();
  net::Network& net = scn.net();

  const int groups =
      (cfg.receivers + cfg.group_size - 1) / cfg.group_size;
  const int congested = std::min(kCongestedGroups, groups);
  const int branches = std::max(
      1, static_cast<int>(std::lround(std::ceil(std::sqrt(groups)))));

  // --- nodes -----------------------------------------------------------------
  const net::NodeId s = net.add_node();
  const net::NodeId g1 = net.add_node();
  std::vector<net::NodeId> branch(static_cast<std::size_t>(branches));
  for (auto& n : branch) n = net.add_node();
  std::vector<net::NodeId> leaf(static_cast<std::size_t>(groups));
  for (auto& n : leaf) n = net.add_node();

  // --- links -----------------------------------------------------------------
  // The fast interior hops and the collapsed ACK reverse paths are sized to
  // the ACK fan-in (receivers + slack).  Leaving these at the bottleneck's
  // 20 packets silently drops most of the synchronized n-receiver ACK
  // answer once n reaches ~10^4 (feedback implosion), and the bench then
  // measures interior queue sizing instead of the gateway discipline under
  // test.
  const std::size_t ack_buf = static_cast<std::size_t>(cfg.receivers) + 64;
  net::LinkConfig fast;
  fast.bandwidth_bps = kFastLinkBps;
  fast.buffer_pkts = ack_buf;
  fast.delay = kUpperDelay;

  net.connect(s, g1, fast);
  for (int b = 0; b < branches; ++b)
    net.connect(g1, branch[static_cast<std::size_t>(b)], fast);

  // Group g hangs off branch g % branches, which spreads the congested
  // prefix over distinct branches.  The congested forward direction gets
  // the paper's soft-bottleneck capacity mu = share_pps * (m + 1) with one
  // background TCP (m = 1); its reverse stands in for group_size collapsed
  // per-leaf ACK paths and stays fast.
  const double cap_bps = pps_to_bps(cfg.share_pps * 2.0);
  std::vector<net::Link*> bottleneck_links;
  for (int g = 0; g < groups; ++g) {
    const net::NodeId up = branch[static_cast<std::size_t>(g % branches)];
    net::LinkConfig c = fast.with_delay(kLeafDelay);
    if (g < congested) {
      c.bandwidth_bps = cap_bps;
      c.buffer_pkts = cfg.buffer_pkts;  // the soft bottleneck stays small
      c.reverse_bandwidth_bps = kFastLinkBps;
      c.reverse_buffer_pkts = ack_buf;  // the group's collapsed ACK paths
      c.queue = cfg.gateway;
      c.red = cfg.red;
    }
    const auto duplex = net.connect(up, leaf[static_cast<std::size_t>(g)], c);
    if (g < congested) bottleneck_links.push_back(duplex.forward);
  }
  scn.build_routes(cfg.gateway);

  // --- the RLA session -------------------------------------------------------
  // Its members join by collapsed group: one GroupReceiver per group leaf
  // answers for the leaf's members.
  const net::PortId sender_port = 1000;
  const net::PortId rcvr_port = 10;
  rla::RlaSession& session =
      scn.add_session(s, /*group=*/1, sender_port, /*flow=*/1000, cfg.rla);
  rla::RlaSender& sender = session.sender();
  sender.reserve_receivers(static_cast<std::size_t>(cfg.receivers));
  std::vector<std::unique_ptr<rla::GroupReceiver>> group_receivers;
  group_receivers.reserve(static_cast<std::size_t>(groups));
  int remaining = cfg.receivers;
  for (int g = 0; g < groups; ++g) {
    const net::NodeId node = leaf[static_cast<std::size_t>(g)];
    net.join_group(session.group(), s, node);
    const int members = std::min(cfg.group_size, remaining);
    remaining -= members;
    std::vector<int> ids;
    ids.reserve(static_cast<std::size_t>(members));
    for (int m = 0; m < members; ++m)
      ids.push_back(sender.add_receiver(node, rcvr_port));
    group_receivers.push_back(std::make_unique<rla::GroupReceiver>(
        net, node, rcvr_port, session.group(), s, sender_port, std::move(ids),
        std::max(kAckSpread, scn.send_jitter())));
  }
  assert(remaining == 0);

  // --- background TCP on every congested group link --------------------------
  for (int g = 0; g < congested; ++g)
    scn.add_tcp(s, leaf[static_cast<std::size_t>(g)], /*port=*/100 + g,
                /*flow=*/g + 1, cfg.tcp);

  // The RLA session starts (plus jitter) alongside the background TCPs, so
  // every session slow-starts into the same empty queues — the paper's
  // setups start flows together.  Starting it AFTER the TCPs entrench is a
  // known trap at scale: on a RED queue held at a persistent drop
  // probability by full-window TCPs, every small restart burst tail-loses
  // (no packets after the hole -> no dupacks -> full RTO), and the session
  // never escapes the timeout/collapse cycle.
  scn.start(cfg.warmup, /*session_spread=*/0.5);

  BigTreeResult res;
  res.nodes = static_cast<int>(net.node_count());
  res.groups = groups;

  sim::Timer sampler(sim, [&] {
    res.materialized_hiwater =
        std::max(res.materialized_hiwater, sender.materialized_scoreboards());
    res.sender_state_bytes_hiwater =
        std::max(res.sender_state_bytes_hiwater, sender.state_bytes());
    if (sim.now() + kSamplePeriod <= cfg.duration)
      sampler.schedule(kSamplePeriod);
  });
  sampler.schedule(kSamplePeriod);
  sim.run_until(cfg.duration);

  // --- results ---------------------------------------------------------------
  res.rla = make_row(sender.measurement(), cfg.duration);
  res.tcps = scn.background_rows(cfg.duration);
  double drops = 0.0;
  for (net::Link* l : bottleneck_links) drops += l->queue().stats().drop_rate();
  res.bottleneck_drop_rate =
      bottleneck_links.empty() ? 0.0
                               : drops / static_cast<double>(bottleneck_links.size());
  std::uint64_t all_drops = 0;
  for (const auto& l : net.links()) all_drops += l->queue().stats().dropped;
  for (net::Link* l : bottleneck_links) all_drops -= l->queue().stats().dropped;
  res.offpath_drops = all_drops;
  res.acks = sender.acks_received();
  res.events = sim.scheduler().dispatched();
  res.mcast_rexmits = sender.multicast_rexmits();
  res.ucast_rexmits = sender.unicast_rexmits();
  res.troubled_final = sender.num_trouble_rcvr();
  res.active_final = sender.active_receivers();
  res.sender_state_bytes = sender.state_bytes();
  res.baseline_state_bytes = sender.baseline_state_bytes();
  res.materialized_final = sender.materialized_scoreboards();
  res.materialized_hiwater =
      std::max(res.materialized_hiwater, res.materialized_final);
  res.sender_state_bytes_hiwater =
      std::max(res.sender_state_bytes_hiwater, res.sender_state_bytes);
  return res;
}

}  // namespace rlacast::topo
