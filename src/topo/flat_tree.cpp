#include "topo/flat_tree.hpp"

namespace rlacast::topo {
namespace {

constexpr double kFastLinkBps = 100e6;
constexpr sim::SimTime kHopDelay = sim::milliseconds(5);  // 3 hops per branch

}  // namespace

FlatTreeResult run_flat_tree(const FlatTreeConfig& cfg) {
  const std::size_t n_branches = cfg.branches.size();
  Scenario scn(cfg.seed, cfg.instrument);
  net::Network& net = scn.net();

  net::LinkConfig base;
  base.queue = cfg.gateway;
  base.buffer_pkts = cfg.buffer_pkts;
  base.red = cfg.red;
  base.delay = kHopDelay;

  // --- nodes -----------------------------------------------------------------
  const net::NodeId s = net.add_node();
  const net::NodeId g = net.add_node();
  std::vector<net::NodeId> b(n_branches), r(n_branches);
  for (std::size_t i = 0; i < n_branches; ++i) {
    b[i] = net.add_node();
    r[i] = net.add_node();
  }

  // --- links -----------------------------------------------------------------
  const bool shared = cfg.shared_bottleneck_pps > 0.0;
  const auto root = net.connect(
      s, g,
      base.with_bandwidth(shared ? pps_to_bps(cfg.shared_bottleneck_pps)
                                 : kFastLinkBps));
  std::vector<net::Link*> bottleneck_links;
  if (shared) bottleneck_links.push_back(root.forward);
  for (std::size_t i = 0; i < n_branches; ++i) {
    const auto branch = net.connect(
        g, b[i],
        base.with_bandwidth(shared ? kFastLinkBps
                                   : pps_to_bps(cfg.branches[i].mu_pps)));
    net.connect(b[i], r[i],
                base.with_bandwidth(kFastLinkBps)
                    .with_delay(kHopDelay + cfg.branches[i].extra_delay));
    if (!shared) bottleneck_links.push_back(branch.forward);
  }
  scn.build_routes(cfg.gateway, cfg.phase_randomization);

  // --- flows -----------------------------------------------------------------
  rla::RlaSession* session = nullptr;
  if (cfg.with_multicast) {
    session = &scn.add_session(s, /*group=*/1, /*port=*/1000, /*flow=*/1000,
                               cfg.rla);
    for (std::size_t i = 0; i < n_branches; ++i)
      session->add_receiver(r[i], /*port=*/2);
  }
  FlatTreeResult res;
  int flow = 1;
  for (std::size_t i = 0; i < n_branches; ++i) {
    for (int k = 0; k < cfg.branches[i].n_tcp; ++k, ++flow) {
      scn.add_tcp(s, r[i], /*port=*/100 + flow, flow, cfg.tcp);
      res.tcp_branch.push_back(static_cast<int>(i));
    }
  }
  scn.start(cfg.warmup);
  scn.sim().run_until(cfg.duration);

  // --- results ---------------------------------------------------------------
  if (session) {
    const rla::RlaSender& sender = session->sender();
    res.rla = make_row(sender.measurement(), cfg.duration);
    for (std::size_t i = 0; i < n_branches; ++i)
      res.rla_signals_per_receiver.push_back(
          sender.signals_from(static_cast<int>(i)));
    res.num_troubled_final = sender.num_trouble_rcvr();
  }
  res.tcps = scn.background_rows(cfg.duration);
  for (net::Link* l : bottleneck_links)
    res.bottleneck_drop_rate.push_back(l->queue().stats().drop_rate());
  return res;
}

}  // namespace rlacast::topo
