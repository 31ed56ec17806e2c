#include "topo/flat_tree.hpp"

#include <cassert>
#include <memory>

#include "net/network.hpp"
#include "rla/rla_receiver.hpp"
#include "rla/rla_sender.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"

namespace rlacast::topo {
namespace {

constexpr double kFastLinkBps = 100e6;
constexpr sim::SimTime kHopDelay = sim::milliseconds(5);  // 3 hops per branch

double pps_to_bps(double pps) {
  return pps * static_cast<double>(net::kDataPacketBytes) * 8.0;
}

}  // namespace

FlatTreeResult run_flat_tree(const FlatTreeConfig& cfg) {
  const std::size_t n_branches = cfg.branches.size();
  sim::Simulator sim(cfg.seed);
  if (cfg.instrument) cfg.instrument(sim);
  net::Network net(sim);

  const auto queue_kind = cfg.gateway == GatewayType::kRed
                              ? net::QueueKind::kRed
                              : net::QueueKind::kDropTail;
  net::LinkConfig base;
  base.queue = queue_kind;
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
  const double shared_bps = pps_to_bps(cfg.shared_bottleneck_pps);

  net.connect(s, g, base.with_bandwidth(shared ? shared_bps : kFastLinkBps));
  double slowest_bps = shared ? shared_bps : kFastLinkBps;
  std::vector<net::Link*> bottleneck_links;
  if (shared) bottleneck_links.push_back(net.link_between(s, g));
  for (std::size_t i = 0; i < n_branches; ++i) {
    const double mu_bps =
        shared ? kFastLinkBps : pps_to_bps(cfg.branches[i].mu_pps);
    net.connect(g, b[i], base.with_bandwidth(mu_bps));
    net.connect(b[i], r[i],
                base.with_bandwidth(kFastLinkBps)
                    .with_delay(kHopDelay + cfg.branches[i].extra_delay));
    if (!shared) {
      bottleneck_links.push_back(net.link_between(g, b[i]));
      slowest_bps = std::min(slowest_bps, mu_bps);
    }
  }
  net.build_routes();

  // Phase-effect elimination: uniform random sender overhead up to the
  // bottleneck service time, drop-tail only (§3.1). Competing flows must
  // share one jitter bound — unequal max_send_overhead quietly biases the
  // fairness comparison — so the builder overrides both params from the
  // same `overhead` below and rejects configs that pre-set them unequally.
  assert(cfg.rla.max_send_overhead == cfg.tcp.max_send_overhead &&
         "RLA and TCP flows must share the same send-jitter bound");
  const sim::SimTime overhead =
      (cfg.gateway == GatewayType::kDropTail && cfg.phase_randomization)
          ? static_cast<double>(net::kDataPacketBytes) * 8.0 / slowest_bps
          : 0.0;

  // --- multicast session -----------------------------------------------------
  const net::GroupId group = 1;
  std::unique_ptr<rla::RlaSender> rla_sender;
  std::vector<std::unique_ptr<rla::RlaReceiver>> rla_receivers;
  if (cfg.with_multicast) {
    rla::RlaParams rp = cfg.rla;
    rp.max_send_overhead = overhead;
    rla_sender = std::make_unique<rla::RlaSender>(net, s, /*port=*/1000, group,
                                                  /*flow=*/1000, rp);
    rla::RlaReceiverOptions ropts;
    ropts.max_ack_overhead = overhead;
    for (std::size_t i = 0; i < n_branches; ++i) {
      net.join_group(group, s, r[i]);
      const int idx = rla_sender->add_receiver(r[i], /*port=*/2);
      rla_receivers.push_back(std::make_unique<rla::RlaReceiver>(
          net, r[i], /*port=*/2, group, s, /*sender_port=*/1000, idx, ropts));
    }
  }

  // --- competing TCP connections ---------------------------------------------
  std::vector<std::unique_ptr<tcp::TcpSender>> tcp_senders;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> tcp_receivers;
  std::vector<int> tcp_branch;
  int flow = 1;
  for (std::size_t i = 0; i < n_branches; ++i) {
    for (int k = 0; k < cfg.branches[i].n_tcp; ++k) {
      const net::PortId sport = 100 + flow;
      const net::PortId dport = 100 + flow;
      tcp::TcpParams tp = cfg.tcp;
      tp.max_send_overhead = overhead;
      tcp_receivers.push_back(std::make_unique<tcp::TcpReceiver>(
          net, r[i], dport, overhead));
      tcp_senders.push_back(std::make_unique<tcp::TcpSender>(
          net, s, sport, r[i], dport, flow, tp));
      tcp_branch.push_back(static_cast<int>(i));
      ++flow;
    }
  }

  // --- start times: scheduled to desynchronize --------------------------------
  auto starts = sim.rng_stream("start-jitter");
  for (auto& t : tcp_senders) t->start_at(starts.uniform(0.0, 1.0));
  if (rla_sender) rla_sender->start_at(starts.uniform(0.0, 1.0));

  // --- run -------------------------------------------------------------------
  sim.at(cfg.warmup, [&] {
    if (rla_sender) rla_sender->measurement().begin_measurement(sim.now());
    for (auto& t : tcp_senders) t->measurement().begin_measurement(sim.now());
  });
  sim.run_until(cfg.duration);

  // --- results ---------------------------------------------------------------
  FlatTreeResult res;
  if (rla_sender) {
    res.rla = make_row(rla_sender->measurement(), cfg.duration);
    for (std::size_t i = 0; i < n_branches; ++i)
      res.rla_signals_per_receiver.push_back(
          rla_sender->signals_from(static_cast<int>(i)));
    res.rla_mcast_rexmits = static_cast<double>(rla_sender->multicast_rexmits());
    res.rla_ucast_rexmits = static_cast<double>(rla_sender->unicast_rexmits());
    res.num_troubled_final = rla_sender->num_trouble_rcvr();
  }
  for (auto& t : tcp_senders)
    res.tcps.push_back(make_row(t->measurement(), cfg.duration));
  res.tcp_branch = std::move(tcp_branch);
  for (net::Link* l : bottleneck_links)
    res.bottleneck_drop_rate.push_back(l->queue().stats().drop_rate());
  return res;
}

}  // namespace rlacast::topo
