// Ablations of the RLA's design choices (DESIGN.md §4):
//  A1: congestion-signal grouping window (0 / 1 / 2 / 4 RTTs; paper: 2)
//  A2: forced-cut guard on/off (paper: on, factor 2)
//  A3: eta sweep for the troubled census (paper: 20)
//  A4: pthresh RTT exponent k in f(x)=x^k under heterogeneous RTTs
//      (paper: 2; 0 = original RLA)
// Each ablation reports RLA throughput / window and the worst TCP on the
// same topology, showing why the paper's choices sit where they do.
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "stats/table.hpp"
#include "topo/flat_tree.hpp"
#include "topo/tertiary_tree.hpp"

using namespace rlacast;

namespace {

topo::FlatTreeConfig flat_base(const bench::Options& opt) {
  topo::FlatTreeConfig cfg;
  cfg.branches.assign(6, topo::FlatBranch{200.0, 1});
  cfg.duration = opt.duration;
  cfg.warmup = opt.warmup;
  cfg.seed = opt.seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  if (opt.smoke) {
    // CI-sized pass for the golden-output regression guard
    // (tests/golden_bench_test.cmake): short runs, every table.
    opt.duration = 40.0;
    opt.warmup = 10.0;
  }
  bench::print_header("RLA design-choice ablations", opt);

  // ---- A1: grouping window -----------------------------------------------------
  std::printf("A1: congestion-signal grouping window (paper: 2 RTT)\n");
  stats::Table t1({"grouping (RTTs)", "RLA pkt/s", "RLA cwnd", "signals",
                   "cuts", "WTCP pkt/s"});
  for (double g : {0.0, 1.0, 2.0, 4.0}) {
    auto cfg = flat_base(opt);
    cfg.rla.grouping_rtts = g;
    const auto r = topo::run_flat_tree(cfg);
    t1.add_row({stats::Table::num(g, 0), stats::Table::num(r.rla.throughput_pps),
                stats::Table::num(r.rla.avg_cwnd),
                std::to_string(r.rla.cong_signals),
                std::to_string(r.rla.window_cuts),
                stats::Table::num(r.worst_tcp().throughput_pps)});
  }
  std::printf("%s", t1.render().c_str());
  std::printf("expected: no grouping (0) inflates the signal count and cuts\n"
              "the window too often; very wide grouping under-reacts.\n\n");

  // ---- A2: forced-cut guard ------------------------------------------------------
  std::printf("A2: forced-cut guard (paper: on, factor 2)\n");
  stats::Table t2({"forced-cut", "RLA pkt/s", "RLA cwnd", "forced cuts",
                   "WTCP pkt/s"});
  for (double factor : {2.0, 8.0, 1e9}) {
    auto cfg = flat_base(opt);
    cfg.rla.forced_cut_factor = factor;
    const auto r = topo::run_flat_tree(cfg);
    t2.add_row({factor > 1e6 ? "off" : stats::Table::num(factor, 0),
                stats::Table::num(r.rla.throughput_pps),
                stats::Table::num(r.rla.avg_cwnd),
                std::to_string(r.rla.forced_cuts),
                stats::Table::num(r.worst_tcp().throughput_pps)});
  }
  std::printf("%s", t2.render().c_str());
  std::printf("expected: the guard engages rarely (near-zero forced cuts in\n"
              "steady state) so disabling it changes little on balanced\n"
              "topologies — it is protection against pathological runs.\n\n");

  // ---- A3: eta sweep --------------------------------------------------------------
  std::printf("A3: troubled-receiver eta (paper: 20)\n");
  stats::Table t3({"eta", "RLA pkt/s", "RLA cwnd", "num troubled (final)",
                   "WTCP pkt/s"});
  for (double eta : {2.0, 5.0, 20.0, 100.0}) {
    auto cfg = flat_base(opt);
    // Unbalance the branches so the census has a decision to make.
    cfg.branches[0].mu_pps = 150.0;
    cfg.branches[5].mu_pps = 600.0;
    cfg.rla.eta = eta;
    const auto r = topo::run_flat_tree(cfg);
    t3.add_row({stats::Table::num(eta, 0),
                stats::Table::num(r.rla.throughput_pps),
                stats::Table::num(r.rla.avg_cwnd),
                std::to_string(r.num_troubled_final),
                stats::Table::num(r.worst_tcp().throughput_pps)});
  }
  std::printf("%s", t3.render().c_str());
  std::printf("expected: small eta shrinks the census toward the single\n"
              "worst receiver (more aggressive), huge eta counts mildly\n"
              "congested receivers too (more conservative).\n\n");

  // ---- A4: pthresh RTT exponent -----------------------------------------------------
  std::printf("A4: pthresh RTT exponent under heterogeneous RTTs "
              "(paper: 2)\n");
  stats::Table t4({"k in f(x)=x^k", "RLA pkt/s", "RLA cwnd", "WTCP pkt/s",
                   "BTCP pkt/s"});
  for (double k : {0.0, 1.0, 2.0}) {
    topo::TreeConfig cfg;
    cfg.bottleneck = topo::TreeCase::kL3AllHetero;
    cfg.gateway_receivers = true;
    cfg.rla.rtt_exponent = k;
    if (k == 0.0) cfg.rla.fixed_pthresh = -1.0;  // original RLA
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = opt.seed;
    const auto r = topo::run_tertiary_tree(cfg);
    t4.add_row({stats::Table::num(k, 0),
                stats::Table::num(r.rla[0].throughput_pps),
                stats::Table::num(r.rla[0].avg_cwnd),
                stats::Table::num(r.worst_tcp().throughput_pps),
                stats::Table::num(r.best_tcp().throughput_pps)});
  }
  std::printf("%s", t4.render().c_str());
  std::printf("expected: k=2 discounts signals from short-RTT receivers,\n"
              "compensating TCP's own RTT bias; k=0 over-listens to the\n"
              "near receivers and depresses the multicast share.\n\n");

  // ---- A5: arrival burstiness under drop-tail -----------------------------------
  std::printf("A5: send burstiness vs drop-tail loss share (§3.1's phase\n"
              "discussion: smooth arrivals evade burst-tail drops)\n");
  stats::Table t5({"send quantum", "RLA pkt/s", "RLA cwnd",
                   "RLA signals", "WTCP pkt/s"});
  for (int q : {1, 4, 8}) {
    topo::TreeConfig cfg;
    cfg.bottleneck = topo::TreeCase::kL1;  // one shared drop-tail bottleneck
    cfg.rla.send_quantum = q;
    cfg.rla.max_burst = std::max(4, 2 * q);
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = opt.seed;
    const auto r = topo::run_tertiary_tree(cfg);
    t5.add_row({std::to_string(q),
                stats::Table::num(r.rla[0].throughput_pps),
                stats::Table::num(r.rla[0].avg_cwnd),
                std::to_string(r.rla[0].cong_signals),
                stats::Table::num(r.worst_tcp().throughput_pps)});
  }
  std::printf("%s", t5.render().c_str());
  std::printf("expected: larger quanta cluster the multicast stream like\n"
              "TCP's packet trains, raising its drop share at the shared\n"
              "drop-tail gateway and shrinking its window/throughput.\n\n");

  // ---- A6: §2's controllable fairness constant c ---------------------------------
  std::printf("A6: fairness weight w (§2's 'ideal situation': share = c x "
              "TCP's,\nc controllable by a parameter), RED gateways\n");
  stats::Table t6({"weight w", "RLA pkt/s", "mean TCP pkt/s", "ratio"});
  for (double w : {0.5, 1.0, 2.0, 4.0}) {
    auto cfg = flat_base(opt);
    cfg.gateway = topo::GatewayType::kRed;
    cfg.rla.fairness_weight = w;
    const auto r = topo::run_flat_tree(cfg);
    double tcp_mean = 0.0;
    for (const auto& tr : r.tcps) tcp_mean += tr.throughput_pps;
    tcp_mean /= static_cast<double>(r.tcps.size());
    t6.add_row({stats::Table::num(w, 1),
                stats::Table::num(r.rla.throughput_pps),
                stats::Table::num(tcp_mean),
                stats::Table::num(tcp_mean > 0 ? r.rla.throughput_pps / tcp_mean
                                               : 0.0,
                                  2)});
  }
  std::printf("%s", t6.render().c_str());
  std::printf("expected: the share ratio rises monotonically with w while\n"
              "TCP keeps a material share at every setting.\n");
  return 0;
}
