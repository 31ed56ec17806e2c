// Validates the analytic models of §4 against packet-level simulation:
//
//  E1: eq. (1) — the TCP PA window vs the measured average window of a TCP
//      connection through a RED bottleneck, across a loss-rate sweep.
//  E2: eq. (3) / the Proposition — the RLA window with 2..n receivers under
//      independent (fig. 2(a)) and common (fig. 2(b)) losses, vs the
//      Proposition bounds sqrt(2(1-p)/p) .. sqrt(n) * sqrt(2(1-p)/p).
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "model/formulas.hpp"
#include "model/window_walk.hpp"
#include "stats/table.hpp"
#include "topo/flat_tree.hpp"

using namespace rlacast;

namespace {

/// Runs a flat tree and returns (avg window, congestion probability) of the
/// RLA session: p = window-cut-relevant signals / packets acked.
struct Measured {
  double window;
  double p_max;
  std::uint64_t signals;
};

Measured run_rla(int n_branches, double mu_pps, bool shared,
                 const bench::Options& opt) {
  topo::FlatTreeConfig cfg;
  cfg.branches.assign(static_cast<std::size_t>(n_branches),
                      topo::FlatBranch{mu_pps, 1});
  if (shared) cfg.shared_bottleneck_pps = mu_pps * n_branches;
  cfg.gateway = topo::GatewayType::kRed;
  cfg.duration = opt.duration;
  cfg.warmup = opt.warmup;
  cfg.seed = opt.seed;
  const auto res = topo::run_flat_tree(cfg);
  // Largest per-receiver congestion probability: signals from the busiest
  // receiver over packets delivered.
  std::uint64_t max_signals = 0, total_signals = 0;
  for (auto s : res.rla_signals_per_receiver) {
    max_signals = std::max(max_signals, s);
    total_signals += s;
  }
  const double pkts = res.rla.throughput_pps * opt.measured_seconds();
  return {res.rla.avg_cwnd,
          pkts > 0 ? static_cast<double>(max_signals) / pkts : 0.0,
          total_signals};
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
  bench::print_header(
      "Model validation: eq. (1), eq. (3), Proposition bounds", opt);

  // ---- E1: TCP PA window across loss sweeps ---------------------------------
  std::printf("E1: TCP average window vs eq. (1) (single TCP, RED "
              "bottleneck)\n");
  stats::Table t1({"bottleneck pkt/s", "measured p", "measured W",
                   "PA window sqrt(2(1-p)/p)", "ratio"});
  for (double mu : {60.0, 120.0, 240.0, 480.0}) {
    topo::FlatTreeConfig cfg;
    cfg.branches = {topo::FlatBranch{mu, 1}};
    cfg.with_multicast = false;
    cfg.gateway = topo::GatewayType::kRed;
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = opt.seed;
    const auto res = topo::run_flat_tree(cfg);
    const auto& tcp = res.tcps[0];
    const double pkts = tcp.throughput_pps * opt.measured_seconds();
    if (pkts <= 0 || tcp.cong_signals == 0) continue;
    const double p = static_cast<double>(tcp.cong_signals) / pkts;
    const double predicted = model::tcp_pa_window(p);
    t1.add_row({stats::Table::num(mu, 0), stats::Table::num(p, 4),
                stats::Table::num(tcp.avg_cwnd, 2),
                stats::Table::num(predicted, 2),
                stats::Table::num(tcp.avg_cwnd / predicted, 2)});
  }
  std::printf("%s\n", t1.render().c_str());

  // ---- E2: RLA window vs eq. (3) / Proposition --------------------------------
  std::printf("E2: RLA window vs the Proposition (eq. 2) bounds\n");
  stats::Table t2({"receivers", "loss structure", "measured p_max",
                   "measured W", "lower bound", "upper bound", "within"});
  for (int n : {2, 4, 8}) {
    for (bool shared : {false, true}) {
      const auto m = run_rla(n, 200.0, shared, opt);
      if (m.p_max <= 0.0) continue;
      const auto b = model::proposition_window_bounds(m.p_max, n);
      t2.add_row({std::to_string(n), shared ? "common" : "independent",
                  stats::Table::num(m.p_max, 4),
                  stats::Table::num(m.window, 2), stats::Table::num(b.lo, 2),
                  stats::Table::num(b.hi, 2),
                  b.contains(m.window) ? "yes" : "NO"});
    }
  }
  std::printf("%s\n", t2.render().c_str());

  // ---- E2b: pure window-walk Monte Carlo vs the PA prediction -----------------
  std::printf("E2b: window-walk Monte Carlo (the §4 random processes "
              "directly)\n");
  stats::Table tw({"process", "p", "n", "mean W (MC)", "PA W", "ratio"});
  const std::int64_t steps = opt.full ? 5'000'000 : 1'000'000;
  for (double p : {0.01, 0.03}) {
    const auto t = model::walk_tcp(p, steps, sim::Rng(opt.seed));
    tw.add_row({"TCP", stats::Table::num(p, 3), "-",
                stats::Table::num(t.mean_window, 2),
                stats::Table::num(t.pa_window, 2),
                stats::Table::num(t.ratio, 3)});
    for (int n : {2, 27}) {
      const auto ri = model::walk_rla_independent(p, n, steps,
                                                  sim::Rng(opt.seed + 1));
      tw.add_row({"RLA indep", stats::Table::num(p, 3), std::to_string(n),
                  stats::Table::num(ri.mean_window, 2),
                  stats::Table::num(ri.pa_window, 2),
                  stats::Table::num(ri.ratio, 3)});
      const auto rc =
          model::walk_rla_common(p, n, steps, sim::Rng(opt.seed + 2));
      tw.add_row({"RLA common", stats::Table::num(p, 3), std::to_string(n),
                  stats::Table::num(rc.mean_window, 2),
                  stats::Table::num(rc.pa_window, 2),
                  stats::Table::num(rc.ratio, 3)});
    }
  }
  std::printf("%s", tw.render().c_str());
  std::printf("the mean/PA ratio is a stable constant (~0.8-0.9) across\n"
              "processes — the proportionality the paper's PA method needs.\n\n");

  // ---- closed-form reference table -------------------------------------------
  std::printf("closed-form eq. (3) reference (p1 = p2 = p):\n");
  stats::Table t3({"p", "TCP eq.(1)", "RLA n=2 eq.(3)", "RLA n=27 indep",
                   "RLA n=27 common"});
  for (double p : {0.005, 0.01, 0.02, 0.05}) {
    t3.add_row({stats::Table::num(p, 3),
                stats::Table::num(model::tcp_pa_window(p), 2),
                stats::Table::num(model::rla_two_receiver_window(p, p), 2),
                stats::Table::num(model::rla_independent_loss_window(p, 27), 2),
                stats::Table::num(model::rla_common_loss_window(p, 27), 2)});
  }
  std::printf("%s\n", t3.render().c_str());
  return 0;
}
