// Workload benchmark: bounded fairness under realistic traffic mixes and
// against modern competitor senders (the workload-generation subsystem).
//
// On the Figure-6 tertiary tree (L1 bottleneck, drop-tail AND RED), the RLA
// multicast session runs against background traffic in a 3x3 sweep:
//
//   competitor — the background TCP flavour: SACK (the paper's), a
//                delay-based Vegas-style sender (cc::DelayGradient), and a
//                BBR-style model-based sender (cc::BbrModel);
//   traffic    — the workload shape (src/workload/): infinite FTP (the
//                paper's), a heavy-tailed web mix (Pareto flow sizes,
//                exponential think times), and FTP + on/off CBR datagram
//                cross-traffic.
//
// Every run carries a stats::FairnessMonitor emitting a sliding-window Jain
// index over {RLA, background flows}; application-limited windows (web
// think times, finite-flow tails) are excluded from the per-window
// Theorem I/II band checks — a flow that WON'T use its share is not
// evidence about one that CAN'T get it. The per-window Jain series lands in
// results.json ("jain.w00", "jain.w01", ...) for plotting.
//
// Exp-runner based: `--jobs N`, `--replicates R`, `--json PATH`,
// `--timeout S`, `--smoke` (CI-sized pass), plus the replay flags
// (--record-journal / --replay) via bench/replay_support.hpp.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/runner.hpp"
#include "model/formulas.hpp"
#include "replay_support.hpp"
#include "topo/tertiary_tree.hpp"

using namespace rlacast;

namespace {

constexpr double kFairnessWindow = 10.0;  // seconds per Jain sample

tcp::TcpVariant variant_from(const std::string& v) {
  if (v == "vegas") return tcp::TcpVariant::kVegas;
  if (v == "bbr") return tcp::TcpVariant::kBbr;
  return tcp::TcpVariant::kSack;
}

workload::TrafficKind traffic_from(const std::string& t) {
  if (t == "web") return workload::TrafficKind::kWeb;
  if (t == "onoff") return workload::TrafficKind::kOnOff;
  return workload::TrafficKind::kFtp;
}

exp::Metrics workload_metrics(const topo::TreeResult& res, bool red) {
  exp::Metrics m;
  m.set("rla.thrput_pps", res.rla[0].throughput_pps);
  m.set("wtcp.thrput_pps", res.worst_tcp().throughput_pps);
  m.set("btcp.thrput_pps", res.best_tcp().throughput_pps);
  const double ratio = res.worst_tcp().throughput_pps > 0.0
                           ? res.rla[0].throughput_pps /
                                 res.worst_tcp().throughput_pps
                           : 0.0;
  m.set("fairness_ratio", ratio);
  m.set("rla.cwnd", res.rla[0].avg_cwnd);
  m.set("rla.signals", static_cast<double>(res.rla[0].cong_signals));

  // Jain telemetry: run minima/means plus the full window series.
  m.set("jain.min", res.min_jain);
  m.set("jain.mean", res.mean_jain);
  int windows_with_evidence = 0;
  for (std::size_t k = 0; k < res.fairness_samples.size(); ++k) {
    const auto& s = res.fairness_samples[k];
    if (s.jain >= 0.0) ++windows_with_evidence;
    char key[24];
    std::snprintf(key, sizeof key, "jain.w%02u",
                  static_cast<unsigned>(k % 100));
    m.set(key, s.jain);
  }
  m.set("jain.windows", static_cast<double>(windows_with_evidence));

  // Per-window Theorem band check over network-limited flows only. Probe 0
  // is the RLA session; the rest are the background flows (-1 = excluded
  // as application-limited that window).
  const auto band = red ? model::theorem1_red_bounds(27)
                        : model::theorem2_droptail_bounds(27);
  int checked = 0;
  int in_band = 0;
  for (const auto& s : res.fairness_samples) {
    if (s.throughput_pps.empty() || s.throughput_pps[0] < 0.0) continue;
    double wtcp = -1.0;
    for (std::size_t i = 1; i < s.throughput_pps.size(); ++i) {
      const double x = s.throughput_pps[i];
      if (x < 0.0) continue;  // app-limited: not fairness evidence
      if (wtcp < 0.0 || x < wtcp) wtcp = x;
    }
    if (wtcp < 0.0) continue;  // no network-limited competitor this window
    ++checked;
    const double r =
        wtcp > 0.0 ? s.throughput_pps[0] / wtcp : band.hi + 1.0;
    if (band.contains(r)) ++in_band;
  }
  m.set("band.checked", static_cast<double>(checked));
  m.set("band.inband", static_cast<double>(in_band));

  // Workload bookkeeping.
  m.set("web.flows_started", static_cast<double>(res.web_flows_started));
  m.set("web.flows_completed", static_cast<double>(res.web_flows_completed));
  m.set("onoff.sent", static_cast<double>(res.onoff_packets_sent));
  m.set("onoff.rcvd", static_cast<double>(res.onoff_packets_received));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  if (opt.smoke) {
    opt.duration = 80.0;
    opt.warmup = 20.0;
  }
  bench::ReplayCoordinator replay("workload", opt);
  bench::print_header(
      "Workload mixes: RLA vs SACK/Vegas/BBR under FTP, web, and on/off "
      "traffic",
      opt);

  const char* gateways[] = {"droptail", "red"};
  const char* variants[] = {"sack", "vegas", "bbr"};
  const char* traffics[] = {"ftp", "web", "onoff"};

  exp::Grid grid;
  grid.master_seed(opt.seed).replicates(opt.replicates);
  for (const char* gw : gateways)
    for (const char* v : variants)
      for (const char* t : traffics)
        grid.add_case(std::string(v) + "-" + t,
                      exp::Point{}.set("gw", gw).set("tcp", v).set("mix", t));

  const exp::RunFn run = [&](const exp::RunSpec& spec) {
    topo::TreeConfig cfg;
    cfg.bottleneck = topo::TreeCase::kL1;
    cfg.gateway = spec.point.get("gw", "droptail") == "red"
                      ? topo::GatewayType::kRed
                      : topo::GatewayType::kDropTail;
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = spec.seed;
    cfg.tcp.variant = variant_from(spec.point.get("tcp", "sack"));
    cfg.traffic.kind = traffic_from(spec.point.get("mix", "ftp"));
    // On/off cross-traffic: ~20% of the L1 bottleneck on average (27
    // sources x 20 pps x 50% duty over 2800 pps capacity).
    cfg.traffic.onoff.rate_pps = 20.0;
    cfg.fairness.window = kFairnessWindow;
    cfg.fairness.start = cfg.warmup;
    cfg.fairness.stop = cfg.duration;

    auto session = replay.session(spec);
    cfg.instrument = session->instrument();
    const auto res = topo::run_tertiary_tree(cfg);
    session->finish();
    return workload_metrics(res, cfg.gateway == topo::GatewayType::kRed);
  };
  if (replay.replay_mode()) return replay.run_replay(run);

  exp::RunnerOptions ropts = opt.runner_options();
  replay.configure_runner(ropts);
  exp::Runner runner(ropts);
  const exp::Results results = runner.run(grid, run);

  const auto t2 = model::theorem2_droptail_bounds(27);
  const auto t1 = model::theorem1_red_bounds(27);
  std::printf("theorem bands, n=27: drop-tail (%.2f, %.0f)  RED (%.2f, %.1f)\n",
              t2.lo, t2.hi, t1.lo, t1.hi);
  std::printf("band check: per-%gs window, app-limited flows excluded\n\n",
              kFairnessWindow);
  std::printf("%-12s %-34s %9s %9s %9s %10s\n", "case", "params", "RLA/WTCP",
              "jain.min", "jain.mean", "in-band");
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0) continue;
    if (!r.ok) {
      std::printf("%-12s %-34s  FAILED: %s\n", r.spec.name.c_str(),
                  r.spec.point.id().c_str(), r.error.c_str());
      continue;
    }
    char inband[24];
    std::snprintf(inband, sizeof inband, "%.0f/%.0f",
                  r.metrics.get("band.inband", 0.0),
                  r.metrics.get("band.checked", 0.0));
    std::printf("%-12s %-34s %9.2f %9.3f %9.3f %10s\n", r.spec.name.c_str(),
                r.spec.point.id().c_str(),
                r.metrics.get("fairness_ratio", 0.0),
                r.metrics.get("jain.min", -1.0),
                r.metrics.get("jain.mean", -1.0), inband);
  }

  std::printf("\nworkload activity (replicate 0):\n");
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0 || !r.ok) continue;
    const double ws = r.metrics.get("web.flows_started", 0.0);
    const double os = r.metrics.get("onoff.sent", 0.0);
    if (ws == 0.0 && os == 0.0) continue;
    std::printf(
        "  %-12s %-34s web=%.0f/%.0f flows  onoff=%.0f sent %.0f rcvd\n",
        r.spec.name.c_str(), r.spec.point.id().c_str(),
        r.metrics.get("web.flows_completed", 0.0), ws, os,
        r.metrics.get("onoff.rcvd", 0.0));
  }

  // Fairness-trajectory snapshot: Jain minima and band hits per case
  // (replicate 0), tracked across PRs via the repo-root BENCH_workload.json.
  std::vector<std::pair<std::string, double>> traj;
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0 || !r.ok) continue;
    traj.emplace_back(r.spec.name + "." + r.spec.point.get("gw", "?") +
                          ".jain_min",
                      r.metrics.get("jain.min", -1.0));
    traj.emplace_back(r.spec.name + "." + r.spec.point.get("gw", "?") +
                          ".band_inband",
                      r.metrics.get("band.inband", 0.0));
  }

  const bool io_ok =
      bench::finish_grid_output("workload", opt, results,
                                runner.last_wall_seconds(),
                                {{"fairness_window", "10"}}) &
      bench::write_trajectory(opt, "workload", runner.last_wall_seconds(),
                              traj);
  return (results.num_errors() || !io_ok) ? 1 : 0;
}
