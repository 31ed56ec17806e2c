// Scale benchmark: the Theorem I/II bands beyond the paper's 27 receivers,
// and the sender-memory / census-cost headlines of the sublinear receiver
// state refactor.
//
// Phase 1 — full simulations on topo::run_big_tree (collapsed group leaves,
// one sender census entry and ACK stream per member) sweeping
// n in {27, 10^3, 10^4} (+ 10^5 with --full), drop-tail AND RED.  The census
// axis is the reservoir size: the default holds every member ("exact" cases,
// run everywhere); 256 ("sampled" cases) is spot-checked at 10^3 / 10^4.
// Each run checks
//   * the Theorem band for its n: RLA/worst-TCP throughput inside
//     (1/3, sqrt(3n)) under RED, (1/4, 2n) under drop-tail;
//   * sender bytes per receiver against the historical one-scoreboard-
//     per-receiver baseline (RlaSender::baseline_state_bytes).
//
// Phase 2 — census microbenchmark: ns per congestion signal (on_signal +
// recompute + srtt_max) at n in {10^4, 10^5, 10^6} for the default reservoir
// vs 256, demonstrating the O(N) -> O(reservoir) census scan. 10^6 receivers
// run here only (state + signal plumbing, no packet simulation) — that is
// the million-leaf smoke level.
//
// Exp-runner based: `--jobs N`, `--replicates R`, `--json PATH`, `--smoke`
// (n <= 10^3, CI-sized), `--full` (adds n = 10^5), plus the replay flags
// (--record-journal / --replay) via bench/replay_support.hpp. The
// --trajectory snapshot (BENCH_scale.json) carries the per-case band and
// memory metrics and the standard `sender_bytes_per_receiver` headline.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cc/troubled_census.hpp"
#include "common.hpp"
#include "exp/runner.hpp"
#include "model/formulas.hpp"
#include "replay_support.hpp"
#include "topo/big_tree.hpp"

using namespace rlacast;

namespace {

struct ScaleCase {
  int n;
  int group_size;
  double duration;
  double warmup;
};

// Simulated seconds shrink as n grows: at 10^4 members the sender hears
// ~10^6 ACKs per simulated second, so a few seconds already cover hundreds
// of congestion epochs on a 0.2 s RTT.
constexpr ScaleCase kScaleCases[] = {
    {27, 1, 40.0, 10.0},
    {1000, 25, 20.0, 5.0},
    {10000, 100, 20.0, 8.0},
    {100000, 500, 5.0, 3.0},
};

constexpr std::size_t kSampledReservoir = 256;

exp::Metrics scale_metrics(const topo::BigTreeResult& res, int n, bool red,
                           double wall) {
  exp::Metrics m;
  m.set("n", static_cast<double>(n));
  m.set("nodes", static_cast<double>(res.nodes));
  m.set("groups", static_cast<double>(res.groups));
  m.set("rla.thrput_pps", res.rla.throughput_pps);
  m.set("wtcp.thrput_pps", res.worst_tcp().throughput_pps);
  m.set("btcp.thrput_pps", res.best_tcp().throughput_pps);
  const double ratio = res.worst_tcp().throughput_pps > 0.0
                           ? res.rla.throughput_pps /
                                 res.worst_tcp().throughput_pps
                           : 0.0;
  const auto band = red ? model::theorem1_red_bounds(n)
                        : model::theorem2_droptail_bounds(n);
  m.set("fairness_ratio", ratio);
  m.set("band.lo", band.lo);
  m.set("band.hi", band.hi);
  m.set("band.inband", band.contains(ratio) ? 1.0 : 0.0);
  m.set("drop_rate", res.bottleneck_drop_rate);
  m.set("rla.cwnd", res.rla.avg_cwnd);
  m.set("rla.signals", static_cast<double>(res.rla.cong_signals));
  m.set("troubled", static_cast<double>(res.troubled_final));
  m.set("active", static_cast<double>(res.active_final));
  m.set("rla.timeouts", static_cast<double>(res.rla.timeouts));
  m.set("rla.window_cuts", static_cast<double>(res.rla.window_cuts));
  m.set("rla.forced_cuts", static_cast<double>(res.rla.forced_cuts));
  m.set("acks", static_cast<double>(res.acks));
  m.set("mcast_rexmits", static_cast<double>(res.mcast_rexmits));
  m.set("ucast_rexmits", static_cast<double>(res.ucast_rexmits));

  m.set("state_bytes", static_cast<double>(res.sender_state_bytes));
  m.set("state_bytes_per_rcvr",
        static_cast<double>(res.sender_state_bytes) / n);
  m.set("state_bytes_hiwater",
        static_cast<double>(res.sender_state_bytes_hiwater));
  m.set("baseline_bytes", static_cast<double>(res.baseline_state_bytes));
  m.set("baseline_ratio",
        res.sender_state_bytes > 0
            ? static_cast<double>(res.baseline_state_bytes) /
                  static_cast<double>(res.sender_state_bytes)
            : 0.0);
  m.set("materialized", static_cast<double>(res.materialized_final));
  m.set("materialized_hiwater",
        static_cast<double>(res.materialized_hiwater));

  m.set("events", static_cast<double>(res.events));
  m.set("wall_s", wall);
  m.set("events_per_sec",
        wall > 0.0 ? static_cast<double>(res.events) / wall : 0.0);
  // End-to-end sender CPU per ACK: total wall clock over ACKs heard. The
  // census microbench below isolates the per-signal scan; this is the
  // whole-pipeline number (packet sim + scoreboard + census + timers).
  m.set("cpu_us_per_ack",
        res.acks > 0 ? wall * 1e6 / static_cast<double>(res.acks) : 0.0);
  return m;
}

/// Census-only microbenchmark: one signal = on_signal + recompute +
/// srtt_max, the exact per-signal work of RlaSender::handle_congestion_
/// signal, with a census of `n` members at reservoir size `sp`. Returns
/// ns/signal.
double census_ns_per_signal(int n, const cc::CensusSampleParams& sp,
                            double* bytes_per) {
  cc::TroubledCensus census(20.0, 0.25);
  census.configure_sampling(sp);
  census.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    census.add_receiver();
    census.note_srtt(i, 0.1 + 0.0001 * (i % 512));
  }
  // Deterministic member sequence (LCG); time grows so troubled epochs age.
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  const long iters =
      sp.reservoir >= static_cast<std::size_t>(n)
          ? std::max(20L, 20000000L / n)  // O(n) scans: bound total work
          : 20000L;                       // O(reservoir) per signal
  double t = 1.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (long it = 0; it < iters; ++it) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const int member = static_cast<int>((x >> 33) % static_cast<std::uint64_t>(n));
    t += 0.001;
    census.on_signal(member, t);
    census.recompute(t);
    (void)census.srtt_max();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (bytes_per != nullptr)
    *bytes_per = static_cast<double>(census.state_bytes()) / n;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::ReplayCoordinator replay("scale", opt);
  bench::print_header(
      "Scale: Theorem I/II bands and sender bytes/receiver at n >> 27", opt);

  // --smoke trims to n <= 10^3 at 40% duration; --full adds n = 10^5.
  const double tscale = opt.smoke ? 0.4 : 1.0;
  exp::Grid grid;
  grid.master_seed(opt.seed).replicates(opt.replicates);
  auto add_case = [&](const ScaleCase& sc, const char* gw,
                      const char* census, const std::string& suffix = "") {
    char dur[32], warm[32];
    std::snprintf(dur, sizeof dur, "%g", sc.duration * tscale);
    std::snprintf(warm, sizeof warm, "%g", sc.warmup * tscale);
    grid.add_case(std::string(gw) + "-n" + std::to_string(sc.n) + "-" +
                      census + suffix,
                  exp::Point{}
                      .set("gw", gw)
                      .set("n", std::to_string(sc.n))
                      .set("g", std::to_string(sc.group_size))
                      .set("census", census)
                      .set("dur", dur)
                      .set("warm", warm));
  };
  for (const char* gw : {"red", "droptail"}) {
    for (const ScaleCase& sc : kScaleCases) {
      if (opt.smoke && sc.n > 1000) continue;
      if (!opt.full && sc.n > 10000) continue;
      add_case(sc, gw, "exact");
      // Sampled census spot checks where reservoir << n actually holds.
      if (sc.n >= 1000 && sc.n <= 10000) add_case(sc, gw, "sampled");
    }
  }
  // Group-collapse-factor sweep at n = 10^4 (RED, exact census): g is how
  // many members a collapsed leaf aggregates, so n/g is the simulated
  // fan-out. The band must hold at every g, and the sweep shows how much
  // of the events/s and CPU-per-ACK headline is collapse artifact vs
  // genuine per-member cost (case names carry a -gN suffix so the default
  // g=100 case keeps its trajectory keys).
  if (!opt.smoke) {
    for (int g : {25, 50, 200, 400})
      add_case({10000, g, 20.0, 8.0}, "red", "exact",
               "-g" + std::to_string(g));
  }

  const exp::RunFn run = [&](const exp::RunSpec& spec) {
    topo::BigTreeConfig cfg;
    cfg.receivers = std::atoi(spec.point.get("n", "1000").c_str());
    cfg.group_size = std::atoi(spec.point.get("g", "25").c_str());
    cfg.gateway = spec.point.get("gw", "red") == "red"
                      ? topo::GatewayType::kRed
                      : topo::GatewayType::kDropTail;
    cfg.duration = std::atof(spec.point.get("dur", "20").c_str());
    cfg.warmup = std::atof(spec.point.get("warm", "5").c_str());
    cfg.seed = spec.seed;
    if (spec.point.get("census", "exact") == "sampled")
      cfg.rla.census.reservoir = kSampledReservoir;

    auto session = replay.session(spec);
    cfg.instrument = session->instrument();
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = topo::run_big_tree(cfg);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    session->finish();
    return scale_metrics(res, cfg.receivers,
                         cfg.gateway == topo::GatewayType::kRed, wall);
  };
  if (replay.replay_mode()) return replay.run_replay(run);

  exp::RunnerOptions ropts = opt.runner_options();
  replay.configure_runner(ropts);
  exp::Runner runner(ropts);
  const exp::Results results = runner.run(grid, run);

  std::printf("%-22s %8s %9s %16s %8s %9s %7s %9s %8s\n", "case", "RLA/WTCP",
              "band", "in-band", "B/rcvr", "baseline", "mat.hi", "drop",
              "us/ACK");
  int bands_checked = 0;
  int bands_in = 0;
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0) continue;
    if (!r.ok) {
      std::printf("%-22s FAILED: %s\n", r.spec.name.c_str(), r.error.c_str());
      continue;
    }
    char band[40];
    std::snprintf(band, sizeof band, "(%.2f, %.0f)",
                  r.metrics.get("band.lo", 0.0), r.metrics.get("band.hi", 0.0));
    ++bands_checked;
    const bool in = r.metrics.get("band.inband", 0.0) > 0.0;
    if (in) ++bands_in;
    std::printf("%-22s %8.2f %16s %9s %8.0f %8.1fx %7.0f %8.4f %8.2f\n",
                r.spec.name.c_str(), r.metrics.get("fairness_ratio", 0.0),
                band, in ? "yes" : "NO",
                r.metrics.get("state_bytes_per_rcvr", 0.0),
                r.metrics.get("baseline_ratio", 0.0),
                r.metrics.get("materialized_hiwater", 0.0),
                r.metrics.get("drop_rate", 0.0),
                r.metrics.get("cpu_us_per_ack", 0.0));
  }
  std::printf("\nband checks: %d/%d in band\n", bands_in, bands_checked);

  // Phase 2: census microbenchmark (default reservoir O(n) vs 256
  // O(reservoir)); the trajectory keys keep the exact/sampled names.
  std::printf("\ncensus cost per congestion signal by reservoir size:\n");
  std::printf("%10s %14s %14s %12s\n", "n", "default ns/sig",
              ("k=" + std::to_string(kSampledReservoir) + " ns/sig").c_str(),
              "B/rcvr");
  std::vector<std::pair<std::string, double>> traj;
  const int census_ns[] = {10000, 100000, 1000000};
  for (int n : census_ns) {
    if (opt.smoke && n > 100000) break;
    double bytes_per = 0.0;
    const double exact = census_ns_per_signal(n, {}, nullptr);
    const double sampled = census_ns_per_signal(
        n, {.reservoir = kSampledReservoir}, &bytes_per);
    std::printf("%10d %14.0f %14.0f %12.1f\n", n, exact, sampled, bytes_per);
    traj.emplace_back("census.exact_ns_n" + std::to_string(n), exact);
    traj.emplace_back("census.sampled_ns_n" + std::to_string(n), sampled);
  }

  // Trajectory: band verdicts and the memory headline per case, plus the
  // standard sender_bytes_per_receiver field from the largest exact RED run.
  double headline_bpr = -1.0;
  double headline_n = 0.0;
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0 || !r.ok) continue;
    traj.emplace_back(r.spec.name + ".ratio",
                      r.metrics.get("fairness_ratio", 0.0));
    traj.emplace_back(r.spec.name + ".inband",
                      r.metrics.get("band.inband", 0.0));
    traj.emplace_back(r.spec.name + ".bytes_per_rcvr",
                      r.metrics.get("state_bytes_per_rcvr", 0.0));
    traj.emplace_back(r.spec.name + ".baseline_ratio",
                      r.metrics.get("baseline_ratio", 0.0));
    traj.emplace_back(r.spec.name + ".events_per_sec",
                      r.metrics.get("events_per_sec", 0.0));
    traj.emplace_back(r.spec.name + ".cpu_us_per_ack",
                      r.metrics.get("cpu_us_per_ack", 0.0));
    if (r.spec.point.get("gw", "") == "red" &&
        r.spec.point.get("census", "") == "exact" &&
        r.metrics.get("n", 0.0) > headline_n) {
      headline_n = r.metrics.get("n", 0.0);
      headline_bpr = r.metrics.get("state_bytes_per_rcvr", -1.0);
    }
  }

  const bool io_ok =
      bench::finish_grid_output("scale", opt, results,
                                runner.last_wall_seconds(),
                                {{"reservoir",
                                  std::to_string(kSampledReservoir)}}) &
      bench::write_trajectory(opt, "scale", runner.last_wall_seconds(), traj,
                              headline_bpr);
  return (results.num_errors() || bands_in != bands_checked || !io_ok) ? 1 : 0;
}
