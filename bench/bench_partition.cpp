// Partition tolerance: bounded fairness for the SURVIVORS when the tree
// itself breaks.
//
// Sweeps on the Figure-6 tertiary tree (27 receivers, L1 bottleneck, one
// background TCP per leaf), drop-tail AND RED gateways:
//
//   l3part — partition one level-3 (leaf-group) uplink: 3 receivers dark
//            for a window of 5/10/20 s.
//   l2part — partition one level-2 uplink: 9 receivers dark.
//   crash  — crash the level-3 router (fault::NodeFailure): every interface
//            it owns goes down, INCLUDING its backup uplink, so failover
//            has nothing to flip to and sender-side excision must engage.
//
// Every scenario runs twice: protections OFF (the seed's behavior — the
// session drags its dead subtree through RTO repair for the whole window)
// and ON (topo::FailoverManager backup re-grafting + the RLA sender's
// subtree excision / slow-start re-admission).  The fairness ratio is
// measured against the worst SURVIVOR TCP (background TCPs under the
// partitioned subtree stall with it and would flatter the comparison) and
// checked against the Theorem I/II band; the protected arm must stay in
// band — that check is the bench's exit status.  The unprotected arm
// quantifies the outage window: how long the reach-all frontier stayed
// pinned and what it cost.
//
// --chaos rows ride the structural chaos draws (fault::draw_chaos with
// structural=true) under full record/replay journaling, so partition
// scenarios participate in the bit-identity soak like every other chaos
// row.
//
// Exp-runner based: --jobs N, --replicates R, --json PATH, --smoke,
// --chaos, --record-journal DIR / --replay PATH.  Results tables live in
// EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/runner.hpp"
#include "fault/chaos.hpp"
#include "model/formulas.hpp"
#include "replay_support.hpp"
#include "sim/random.hpp"
#include "topo/tertiary_tree.hpp"

using namespace rlacast;

namespace {

/// Leaves darkened by a scenario (the non-survivors): level-3 index i
/// covers leaves 3(i-1)..3i-1, level-2 index j covers 9(j-1)..9j-1.
bool leaf_affected(const std::string& scen, std::size_t leaf) {
  if (scen.empty()) return false;  // chaos rows: rate vs the all-TCP worst
  if (scen == "l2part") return leaf < 9;
  return leaf < 3;  // l3part and crash both target level-3 index 1
}

exp::Metrics tree_metrics(const std::string& scen,
                          const topo::TreeResult& res) {
  exp::Metrics m;
  m.set("rla.thrput_pps", res.rla[0].throughput_pps);
  // Worst TCP over the SURVIVOR leaves only: the TCPs behind the dead
  // uplink starve during the window whether or not the multicast session
  // handles the partition well, so they are no yardstick.
  double wtcp = -1.0;
  for (std::size_t i = 0; i < res.tcps.size(); ++i) {
    if (leaf_affected(scen, i)) continue;
    const double t = res.tcps[i].throughput_pps;
    if (wtcp < 0.0 || t < wtcp) wtcp = t;
  }
  m.set("wtcp_surv.thrput_pps", wtcp);
  m.set("fairness_ratio",
        wtcp > 0.0 ? res.rla[0].throughput_pps / wtcp : 0.0);
  m.set("rla.cwnd", res.rla[0].avg_cwnd);
  m.set("failover.events", static_cast<double>(res.failover_events));
  m.set("failover.reverts", static_cast<double>(res.failover_reverts));
  m.set("failover.rerouted", static_cast<double>(res.packets_rerouted));
  m.set("subtree.excisions", static_cast<double>(res.subtree_excisions));
  m.set("subtree.readmissions",
        static_cast<double>(res.subtree_readmissions));
  m.set("subtree.ramp_rexmits", static_cast<double>(res.ramp_rexmits));
  m.set("t_excise", res.time_to_excise);
  m.set("t_readmit", res.time_to_readmit);
  m.set("survivor_goodput_pps", res.survivor_goodput_pps);
  m.set("rla.active_final", static_cast<double>(res.active_receivers_final));
  m.set("jain.min", res.min_jain);
  m.set("jain.mean", res.mean_jain);
  m.set("watchdog_ok", res.watchdog_ok ? 1.0 : 0.0);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  if (opt.smoke) {
    opt.duration = 80.0;
    opt.warmup = 20.0;
    opt.chaos_cases = std::min(opt.chaos_cases, 3);
  }
  bench::ReplayCoordinator replay("partition", opt);
  bench::print_header(
      "Partition tolerance: failover re-grafting + subtree excision "
      "vs. structural failure",
      opt);

  const char* gateways[] = {"droptail", "red"};
  const char* scenarios[] = {"l3part", "l2part", "crash"};
  const double durations_full[] = {5.0, 10.0, 20.0};
  const double durations_smoke[] = {10.0};

  exp::Grid grid;
  grid.master_seed(opt.seed).replicates(opt.replicates);
  for (const char* gw : gateways) {
    for (const char* scen : scenarios) {
      const auto* durs = opt.smoke ? durations_smoke : durations_full;
      const std::size_t n_durs =
          opt.smoke ? std::size(durations_smoke) : std::size(durations_full);
      for (std::size_t d = 0; d < n_durs; ++d)
        for (int prot = 0; prot <= 1; ++prot)
          grid.add_case(std::string(scen) + "-" + gw,
                        exp::Point{}
                            .set("gw", gw)
                            .set("scen", scen)
                            .set("dur", durs[d])
                            .set("prot", static_cast<double>(prot)));
    }
  }
  // Chaos soak rows: randomized structural failures (and the usual
  // feedback-plane hostility) with both protections armed.
  const int chaos_rows = opt.chaos ? opt.chaos_cases : (opt.smoke ? 2 : 0);
  for (int c = 0; c < chaos_rows; ++c)
    grid.add_case("chaos",
                  exp::Point{}.set("scenario", static_cast<double>(c)));

  const exp::RunFn run = [&replay, &opt](const exp::RunSpec& spec) {
    topo::TreeConfig cfg;
    cfg.bottleneck = topo::TreeCase::kL1;
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = spec.seed;
    cfg.watchdog = true;
    // Continuous Jain telemetry over {RLA, background TCPs}: min_jain is
    // the worst sliding window, which for unprotected rows lands inside
    // the outage and quantifies how unfair the stall gets.
    cfg.fairness.window = 10.0;
    cfg.fairness.start = cfg.warmup;
    std::string scen = spec.point.get("scen", "");

    if (scen.empty()) {
      // Chaos row: draw hostility + structural failure from the scenario's
      // own stream (seed-folded, like bench_adversary's soak).
      cfg.gateway = topo::GatewayType::kRed;
      const int scenario =
          static_cast<int>(spec.point.get_double("scenario", 0.0));
      const std::uint64_t chaos_seed = sim::SeedSequence(spec.seed).seed_for(
          "chaos/" + std::to_string(scenario));
      fault::ChaosConfig chaos_cfg;
      chaos_cfg.structural = true;
      const fault::ChaosDraw draw =
          fault::draw_chaos(chaos_cfg, chaos_seed, /*n_receivers=*/27);
      cfg.leaf_fault = draw.leaf_fault;
      cfg.ack_fault = draw.ack_fault;
      cfg.adversaries = draw.adversaries();
      cfg.rla.defense.enabled = true;
      // The frontier watchdog stays off here (as in bench_adversary's soak).
      // Its pinner test blames every receiver that lacks the frontier packet
      // when at least one has it, so it quarantines honest rejoiners still
      // behind the frontier just after graduation, and survivors during a
      // re-admission ramp.  What it needs first is in ROADMAP.md, item 4.
      cfg.rla.silent_drop_after = 10.0;
      if (draw.structural != fault::StructuralKind::kNone) {
        topo::SubtreeOutage so;
        so.start = draw.partition_start;
        so.end = draw.partition_start + draw.partition_len;
        switch (draw.structural) {
          case fault::StructuralKind::kMidPartition:
            so.level = 2;
            so.index = 1 + draw.structural_index % 3;
            break;
          case fault::StructuralKind::kRouterCrash:
            so.router_crash = true;
            [[fallthrough]];
          case fault::StructuralKind::kLeafPartition:
          default:
            so.level = 3;
            so.index = 1 + draw.structural_index % 9;
            break;
        }
        // scen stays empty: the survivor yardstick assumes index 1, but
        // chaos rows draw any index, so they rate against the all-TCP worst.
        cfg.partitions.push_back(so);
      }
      cfg.backup_paths = true;
      cfg.rla.degrade = true;
    } else {
      cfg.gateway = spec.point.get("gw", "droptail") == "red"
                        ? topo::GatewayType::kRed
                        : topo::GatewayType::kDropTail;
      topo::SubtreeOutage so;
      so.level = scen == "l2part" ? 2 : 3;
      so.index = 1;
      so.router_crash = scen == "crash";
      so.start = cfg.warmup + 0.25 * (cfg.duration - cfg.warmup);
      so.end = so.start + spec.point.get_double("dur", 10.0);
      cfg.partitions.push_back(so);
      if (spec.point.get_double("prot", 0.0) > 0.0) {
        cfg.backup_paths = true;
        cfg.rla.degrade = true;
      }
    }

    auto session = replay.session(spec);
    cfg.instrument = session->instrument();
    const auto res = topo::run_tertiary_tree(cfg);
    session->finish();
    if (!res.watchdog_ok)
      throw std::runtime_error("watchdog: " + res.watchdog_report);
    return tree_metrics(scen, res);
  };
  if (replay.replay_mode()) return replay.run_replay(run);

  exp::RunnerOptions ropts = opt.runner_options();
  if (opt.chaos) ropts.heartbeat_seconds = 30.0;
  replay.configure_runner(ropts);
  exp::Runner runner(ropts);
  const exp::Results results = runner.run(grid, run);

  const auto t2 = model::theorem2_droptail_bounds(27);
  const auto t1 = model::theorem1_red_bounds(27);
  std::printf(
      "theorem bands, n=27: drop-tail (%.2f, %.0f)  RED (%.2f, %.1f)\n\n",
      t2.lo, t2.hi, t1.lo, t1.hi);

  std::printf("%-12s %-38s %9s %9s %8s %9s %6s %7s %8s\n", "case", "params",
              "RLA/WTCPs", "RLA pps", "t_excise", "t_readmit", "flips",
              "rerout", "in-band");
  int prot_bands_checked = 0, prot_bands_in = 0;
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0) continue;
    if (!r.ok) {
      std::printf("%-12s %-38s  FAILED: %s\n", r.spec.name.c_str(),
                  r.spec.point.id().c_str(), r.error.c_str());
      continue;
    }
    const bool red = r.spec.name == "chaos" ||
                     r.spec.point.get("gw", "") == "red";
    const auto& band = red ? t1 : t2;
    const double ratio = r.metrics.get("fairness_ratio", 0.0);
    const bool inband = band.contains(ratio);
    // Band gate: deterministic protected rows only.  Chaos rows stack
    // random adversaries + ACK impairments on top of the partition and can
    // legitimately sit out of band; their contract is watchdog + replay.
    const bool prot = r.spec.name != "chaos" &&
                      r.spec.point.get_double("prot", 0.0) > 0.0;
    if (prot) {
      ++prot_bands_checked;
      if (inband) ++prot_bands_in;
    }
    std::printf("%-12s %-38s %9.2f %9.1f %8.2f %9.2f %6.0f %7.0f %8s\n",
                r.spec.name.c_str(), r.spec.point.id().c_str(), ratio,
                r.metrics.get("rla.thrput_pps", 0.0),
                r.metrics.get("t_excise", -1.0),
                r.metrics.get("t_readmit", -1.0),
                r.metrics.get("failover.events", 0.0),
                r.metrics.get("failover.rerouted", 0.0),
                inband ? "yes" : "NO");
  }

  // --- protection headline --------------------------------------------------
  // Mean survivor-fairness ratio, protected vs unprotected, per scenario.
  std::printf("\nprotection effect (replicate 0, mean over gateways/durations):\n");
  std::printf("%-8s %12s %12s %12s %12s %10s %10s\n", "scen", "off:RLA/WTCP",
              "on:RLA/WTCP", "off:minJain", "on:minJain", "excisions",
              "readmits");
  for (const char* scen : scenarios) {
    double sum[2] = {0, 0}, jain[2] = {0, 0};
    int n[2] = {0, 0};
    double excis = 0, readm = 0;
    for (const auto& r : results.runs()) {
      if (r.spec.replicate != 0 || !r.ok) continue;
      if (r.spec.point.get("scen", "") != scen) continue;
      const int prot = r.spec.point.get_double("prot", 0.0) > 0.0 ? 1 : 0;
      sum[prot] += r.metrics.get("fairness_ratio", 0.0);
      jain[prot] += r.metrics.get("jain.min", 0.0);
      ++n[prot];
      if (prot) {
        excis += r.metrics.get("subtree.excisions", 0.0);
        readm += r.metrics.get("subtree.readmissions", 0.0);
      }
    }
    if (n[0] + n[1] == 0) continue;
    std::printf("%-8s %12.2f %12.2f %12.3f %12.3f %10.0f %10.0f\n", scen,
                n[0] ? sum[0] / n[0] : 0.0, n[1] ? sum[1] / n[1] : 0.0,
                n[0] ? jain[0] / n[0] : 0.0, n[1] ? jain[1] / n[1] : 0.0,
                excis, readm);
  }
  std::printf(
      "\nprotected rows in band: %d/%d (bench fails unless all are)\n",
      prot_bands_in, prot_bands_checked);

  std::vector<std::pair<std::string, std::string>> extra;
  if (opt.chaos) extra.emplace_back("mode", "chaos");
  const bool io_ok = bench::finish_grid_output(
      "partition", opt, results, runner.last_wall_seconds(), std::move(extra));

  double min_prot_ratio = -1.0, max_t_excise = -1.0, max_t_readmit = -1.0;
  for (const auto& r : results.runs()) {
    if (!r.ok) continue;
    if (r.spec.point.get_double("prot", 0.0) > 0.0) {
      const double ratio = r.metrics.get("fairness_ratio", 0.0);
      if (min_prot_ratio < 0.0 || ratio < min_prot_ratio)
        min_prot_ratio = ratio;
    }
    max_t_excise = std::max(max_t_excise, r.metrics.get("t_excise", -1.0));
    max_t_readmit = std::max(max_t_readmit, r.metrics.get("t_readmit", -1.0));
  }
  const bool traj_ok = bench::write_trajectory(
      opt, "partition", runner.last_wall_seconds(),
      {{"min_protected_ratio", min_prot_ratio},
       {"max_time_to_excise_s", max_t_excise},
       {"max_time_to_readmit_s", max_t_readmit}});

  return (results.num_errors() || prot_bands_in != prot_bands_checked ||
          !io_ok || !traj_ok)
             ? 1
             : 0;
}
