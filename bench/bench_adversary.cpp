// Adversary tolerance: bounded fairness when the *receivers* misbehave.
//
// The Theorem I/II bands assume honest feedback. This bench sweeps lying
// receivers on the Figure-6 tertiary tree (L1 bottleneck, 27 receivers, one
// background TCP each) — adversary kind × adversary count × census defense
// on/off, for drop-tail AND RED gateways — and reports the headline number:
// how many lying receivers the defended vs. undefended sender tolerates
// before the fairness ratio RLA/WTCP leaves its theorem band.
//
//   storm    — signal-storm (NACK implosion) receivers fabricate loss
//              episodes at their reported frontier; undefended, each fake
//              hole is a cut opportunity and the session starves.
//   inflate  — srtt inflators poison srtt_max (hurts everyone else's
//              pthresh under k > 0 and the forced-cut/rexmit guards).
//   deflate  — srtt deflators claim ~0 RTT (the liar under-listens).
//   mute     — ACK withholding freezes the reach-all frontier.
//   flipflop — storm/mute alternation, the quarantine-hysteresis stressor.
//
// Defense on = cc::CensusDefenseParams (median signal-rate quarantine,
// median/MAD srtt clamp) + the silent-drop liveness guard. Defense off is
// the paper's honest-receiver sender, byte-identical to the seed.
//
// --chaos: soak mode. Each replicate draws a randomized scenario (kind,
// count, placement, reverse-path ACK loss/dup/jitter, forward leaf loss)
// from its own seed via fault::draw_chaos on the "chaos-scenario" stream —
// deterministic per seed, so chaos rows record/replay bit-identically —
// and runs under sim::Watchdog invariants; crashes are contained by
// --isolate's fork sandbox. Results tables live in EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/runner.hpp"
#include "fault/chaos.hpp"
#include "model/formulas.hpp"
#include "sim/random.hpp"
#include "replay_support.hpp"
#include "topo/tertiary_tree.hpp"

using namespace rlacast;

namespace {

struct KindRow {
  const char* name;
  fault::AdversaryKind kind;
};

constexpr KindRow kKinds[] = {
    {"storm", fault::AdversaryKind::kSignalStorm},
    {"inflate", fault::AdversaryKind::kSrttInflate},
    {"deflate", fault::AdversaryKind::kSrttDeflate},
    {"mute", fault::AdversaryKind::kMute},
    {"flipflop", fault::AdversaryKind::kFlipFlop},
};

fault::AdversaryKind kind_by_name(const std::string& name) {
  for (const auto& k : kKinds)
    if (name == k.name) return k.kind;
  throw std::runtime_error("unknown adversary kind: " + name);
}

/// `count` receiver indices spread across the 27-leaf tree (stride layout),
/// so adversaries land in different G2/G3 subtrees instead of clustering.
std::vector<int> spread_indices(int count, int n_receivers) {
  std::vector<int> idx;
  idx.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    idx.push_back(i * n_receivers / std::max(1, count));
  return idx;
}

exp::Metrics tree_metrics(const topo::TreeResult& res) {
  exp::Metrics m;
  m.set("rla.thrput_pps", res.rla[0].throughput_pps);
  m.set("wtcp.thrput_pps", res.worst_tcp().throughput_pps);
  m.set("btcp.thrput_pps", res.best_tcp().throughput_pps);
  const double ratio =
      res.worst_tcp().throughput_pps > 0.0
          ? res.rla[0].throughput_pps / res.worst_tcp().throughput_pps
          : 0.0;
  m.set("fairness_ratio", ratio);
  m.set("rla.cwnd", res.rla[0].avg_cwnd);
  m.set("rla.signals", static_cast<double>(res.rla[0].cong_signals));
  m.set("rla.wnd_cuts", static_cast<double>(res.rla[0].window_cuts));
  m.set("adv.acks_tampered", static_cast<double>(res.adv_acks_tampered));
  m.set("adv.acks_withheld", static_cast<double>(res.adv_acks_withheld));
  m.set("adv.extra_acks", static_cast<double>(res.adv_extra_acks));
  m.set("adv.fake_holes", static_cast<double>(res.adv_fake_holes));
  m.set("census.quarantines", static_cast<double>(res.census_quarantines));
  m.set("census.strikeouts", static_cast<double>(res.census_strikeouts));
  m.set("rla.silent_drops", static_cast<double>(res.rla_silent_drops));
  m.set("rla.active_final", static_cast<double>(res.active_receivers_final));
  m.set("fault.wire_losses", static_cast<double>(res.fault_wire_losses));
  m.set("fault.duplicates", static_cast<double>(res.fault_duplicates));
  m.set("failover.events", static_cast<double>(res.failover_events));
  m.set("subtree.excisions", static_cast<double>(res.subtree_excisions));
  m.set("subtree.readmissions",
        static_cast<double>(res.subtree_readmissions));
  m.set("watchdog_ok", res.watchdog_ok ? 1.0 : 0.0);
  return m;
}

void apply_defense(topo::TreeConfig& cfg) {
  cfg.rla.defense.enabled = true;
  // Liveness half of the defense: mutes are indistinguishable from crashed
  // receivers, and the crash protection already sheds those.
  cfg.rla.silent_drop_after = 10.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  if (opt.smoke) {
    opt.duration = 80.0;
    opt.warmup = 20.0;
    if (opt.chaos) opt.chaos_cases = std::min(opt.chaos_cases, 4);
  }
  bench::ReplayCoordinator replay("adversary", opt);
  bench::print_header(
      opt.chaos
          ? "Adversary chaos soak: randomized feedback-plane hostility"
          : "Adversary tolerance: lying receivers vs the census defense",
      opt);

  const char* gateways_full[] = {"droptail", "red"};
  const char* gateways_smoke[] = {"red"};
  const char* kinds_smoke[] = {"storm", "inflate"};
  const int counts_full[] = {1, 3, 6, 9};
  const int counts_smoke[] = {3};

  exp::Grid grid;
  grid.master_seed(opt.seed).replicates(opt.replicates);
  if (opt.chaos) {
    for (int c = 0; c < opt.chaos_cases; ++c)
      for (int defense = 0; defense <= 1; ++defense)
        grid.add_case("chaos", exp::Point{}
                                   .set("scenario", static_cast<double>(c))
                                   .set("defense", static_cast<double>(defense)));
  } else {
    const auto* gws = opt.smoke ? gateways_smoke : gateways_full;
    const std::size_t n_gw =
        opt.smoke ? std::size(gateways_smoke) : std::size(gateways_full);
    const auto* counts = opt.smoke ? counts_smoke : counts_full;
    const std::size_t n_counts =
        opt.smoke ? std::size(counts_smoke) : std::size(counts_full);
    for (std::size_t g = 0; g < n_gw; ++g) {
      for (int defense = 0; defense <= 1; ++defense) {
        // Honest baseline (n = 0): the defended arm must not tax it.
        grid.add_case(std::string("base-") + gws[g],
                      exp::Point{}
                          .set("gw", gws[g])
                          .set("defense", static_cast<double>(defense)));
        for (const auto& k : kKinds) {
          if (opt.smoke) {
            bool keep = false;
            for (const char* sk : kinds_smoke) keep |= k.name == std::string(sk);
            if (!keep) continue;
          }
          for (std::size_t c = 0; c < n_counts; ++c)
            grid.add_case(std::string(k.name) + "-" + gws[g],
                          exp::Point{}
                              .set("gw", gws[g])
                              .set("kind", k.name)
                              .set("n", static_cast<double>(counts[c]))
                              .set("defense", static_cast<double>(defense)));
        }
      }
    }
  }

  const bool chaos = opt.chaos;
  const exp::RunFn run = [&replay, &opt, chaos](const exp::RunSpec& spec) {
    topo::TreeConfig cfg;
    cfg.bottleneck = topo::TreeCase::kL1;
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = spec.seed;
    cfg.watchdog = true;
    const bool defense = spec.point.get_double("defense", 0.0) > 0.0;

    if (chaos) {
      cfg.gateway = topo::GatewayType::kRed;
      // Replicate 0 of every case shares the grid's master seed (legacy
      // byte-compat), so the scenario index must be folded in explicitly or
      // every chaos case would draw the same hostility.
      const int scenario =
          static_cast<int>(spec.point.get_double("scenario", 0.0));
      const std::uint64_t chaos_seed = sim::SeedSequence(spec.seed).seed_for(
          "chaos/" + std::to_string(scenario));
      // Structural draws on: a chaos replicate may additionally partition a
      // subtree uplink or crash a router (draw.structural).  The four extra
      // draws are appended at the END of the chaos stream, so the hostility
      // mix of historical scenarios is unchanged for a given seed.
      fault::ChaosConfig chaos_cfg;
      chaos_cfg.structural = true;
      const fault::ChaosDraw draw =
          fault::draw_chaos(chaos_cfg, chaos_seed, /*n_receivers=*/27);
      cfg.leaf_fault = draw.leaf_fault;
      cfg.ack_fault = draw.ack_fault;
      cfg.adversaries = draw.adversaries();
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
        cfg.partitions.push_back(so);
        // Both protections ride along: failover re-grafts what it can
        // (partitions), excision/re-admission owns the rest (crashes).
        cfg.backup_paths = true;
        cfg.rla.degrade = true;
      }
    } else {
      cfg.gateway = spec.point.get("gw", "droptail") == "red"
                        ? topo::GatewayType::kRed
                        : topo::GatewayType::kDropTail;
      const int n_adv = static_cast<int>(spec.point.get_double("n", 0.0));
      if (n_adv > 0) {
        fault::AdversaryModel model;
        model.kind = kind_by_name(spec.point.get("kind", "storm"));
        model.start = 0.5 * cfg.warmup;  // lie once the session converged
        for (const int idx : spread_indices(n_adv, 27))
          cfg.adversaries.emplace_back(idx, model);
      }
    }
    if (defense) apply_defense(cfg);

    auto session = replay.session(spec);
    cfg.instrument = session->instrument();
    const auto res = topo::run_tertiary_tree(cfg);
    session->finish();
    if (!res.watchdog_ok)
      throw std::runtime_error("watchdog: " + res.watchdog_report);
    return tree_metrics(res);
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

  auto in_band = [&](const exp::RunResult& r) {
    const bool red = opt.chaos || r.spec.point.get("gw", "") == "red";
    const double ratio = r.metrics.get("fairness_ratio", 0.0);
    return (red ? t1 : t2).contains(ratio);
  };

  // --- per-run table -------------------------------------------------------
  std::printf("%-14s %-44s %9s %9s %6s %8s\n", "case", "params", "RLA/WTCP",
              "RLA pps", "quar", "in-band");
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0) continue;
    if (!r.ok) {
      std::printf("%-14s %-44s  FAILED: %s\n", r.spec.name.c_str(),
                  r.spec.point.id().c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-14s %-44s %9.2f %9.1f %6.0f %8s\n", r.spec.name.c_str(),
                r.spec.point.id().c_str(),
                r.metrics.get("fairness_ratio", 0.0),
                r.metrics.get("rla.thrput_pps", 0.0),
                r.metrics.get("census.quarantines", 0.0),
                in_band(r) ? "yes" : "NO");
  }

  if (!opt.chaos) {
    // --- headline: tolerated adversary count, defended vs undefended -------
    const auto* gws = opt.smoke ? gateways_smoke : gateways_full;
    const std::size_t n_gw =
        opt.smoke ? std::size(gateways_smoke) : std::size(gateways_full);
    std::printf(
        "\nadversary tolerance (largest swept count with RLA/WTCP still in "
        "band; -1 = even honest baseline out):\n");
    std::printf("%-10s %-10s %12s %12s\n", "gateway", "kind", "undefended",
                "defended");
    for (std::size_t g = 0; g < n_gw; ++g) {
      for (const auto& k : kKinds) {
        int tolerated[2] = {-1, -1};
        for (const auto& r : results.runs()) {
          if (r.spec.replicate != 0 || !r.ok) continue;
          if (r.spec.point.get("gw", "") != gws[g]) continue;
          const bool defended = r.spec.point.get_double("defense", 0.0) > 0.0;
          const std::string kind = r.spec.point.get("kind", "");
          if (kind.empty()) {  // honest baseline row: count 0
            if (in_band(r)) tolerated[defended] = std::max(tolerated[defended], 0);
            continue;
          }
          if (kind != k.name) continue;
          if (in_band(r))
            tolerated[defended] = std::max(
                tolerated[defended],
                static_cast<int>(r.spec.point.get_double("n", 0.0)));
        }
        if (tolerated[0] == -1 && tolerated[1] == -1) continue;
        std::printf("%-10s %-10s %12d %12d\n", gws[g], k.name, tolerated[0],
                    tolerated[1]);
      }
    }
  } else {
    // --- chaos soak summary -------------------------------------------------
    int ok_runs = 0, band_runs[2] = {0, 0}, total[2] = {0, 0};
    for (const auto& r : results.runs()) {
      if (!r.ok) continue;
      ++ok_runs;
      const int defended = r.spec.point.get_double("defense", 0.0) > 0.0;
      ++total[defended];
      if (in_band(r)) ++band_runs[defended];
    }
    std::printf(
        "\nchaos soak: %d/%zu runs clean; in Theorem-I band: "
        "undefended %d/%d, defended %d/%d\n",
        ok_runs, results.runs().size(), band_runs[0], total[0], band_runs[1],
        total[1]);
    double failovers = 0, excisions = 0, readmissions = 0;
    for (const auto& r : results.runs()) {
      if (!r.ok) continue;
      failovers += r.metrics.get("failover.events", 0.0);
      excisions += r.metrics.get("subtree.excisions", 0.0);
      readmissions += r.metrics.get("subtree.readmissions", 0.0);
    }
    std::printf(
        "structural self-healing: %.0f failover flips, %.0f excisions, "
        "%.0f re-admissions across the soak\n",
        failovers, excisions, readmissions);
  }

  std::vector<std::pair<std::string, std::string>> extra;
  if (opt.chaos) extra.emplace_back("mode", "chaos");
  const bool io_ok = bench::finish_grid_output(
      "adversary", opt, results, runner.last_wall_seconds(), std::move(extra));
  return (results.num_errors() || !io_ok) ? 1 : 0;
}
