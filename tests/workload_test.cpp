// Tests for the src/workload/ traffic-generation subsystem and the
// stats::FairnessMonitor telemetry it feeds:
//
//   * Jain-index math and the application-limited window exclusion;
//   * WebFlowSource determinism: same seed => bit-identical flow schedule
//     (size + start-time fingerprint), plus the heavy-tail size clamp;
//   * --jobs independence: a web-mix tree grid run at jobs=1 and jobs=8
//     produces identical metrics, fingerprint included (per-run seeds are
//     thread-count independent and every source draws from its own named
//     stream);
//   * record/replay: a web-mix run journals and replays bit-identical
//     through the replay::Verifier (the ISSUE-6 acceptance gate for the
//     workload layer's RNG discipline).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "net/network.hpp"
#include "replay/journal.hpp"
#include "replay/recorder.hpp"
#include "replay/verifier.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/fairness_monitor.hpp"
#include "topo/tertiary_tree.hpp"
#include "workload/workload.hpp"

namespace rlacast {
namespace {

// --- Jain index ------------------------------------------------------------

TEST(FairnessMonitor, JainIndexMath) {
  using stats::FairnessMonitor;
  EXPECT_DOUBLE_EQ(FairnessMonitor::jain_index({}), -1.0);
  EXPECT_DOUBLE_EQ(FairnessMonitor::jain_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(FairnessMonitor::jain_index({5.0, 5.0, 5.0}), 1.0);
  // One flow hogging everything: J = 1/n.
  EXPECT_DOUBLE_EQ(FairnessMonitor::jain_index({9.0, 0.0, 0.0}), 1.0 / 3.0);
  // Known mixed vector: (1+2+3)^2 / (3 * 14) = 36/42.
  EXPECT_NEAR(FairnessMonitor::jain_index({1.0, 2.0, 3.0}), 36.0 / 42.0,
              1e-12);
}

TEST(FairnessMonitor, WindowSeriesAndAppLimitedExclusion) {
  sim::Simulator sim(1);
  stats::FairnessMonitorConfig cfg;
  cfg.window = 1.0;
  cfg.start = 0.0;
  cfg.stop = 5.0;
  stats::FairnessMonitor mon(sim, cfg);
  ASSERT_TRUE(mon.enabled());

  // Two steady 100 pps flows; the second claims app-limited from t = 2.5.
  double d1 = 0.0, d2 = 0.0;
  bool limited2 = false;
  for (int k = 1; k <= 50; ++k)
    sim.at(0.1 * k, [&d1, &d2] {
      d1 += 10.0;
      d2 += 10.0;
    });
  sim.at(2.5, [&limited2] { limited2 = true; });
  mon.add_probe({"f1", [&d1] { return d1; }, [] { return false; }});
  mon.add_probe({"f2", [&d2] { return d2; }, [&limited2] { return limited2; }});

  sim.run_until(6.0);
  const auto& samples = mon.samples();
  ASSERT_EQ(samples.size(), 5u);

  // Window 1 excludes everyone: probes begin limited (pre-start state), so
  // the first window never yields evidence.
  EXPECT_EQ(samples[0].flows_counted, 0);
  EXPECT_EQ(samples[0].flows_app_limited, 2);
  EXPECT_DOUBLE_EQ(samples[0].jain, -1.0);
  // Window 2 (t in [1,2]): both flows counted, equal rates, J = 1.
  EXPECT_EQ(samples[1].flows_counted, 2);
  EXPECT_DOUBLE_EQ(samples[1].jain, 1.0);
  EXPECT_NEAR(samples[1].throughput_pps[0], 100.0, 1.0);
  // Window 3 closes at t=3 with f2 limited: f2 excluded, J over f1 alone.
  EXPECT_EQ(samples[2].flows_counted, 1);
  EXPECT_EQ(samples[2].flows_app_limited, 1);
  EXPECT_DOUBLE_EQ(samples[2].throughput_pps[1], -1.0);
  EXPECT_DOUBLE_EQ(samples[2].jain, 1.0);

  EXPECT_DOUBLE_EQ(mon.min_jain(), 1.0);
  EXPECT_DOUBLE_EQ(mon.mean_jain(), 1.0);
}

TEST(FairnessMonitor, AllExcludedWindowIsSkippedNotNaN) {
  // Regression (the NaN Jain index of an all-excluded window): when every
  // flow is app-limited-excluded in a window, the window must yield the
  // defined -1 sentinel — never NaN — and min/mean must skip it instead of
  // propagating.
  sim::Simulator sim(1);
  stats::FairnessMonitorConfig cfg;
  cfg.window = 1.0;
  cfg.stop = 3.0;
  stats::FairnessMonitor mon(sim, cfg);
  double d1 = 0.0, d2 = 0.0;
  mon.add_probe({"f1", [&d1] { return d1; }, [] { return true; }});
  mon.add_probe({"f2", [&d2] { return d2; }, [] { return true; }});
  sim.at(0.5, [&] { d1 = 40.0; d2 = 10.0; });
  sim.run_until(4.0);
  ASSERT_EQ(mon.samples().size(), 3u);
  for (const auto& s : mon.samples()) {
    EXPECT_EQ(s.flows_counted, 0);
    EXPECT_EQ(s.flows_app_limited, 2);
    EXPECT_DOUBLE_EQ(s.jain, -1.0);       // defined, not NaN
    EXPECT_TRUE(std::isfinite(s.jain));
  }
  EXPECT_DOUBLE_EQ(mon.min_jain(), -1.0);   // "no evidence", finite
  EXPECT_DOUBLE_EQ(mon.mean_jain(), -1.0);
}

TEST(FairnessMonitor, NonFiniteProbeReadingIsExcludedNotPropagated) {
  // A broken delivered() reader returning NaN/inf must degrade to an
  // excluded flow, not poison the whole window's Jain into NaN.
  sim::Simulator sim(1);
  stats::FairnessMonitorConfig cfg;
  cfg.window = 1.0;
  cfg.stop = 2.0;
  stats::FairnessMonitor mon(sim, cfg);
  double good = 0.0;
  mon.add_probe({"good", [&good] { return good; }, [] { return false; }});
  mon.add_probe({"nan", [] { return std::nan(""); }, [] { return false; }});
  mon.add_probe({"inf",
                 [] { return std::numeric_limits<double>::infinity(); },
                 [] { return false; }});
  sim.at(1.5, [&good] { good = 100.0; });
  sim.run_until(3.0);
  ASSERT_EQ(mon.samples().size(), 2u);
  // Window 2 ([1,2]): the good flow counts alone; broken probes excluded.
  const auto& s = mon.samples()[1];
  EXPECT_EQ(s.flows_counted, 1);
  EXPECT_EQ(s.flows_app_limited, 2);
  EXPECT_TRUE(std::isfinite(s.jain));
  EXPECT_DOUBLE_EQ(s.jain, 1.0);
  EXPECT_DOUBLE_EQ(s.throughput_pps[1], -1.0);
  EXPECT_DOUBLE_EQ(s.throughput_pps[2], -1.0);
  EXPECT_TRUE(std::isfinite(mon.min_jain()));
  EXPECT_TRUE(std::isfinite(mon.mean_jain()));
}

TEST(FairnessMonitor, JainIndexNeverNaN) {
  using stats::FairnessMonitor;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isfinite(FairnessMonitor::jain_index({inf, 1.0})));
  EXPECT_TRUE(std::isfinite(FairnessMonitor::jain_index({std::nan(""), 1.0})));
}

TEST(FairnessMonitor, FirstWindowExcludesPreStartFlows) {
  sim::Simulator sim(1);
  stats::FairnessMonitorConfig cfg;
  cfg.window = 1.0;
  cfg.stop = 1.0;
  stats::FairnessMonitor mon(sim, cfg);
  double d = 0.0;
  mon.add_probe({"f", [&d] { return d; }, [] { return false; }});
  sim.run_until(2.0);
  ASSERT_EQ(mon.samples().size(), 1u);
  // limited_at_start = true until the first edge poll: no evidence yet,
  // even for a flow that reports unlimited at the closing edge.
  EXPECT_EQ(mon.samples()[0].flows_counted, 0);
  EXPECT_EQ(mon.samples()[0].flows_app_limited, 1);
}

// --- web source determinism ------------------------------------------------

/// Two-node network fast enough that fetches finish well inside a think
/// time; one web user fetching across it.
struct WebRig {
  sim::Simulator sim;
  net::Network net;
  workload::WebFlowSource src;

  explicit WebRig(std::uint64_t seed, workload::WebConfig cfg = {})
      : sim(seed), net(sim), src(make(net), 0, 1, 30000, 30000, 2000,
                                 "workload-web-0", cfg) {
    src.start_at(0.0);
  }

  static net::Network& make(net::Network& n) {
    const net::NodeId a = n.add_node();
    const net::NodeId b = n.add_node();
    net::LinkConfig lc;
    lc.bandwidth_bps = 10e6;
    lc.delay = sim::milliseconds(10);
    lc.buffer_pkts = 64;
    n.connect(a, b, lc);
    n.build_routes();
    return n;
  }
};

TEST(WebFlowSource, SameSeedSameScheduleFingerprint) {
  WebRig a(11), b(11);
  a.sim.run_until(60.0);
  b.sim.run_until(60.0);
  ASSERT_GT(a.src.flows_started(), 5);
  EXPECT_EQ(a.src.flows_started(), b.src.flows_started());
  EXPECT_EQ(a.src.flows_completed(), b.src.flows_completed());
  EXPECT_EQ(a.src.schedule_fingerprint(), b.src.schedule_fingerprint());
  EXPECT_EQ(a.src.delivered_total(), b.src.delivered_total());
}

TEST(WebFlowSource, DifferentSeedDifferentSchedule) {
  WebRig a(11), b(12);
  a.sim.run_until(60.0);
  b.sim.run_until(60.0);
  EXPECT_NE(a.src.schedule_fingerprint(), b.src.schedule_fingerprint());
}

TEST(WebFlowSource, SizesRespectTailClamp) {
  workload::WebConfig cfg;
  cfg.max_flow_packets = 50;  // tight clamp so the tail must hit it
  cfg.mean_think = 0.2;
  WebRig a(3, cfg);
  a.sim.run_until(120.0);
  ASSERT_GT(a.src.flows_started(), 20);
  for (const auto& s : a.src.senders()) {
    // Every fetch is finite and inside [1, clamp].
    EXPECT_GT(s->params().flow_packets, 0);
    EXPECT_LE(s->params().flow_packets, 50);
  }
}

// --- tree-level --jobs independence ---------------------------------------

exp::Metrics web_tree_metrics(const exp::RunSpec& spec) {
  topo::TreeConfig cfg;
  cfg.bottleneck = topo::TreeCase::kL1;
  cfg.gateway = spec.point.get("gw", "droptail") == "red"
                    ? topo::GatewayType::kRed
                    : topo::GatewayType::kDropTail;
  cfg.traffic.kind = workload::TrafficKind::kWeb;
  cfg.duration = 10.0;
  cfg.warmup = 3.0;
  cfg.seed = spec.seed;
  cfg.fairness.window = 2.0;
  cfg.fairness.start = cfg.warmup;
  cfg.fairness.stop = cfg.duration;
  const auto res = topo::run_tertiary_tree(cfg);
  exp::Metrics m;
  m.set("fp.hi", static_cast<double>(res.workload_fingerprint >> 32));
  m.set("fp.lo",
        static_cast<double>(res.workload_fingerprint & 0xffffffffULL));
  m.set("web.started", static_cast<double>(res.web_flows_started));
  m.set("web.completed", static_cast<double>(res.web_flows_completed));
  m.set("rla.pps", res.rla[0].throughput_pps);
  m.set("jain.min", res.min_jain);
  return m;
}

TEST(WorkloadDeterminism, JobsOneAndEightBitIdentical) {
  exp::Grid grid;
  grid.master_seed(5).replicates(2);
  grid.add_case("web-droptail", exp::Point{}.set("gw", "droptail"));
  grid.add_case("web-red", exp::Point{}.set("gw", "red"));

  const exp::RunFn run = [](const exp::RunSpec& spec) {
    return web_tree_metrics(spec);
  };

  auto collect = [&](int jobs) {
    exp::RunnerOptions ropts;
    ropts.jobs = jobs;
    exp::Runner runner(ropts);
    const exp::Results results = runner.run(grid, run);
    EXPECT_EQ(results.num_errors(), 0);
    std::map<std::string, exp::Metrics> by_run;
    for (const auto& r : results.runs())
      by_run[r.spec.name + "#" + std::to_string(r.spec.replicate)] = r.metrics;
    return by_run;
  };

  const auto seq = collect(1);
  const auto par = collect(8);
  ASSERT_EQ(seq.size(), par.size());
  for (const auto& [key, m] : seq) {
    ASSERT_TRUE(par.count(key)) << key;
    const auto& rows = m.rows();
    const auto& prows = par.at(key).rows();
    ASSERT_EQ(rows.size(), prows.size()) << key;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].first, prows[i].first) << key;
      EXPECT_EQ(rows[i].second, prows[i].second)
          << key << " metric " << rows[i].first;
    }
  }
}

// --- record/replay of a web-mix run ---------------------------------------

topo::TreeConfig web_tree_small() {
  topo::TreeConfig cfg;
  cfg.bottleneck = topo::TreeCase::kL1;
  cfg.traffic.kind = workload::TrafficKind::kWeb;
  cfg.duration = 6.0;
  cfg.warmup = 1.0;
  cfg.seed = 7;
  return cfg;
}

TEST(WorkloadReplay, WebMixRecordsAndReplaysBitIdentical) {
  replay::RecorderOptions opts;
  opts.checkpoint_every = 20000;
  replay::Recorder rec(opts);
  topo::TreeConfig cfg = web_tree_small();
  cfg.instrument = [&rec](sim::Simulator& sim) { sim.set_observer(&rec); };
  const auto recorded = topo::run_tertiary_tree(cfg);
  rec.finalize();
  const replay::Journal journal = rec.take_journal();
  ASSERT_GT(journal.records().size(), 1000u);

  replay::Verifier verifier(journal);
  topo::TreeConfig cfg2 = web_tree_small();
  cfg2.instrument = [&verifier](sim::Simulator& sim) {
    sim.set_observer(&verifier);
  };
  const auto replayed = topo::run_tertiary_tree(cfg2);
  verifier.finalize();

  EXPECT_TRUE(verifier.ok()) << verifier.divergence().render();
  EXPECT_EQ(verifier.records_matched(), journal.records().size());
  EXPECT_EQ(recorded.workload_fingerprint, replayed.workload_fingerprint);
  EXPECT_EQ(recorded.web_flows_started, replayed.web_flows_started);
}

TEST(WorkloadReplay, OnOffMixRecordsAndReplaysBitIdentical) {
  topo::TreeConfig base = web_tree_small();
  base.traffic.kind = workload::TrafficKind::kOnOff;
  base.traffic.onoff.rate_pps = 20.0;

  replay::Recorder rec{replay::RecorderOptions{}};
  topo::TreeConfig cfg = base;
  cfg.instrument = [&rec](sim::Simulator& sim) { sim.set_observer(&rec); };
  const auto recorded = topo::run_tertiary_tree(cfg);
  rec.finalize();
  const replay::Journal journal = rec.take_journal();

  replay::Verifier verifier(journal);
  topo::TreeConfig cfg2 = base;
  cfg2.instrument = [&verifier](sim::Simulator& sim) {
    sim.set_observer(&verifier);
  };
  const auto replayed = topo::run_tertiary_tree(cfg2);
  verifier.finalize();

  EXPECT_TRUE(verifier.ok()) << verifier.divergence().render();
  EXPECT_EQ(recorded.onoff_packets_sent, replayed.onoff_packets_sent);
  EXPECT_EQ(recorded.onoff_packets_received, replayed.onoff_packets_received);
}

}  // namespace
}  // namespace rlacast
