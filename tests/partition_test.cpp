// Structural failure & self-healing, end to end on the tertiary tree:
// failover re-grafting over precomputed backup parents, sender-side
// subtree excision / re-admission, crash-vs-partition semantics, and
// receiver churn racing a partition window.  The invariant watchdog runs
// in every scenario, so census sanity (num_trouble <= active) and window
// bounds are asserted once per simulated second throughout.
#include <gtest/gtest.h>

#include "cc/troubled_census.hpp"
#include "topo/tertiary_tree.hpp"

namespace rlacast::topo {
namespace {

TreeConfig base_cfg() {
  TreeConfig cfg;
  cfg.bottleneck = TreeCase::kL4All;
  cfg.duration = 80.0;
  cfg.warmup = 10.0;
  cfg.watchdog = true;
  return cfg;
}

TEST(Partition, FailoverRegraftsPartitionedSubtree) {
  // G31's uplink is partitioned for 10 s; the backup parent (G22) carries
  // the subtree after the detection delay and the primary takes it back on
  // heal.  Nobody needed excising and the membership is intact.
  TreeConfig cfg = base_cfg();
  cfg.partitions.push_back({/*level=*/3, /*index=*/1, 20.0, 30.0, false});
  cfg.backup_paths = true;
  const auto res = run_tertiary_tree(cfg);
  EXPECT_TRUE(res.watchdog_ok) << res.watchdog_report;
  EXPECT_GE(res.failover_events, 1u);
  EXPECT_GE(res.failover_reverts, 1u);
  EXPECT_GT(res.packets_rerouted, 0u);
  EXPECT_EQ(res.subtree_excisions, 0u);
  EXPECT_EQ(res.active_receivers_final, 27);
  EXPECT_GT(res.rla[0].throughput_pps, 0.0);
  EXPECT_GT(res.fault_outage_drops, 0u);  // the dead interface did discard
}

TEST(Partition, MidLevelPartitionFailsOverViaSibling) {
  // Partitioning G21's uplink darkens nine leaves at once; the G2-sibling
  // backup (G22 -> G21) restores them without any session-level surgery.
  TreeConfig cfg = base_cfg();
  cfg.partitions.push_back({/*level=*/2, /*index=*/1, 20.0, 30.0, false});
  cfg.backup_paths = true;
  const auto res = run_tertiary_tree(cfg);
  EXPECT_TRUE(res.watchdog_ok) << res.watchdog_report;
  EXPECT_GE(res.failover_events, 1u);
  EXPECT_GE(res.failover_reverts, 1u);
  EXPECT_EQ(res.active_receivers_final, 27);
  EXPECT_GT(res.rla[0].throughput_pps, 0.0);
}

TEST(Partition, ExcisionThenReadmission) {
  // No backup paths: the sender's structural detector must excise the
  // silent subtree (3 members, one event), keep the survivors moving, and
  // re-admit the subtree through the ramp after the heal.
  TreeConfig cfg = base_cfg();
  cfg.partitions.push_back({/*level=*/3, /*index=*/1, 20.0, 30.0, false});
  cfg.rla.degrade = true;
  const auto res = run_tertiary_tree(cfg);
  EXPECT_TRUE(res.watchdog_ok) << res.watchdog_report;
  EXPECT_EQ(res.failover_events, 0u);  // no manager without backup_paths
  EXPECT_GE(res.subtree_excisions, 1u);
  EXPECT_GE(res.subtree_readmissions, 1u);
  ASSERT_FALSE(res.subtree_events.empty());
  const rla::SubtreeEvent& ev = res.subtree_events.front();
  EXPECT_EQ(ev.members_excised, 3);
  EXPECT_GE(ev.time_to_excise, rla::kSubtreeSilenceAfter);
  EXPECT_GE(ev.healed_at, 30.0);  // cannot heal before the partition ends
  EXPECT_GE(ev.readmitted_at, ev.healed_at);
  EXPECT_EQ(ev.members_readmitted, 3);
  EXPECT_GT(ev.survivor_goodput_pps, 0.0);
  EXPECT_GT(res.ramp_rexmits, 0u);
  EXPECT_EQ(res.active_receivers_final, 27);  // everyone back
}

TEST(Partition, RouterCrashBypassesFailoverAndExcises) {
  // A crashed G31 downs its backup uplink too (NodeFailure is atomic over
  // the router's interfaces): failover has nothing to flip to and stays
  // quiet; excision + re-admission own the episode.
  TreeConfig cfg = base_cfg();
  cfg.partitions.push_back({/*level=*/3, /*index=*/1, 20.0, 30.0,
                            /*router_crash=*/true});
  cfg.backup_paths = true;
  cfg.rla.degrade = true;
  const auto res = run_tertiary_tree(cfg);
  EXPECT_TRUE(res.watchdog_ok) << res.watchdog_report;
  EXPECT_EQ(res.failover_events, 0u);
  EXPECT_GE(res.subtree_excisions, 1u);
  EXPECT_GE(res.subtree_readmissions, 1u);
  EXPECT_EQ(res.active_receivers_final, 27);
}

TEST(Partition, SurvivorsKeepGoodputDuringExcision) {
  // The point of graceful degradation: while the subtree is out, the
  // 24 survivors' frontier keeps advancing at a healthy rate instead of
  // grinding through RTO storms against dead members.
  TreeConfig cfg = base_cfg();
  cfg.partitions.push_back({/*level=*/3, /*index=*/1, 20.0, 40.0, false});
  cfg.rla.degrade = true;
  const auto res = run_tertiary_tree(cfg);
  ASSERT_FALSE(res.subtree_events.empty());
  // Survivor goodput within the episode is a substantial fraction of the
  // session's overall post-warmup rate (not a stalled session).
  EXPECT_GT(res.survivor_goodput_pps, 0.25 * res.rla[0].throughput_pps);
}

TEST(Partition, ChurnRejoinDuringPartitionStaysConsistent) {
  // Receivers leave and rejoin (fresh census index, old one stays
  // excluded) while one subtree is partitioned and later readmitted.  A
  // rejoin landing INSIDE its subtree's partition window creates a member
  // that cannot ACK until the heal; the census must never double-count an
  // incarnation and the session must not wedge.  The 1 Hz invariant
  // watchdog checks num_trouble <= active throughout.
  TreeConfig cfg = base_cfg();
  cfg.duration = 100.0;
  cfg.partitions.push_back({/*level=*/3, /*index=*/1, 20.0, 35.0, false});
  cfg.rla.degrade = true;
  cfg.rla.frontier_watchdog = true;
  cfg.churn_mean_interval = 1.0;  // ~100 leave events over the run
  cfg.churn_rejoin_after = 3.0;
  const auto res = run_tertiary_tree(cfg);
  EXPECT_TRUE(res.watchdog_ok) << res.watchdog_report;
  EXPECT_GT(res.churn_leaves, 0u);
  EXPECT_GT(res.churn_joins, 0u);
  // One live incarnation per leaf, ever: actives can never exceed 27.
  EXPECT_LE(res.active_receivers_final, 27);
  EXPECT_GT(res.rla[0].throughput_pps, 0.0);
}

TEST(Partition, DefaultsRunNoStructuralMachinery) {
  // All-off config: no failover manager, no degradation state, no events.
  const auto res = run_tertiary_tree(base_cfg());
  EXPECT_EQ(res.failover_events, 0u);
  EXPECT_EQ(res.subtree_excisions, 0u);
  EXPECT_TRUE(res.subtree_events.empty());
  EXPECT_EQ(res.time_to_excise, -1.0);
  EXPECT_EQ(res.active_receivers_final, 27);
}

TEST(CensusReadmit, RestoresActiveMembershipWithFreshEpoch) {
  cc::TroubledCensus census(20.0, 0.25);
  for (int i = 0; i < 4; ++i) census.add_receiver();
  EXPECT_EQ(census.active_count(), 4);
  census.on_signal(1, 1.0);
  census.on_signal(1, 2.0);
  census.excise(1);
  EXPECT_EQ(census.active_count(), 3);
  EXPECT_TRUE(census.excluded(1));
  census.readmit(1);
  EXPECT_EQ(census.active_count(), 4);
  EXPECT_FALSE(census.excluded(1));
  // Signal history must not survive the re-admission (fresh epoch).
  EXPECT_EQ(census.recompute(3.0), 0);
  // Idempotent: readmitting an active member changes nothing.
  census.readmit(1);
  EXPECT_EQ(census.active_count(), 4);
}

}  // namespace
}  // namespace rlacast::topo
