// Frontier-progress watchdog regression (ROADMAP "Defenses that compose,
// and RTT sampling for every member", part (b)): the majority-coalition
// liveness hole.
//
// Nine signal-storm receivers (a third of the tree) freeze their cumulative
// ACK behind a fabricated hole and never release it.  The census rate
// defense is OFF — each stormer's signal rate alone is defensible — so the
// only guard is the sender's frontier watchdog: reach-all pinned for
// several RTOs while ACKs keep flowing and the blocking packet has been
// repaired means the pinners are lying about loss, and they are
// force-quarantined through the census strike machinery.  The honest 18
// receivers then carry the session.
#include <gtest/gtest.h>

#include "fault/adversary.hpp"
#include "topo/tertiary_tree.hpp"

namespace rlacast {
namespace {

topo::TreeConfig stormed_tree(bool watchdog_on) {
  topo::TreeConfig cfg;
  cfg.bottleneck = topo::TreeCase::kL1;
  cfg.duration = 60.0;
  cfg.warmup = 10.0;
  cfg.seed = 7;
  fault::AdversaryModel storm;
  storm.kind = fault::AdversaryKind::kSignalStorm;
  storm.start = 5.0;
  storm.hole_hold_acks = 1 << 30;  // the hole never releases: a pure pin
  storm.storm_copies = 1;
  for (int i = 0; i < 9; ++i) cfg.adversaries.emplace_back(i * 3, storm);
  cfg.rla.frontier_watchdog = watchdog_on;
  return cfg;
}

TEST(FrontierWatchdog, NineStormersAreQuarantinedAndSessionProceeds) {
  const auto res = topo::run_tertiary_tree(stormed_tree(true));
  EXPECT_GT(res.adv_fake_holes, 0u);  // the attack actually ran
  // Every pinner must be evicted for the frontier to pass its frozen cum;
  // rejoin waves after served quarantines can only add to the count.
  EXPECT_GE(res.rla_watchdog_quarantines, 9u);
  EXPECT_GT(res.rla[0].throughput_pps, 0.0);
  EXPECT_GE(res.active_receivers_final, 18);
}

TEST(FrontierWatchdog, DisabledWatchdogLeavesTheSessionPinned) {
  const auto res_off = topo::run_tertiary_tree(stormed_tree(false));
  EXPECT_EQ(res_off.rla_watchdog_quarantines, 0u);
  EXPECT_GT(res_off.adv_fake_holes, 0u);
  // The liveness win, not just the mechanism: the same attack with the
  // watchdog on clears several times the pinned session's throughput.
  const auto res_on = topo::run_tertiary_tree(stormed_tree(true));
  EXPECT_GT(res_on.rla[0].throughput_pps, res_off.rla[0].throughput_pps);
}

}  // namespace
}  // namespace rlacast
