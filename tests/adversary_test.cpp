// Feedback-plane hardening unit tests:
//
//   * ReceiverAdversary model semantics — the signal-storm hole state
//     machine (freeze ack, carry real progress in SACK, cooldown release),
//     srtt inflate/deflate timestamp rewrites, mute suppression, and the
//     flip-flop phase schedule;
//   * AdversaryPlan build/arm contract (last-write-wins, arm() validation,
//     totals aggregation);
//   * cc::robust_clamped_max median/MAD math;
//   * the TroubledCensus defense: median rate-check quarantine, the
//     quarantine -> probation -> rejoin state machine, strike escalation to
//     permanent exclusion, and no-false-positive behavior on honest skew;
//   * chaos draws: bit-identical per seed, within configured bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cc/troubled_census.hpp"
#include "fault/adversary.hpp"
#include "fault/chaos.hpp"

namespace rlacast {
namespace {

net::Packet make_ack(net::SeqNum cum, double ts_echo = 1.0) {
  net::Packet p;
  p.type = net::PacketType::kAck;
  p.ack = cum;
  p.ts_echo = ts_echo;
  return p;
}

// --- ReceiverAdversary -----------------------------------------------------

TEST(Adversary, HonestBeforeStart) {
  fault::AdversaryModel m;
  m.kind = fault::AdversaryKind::kMute;
  m.start = 100.0;
  fault::ReceiverAdversary adv(m);
  net::Packet ack = make_ack(7);
  const auto v = adv.on_ack(ack, 50.0);
  EXPECT_FALSE(v.suppress);
  EXPECT_EQ(v.extra_copies, 0);
  EXPECT_EQ(ack.ack, 7);
  EXPECT_EQ(adv.acks_withheld(), 0u);
}

TEST(Adversary, StormFreezesCumAndCarriesProgressInSack) {
  fault::AdversaryModel m;
  m.kind = fault::AdversaryKind::kSignalStorm;
  m.start = 10.0;
  m.hole_hold_acks = 3;
  m.storm_copies = 2;
  fault::ReceiverAdversary adv(m);

  // Honest phase establishes the sender frontier at 20.
  net::Packet warm = make_ack(20);
  adv.on_ack(warm, 5.0);

  // First stormed ACK: hole opens at the reported frontier (20); the real
  // cumulative point 25 rides in SACK block 0 as (hole, real_cum).
  net::Packet a1 = make_ack(25);
  const auto v1 = adv.on_ack(a1, 10.0);
  EXPECT_EQ(a1.ack, 20);
  ASSERT_GE(a1.n_sack, 1);
  EXPECT_EQ(a1.sack[0].lo, 21);
  EXPECT_EQ(a1.sack[0].hi, 25);
  EXPECT_EQ(v1.extra_copies, 2);
  EXPECT_FALSE(v1.suppress);
  EXPECT_EQ(adv.fake_holes(), 1u);
  EXPECT_EQ(adv.acks_tampered(), 1u);
  EXPECT_EQ(adv.extra_acks(), 2u);

  // The hole stays frozen while held (hole_hold_acks = 3 total).
  net::Packet a2 = make_ack(30);
  adv.on_ack(a2, 10.1);
  EXPECT_EQ(a2.ack, 20);
  net::Packet a3 = make_ack(35);
  adv.on_ack(a3, 10.2);
  EXPECT_EQ(a3.ack, 20);

  // Hold exhausted: one honest cooldown ACK lets the frontier catch up...
  net::Packet a4 = make_ack(40);
  const auto v4 = adv.on_ack(a4, 10.3);
  EXPECT_EQ(a4.ack, 40);
  EXPECT_EQ(v4.extra_copies, 0);

  // ...and the next hole opens at the caught-up frontier, not below it.
  net::Packet a5 = make_ack(45);
  adv.on_ack(a5, 10.4);
  EXPECT_EQ(a5.ack, 40);
  EXPECT_EQ(a5.sack[0].lo, 41);
  EXPECT_EQ(adv.fake_holes(), 2u);
}

TEST(Adversary, StormPreservesExistingSackBlocks) {
  fault::AdversaryModel m;
  m.kind = fault::AdversaryKind::kSignalStorm;
  m.start = 2.0;
  fault::ReceiverAdversary adv(m);
  net::Packet warm = make_ack(5);
  adv.on_ack(warm, 1.0);  // honest phase: frontier = 5
  net::Packet a = make_ack(9);
  a.sack[0] = net::SackBlock{40, 45};
  a.n_sack = 1;
  adv.on_ack(a, 3.0);  // hole opens at 5; real progress 9 rides in SACK
  ASSERT_EQ(a.n_sack, 2);
  EXPECT_EQ(a.ack, 5);
  EXPECT_EQ(a.sack[0].lo, 6);  // fabricated block first
  EXPECT_EQ(a.sack[0].hi, 9);
  EXPECT_EQ(a.sack[1].lo, 40);  // receiver's genuine block preserved
  EXPECT_EQ(a.sack[1].hi, 45);
}

TEST(Adversary, InflateShiftsEchoIntoPast) {
  fault::AdversaryModel m;
  m.kind = fault::AdversaryKind::kSrttInflate;
  m.start = 0.0;
  m.srtt_bias = 1.5;
  fault::ReceiverAdversary adv(m);
  net::Packet a = make_ack(5, /*ts_echo=*/10.0);
  adv.on_ack(a, 10.2);
  EXPECT_DOUBLE_EQ(a.ts_echo, 8.5);  // sample inflated by 1.5 s
  EXPECT_EQ(adv.acks_tampered(), 1u);

  // Never pushed to or below zero (a zero echo means "no sample").
  net::Packet b = make_ack(6, /*ts_echo=*/0.5);
  adv.on_ack(b, 10.4);
  EXPECT_GT(b.ts_echo, 0.0);

  // ts_echo <= 0 (no timestamp) is left alone.
  net::Packet c = make_ack(7, /*ts_echo=*/0.0);
  adv.on_ack(c, 10.6);
  EXPECT_DOUBLE_EQ(c.ts_echo, 0.0);
}

TEST(Adversary, DeflatePinsEchoNearNow) {
  fault::AdversaryModel m;
  m.kind = fault::AdversaryKind::kSrttDeflate;
  m.start = 0.0;
  m.deflate_to = 1e-3;
  fault::ReceiverAdversary adv(m);
  net::Packet a = make_ack(5, /*ts_echo=*/10.0);
  adv.on_ack(a, 12.0);
  EXPECT_DOUBLE_EQ(a.ts_echo, 12.0 - 1e-3);  // claims a 1 ms RTT

  // A genuinely smaller sample is not made LARGER by the lie.
  net::Packet b = make_ack(6, /*ts_echo=*/11.99995);
  adv.on_ack(b, 12.0);
  EXPECT_DOUBLE_EQ(b.ts_echo, 11.99995);
}

TEST(Adversary, MuteSuppressesEverything) {
  fault::AdversaryModel m;
  m.kind = fault::AdversaryKind::kMute;
  m.start = 5.0;
  fault::ReceiverAdversary adv(m);
  for (int i = 0; i < 10; ++i) {
    net::Packet a = make_ack(i);
    EXPECT_TRUE(adv.on_ack(a, 5.0 + i).suppress);
  }
  EXPECT_EQ(adv.acks_withheld(), 10u);
  EXPECT_EQ(adv.acks_tampered(), 0u);
}

TEST(Adversary, FlipFlopAlternatesStormAndMute) {
  fault::AdversaryModel m;
  m.kind = fault::AdversaryKind::kFlipFlop;
  m.start = 10.0;
  m.flip_period = 5.0;
  fault::ReceiverAdversary adv(m);
  net::Packet warm = make_ack(50);
  adv.on_ack(warm, 9.0);  // honest: frontier = 50

  // Phase 0 (t in [10, 15)): storm — tampered, not suppressed.
  net::Packet a = make_ack(55);
  const auto va = adv.on_ack(a, 12.0);
  EXPECT_FALSE(va.suppress);
  EXPECT_EQ(a.ack, 50);

  // Phase 1 (t in [15, 20)): mute.
  net::Packet b = make_ack(60);
  EXPECT_TRUE(adv.on_ack(b, 17.0).suppress);

  // Phase 2: storming again.
  net::Packet c = make_ack(65);
  EXPECT_FALSE(adv.on_ack(c, 21.0).suppress);
}

TEST(Adversary, PlanLastWriteWinsAndArmValidates) {
  fault::AdversaryPlan plan;
  EXPECT_TRUE(plan.empty());
  fault::AdversaryModel m1;
  m1.kind = fault::AdversaryKind::kMute;
  fault::AdversaryModel m2;
  m2.kind = fault::AdversaryKind::kSignalStorm;
  plan.corrupt(3, m1).corrupt(3, m2);
  EXPECT_EQ(plan.size(), 1u);  // last write wins, no duplicate entry

  // arm() refuses an index with no live receiver.
  std::vector<rla::RlaReceiver*> none;
  EXPECT_THROW(plan.arm(none), std::invalid_argument);
  std::vector<rla::RlaReceiver*> holes(5, nullptr);
  EXPECT_THROW(plan.arm(holes), std::invalid_argument);

  // Unarmed plans report zero totals.
  const auto t = plan.totals();
  EXPECT_EQ(t.acks_tampered + t.acks_withheld + t.extra_acks + t.fake_holes,
            0u);
}

TEST(Adversary, KindNamesAreStable) {
  EXPECT_STREQ(fault::adversary_kind_name(fault::AdversaryKind::kSignalStorm),
               "signal_storm");
  EXPECT_STREQ(fault::adversary_kind_name(fault::AdversaryKind::kSrttInflate),
               "srtt_inflate");
  EXPECT_STREQ(fault::adversary_kind_name(fault::AdversaryKind::kSrttDeflate),
               "srtt_deflate");
  EXPECT_STREQ(fault::adversary_kind_name(fault::AdversaryKind::kMute),
               "mute");
  EXPECT_STREQ(fault::adversary_kind_name(fault::AdversaryKind::kFlipFlop),
               "flip_flop");
}

// --- robust_clamped_max ----------------------------------------------------

TEST(RobustClamp, FewValuesFallBackToPlainMax) {
  std::vector<double> two{0.1, 9.0};
  EXPECT_DOUBLE_EQ(cc::robust_clamped_max(two, 4.0), 9.0);
  std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(cc::robust_clamped_max(one, 4.0), 3.0);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(cc::robust_clamped_max(none, 4.0), 0.0);
}

TEST(RobustClamp, DisabledKMadsIsPlainMax) {
  std::vector<double> vals{0.1, 0.11, 0.12, 0.1, 50.0};
  EXPECT_DOUBLE_EQ(cc::robust_clamped_max(vals, 0.0), 50.0);
}

TEST(RobustClamp, SingleLiarIsPulledToHonestSpread) {
  // Honest cohort around 0.1 s; one receiver claims 50 s.  The clamp must
  // land near the honest spread, nowhere near the lie.
  std::vector<double> vals{0.10, 0.11, 0.12, 0.09, 0.10, 50.0};
  const double clamped = cc::robust_clamped_max(vals, 4.0);
  EXPECT_LT(clamped, 0.5);
  EXPECT_GE(clamped, 0.10);  // never below the honest median
}

TEST(RobustClamp, IdenticalCohortClampsToMedian) {
  // MAD = 0: the liar is clamped (numerically) to the unanimous value.
  std::vector<double> vals{0.2, 0.2, 0.2, 0.2, 7.0};
  EXPECT_NEAR(cc::robust_clamped_max(vals, 4.0), 0.2, 1e-9);
}

TEST(RobustClamp, HonestMaxSurvives) {
  // Without a liar the clamp must not bite: max within the spread stays.
  std::vector<double> vals{0.10, 0.12, 0.11, 0.13, 0.105};
  EXPECT_DOUBLE_EQ(cc::robust_clamped_max(vals, 4.0), 0.13);
}

// --- census defense --------------------------------------------------------

cc::CensusDefenseParams fast_defense() {
  cc::CensusDefenseParams d;
  d.enabled = true;
  d.rate_factor = 8.0;
  d.probation_rate_factor = 8.0;
  d.min_signals = 4;
  d.quarantine_seconds = 5.0;
  d.probation_seconds = 5.0;
  d.max_strikes = 3;
  return d;
}

// Drives 4 honest receivers at a ~2 s signal period up to `until`.
void honest_traffic(cc::TroubledCensus& c, const std::vector<int>& honest,
                    double from, double until) {
  for (double t = from; t < until; t += 2.0)
    for (std::size_t j = 0; j < honest.size(); ++j)
      c.on_signal(honest[j], t + 0.05 * static_cast<double>(j));
}

TEST(CensusDefense, StormRateTriggersQuarantine) {
  cc::TroubledCensus c(20.0, 0.25);
  c.set_defense(fast_defense());
  std::vector<int> honest;
  for (int i = 0; i < 4; ++i) honest.push_back(c.add_receiver());
  const int liar = c.add_receiver();

  honest_traffic(c, honest, 2.0, 12.0);
  // Liar signals every 50 ms: its interval is ~40x below the ~2 s median.
  for (int k = 0; k < 40 && !c.excluded(liar); ++k)
    c.on_signal(liar, 12.0 + 0.05 * k);

  EXPECT_EQ(c.state(liar), cc::MemberState::kQuarantined);
  EXPECT_TRUE(c.excluded(liar));
  EXPECT_EQ(c.strikes(liar), 1);
  EXPECT_EQ(c.quarantines(), 1u);
  EXPECT_EQ(c.currently_quarantined(), 1);
  for (int h : honest) {
    EXPECT_EQ(c.state(h), cc::MemberState::kActive);
    EXPECT_FALSE(c.excluded(h));
  }
  // A quarantined member no longer counts as troubled.
  c.recompute(14.0);
  EXPECT_FALSE(c.troubled(liar));
}

TEST(CensusDefense, QuarantineServesIntoProbationThenActive) {
  cc::TroubledCensus c(20.0, 0.25);
  c.set_defense(fast_defense());
  std::vector<int> honest;
  for (int i = 0; i < 4; ++i) honest.push_back(c.add_receiver());
  const int liar = c.add_receiver();
  honest_traffic(c, honest, 2.0, 12.0);
  for (int k = 0; k < 40 && !c.excluded(liar); ++k)
    c.on_signal(liar, 12.0 + 0.05 * k);
  ASSERT_EQ(c.state(liar), cc::MemberState::kQuarantined);

  // Not served yet: no transition.
  EXPECT_TRUE(c.advance_states(14.0).empty());

  // Quarantine (5 s) served: the member rejoins on probation and its index
  // is reported so the sender can thaw its scoreboard.
  const auto rejoined = c.advance_states(20.0);
  ASSERT_EQ(rejoined.size(), 1u);
  EXPECT_EQ(rejoined[0], liar);
  EXPECT_EQ(c.state(liar), cc::MemberState::kProbation);
  EXPECT_FALSE(c.excluded(liar));
  // The rejoin starts a fresh census epoch: no stale storm history.
  EXPECT_LT(c.effective_interval(liar, 20.0), 0.0);

  // A clean probation window restores full membership; strikes persist.
  EXPECT_TRUE(c.advance_states(26.0).empty());
  EXPECT_EQ(c.state(liar), cc::MemberState::kActive);
  EXPECT_EQ(c.strikes(liar), 1);
}

TEST(CensusDefense, RepeatOffenderStrikesOut) {
  cc::CensusDefenseParams d = fast_defense();
  d.max_strikes = 2;
  cc::TroubledCensus c(20.0, 0.25);
  c.set_defense(d);
  std::vector<int> honest;
  for (int i = 0; i < 4; ++i) honest.push_back(c.add_receiver());
  const int liar = c.add_receiver();

  honest_traffic(c, honest, 2.0, 12.0);
  for (int k = 0; k < 40 && !c.excluded(liar); ++k)
    c.on_signal(liar, 12.0 + 0.05 * k);
  ASSERT_EQ(c.strikes(liar), 1);
  c.advance_states(20.0);  // -> probation

  // Keep the honest cohort's intervals fresh, then re-offend on probation.
  honest_traffic(c, honest, 20.0, 26.0);
  for (int k = 0; k < 40 && !c.excluded(liar); ++k)
    c.on_signal(liar, 26.0 + 0.05 * k);

  EXPECT_EQ(c.state(liar), cc::MemberState::kExcluded);
  EXPECT_EQ(c.strikes(liar), 2);
  EXPECT_EQ(c.strikeouts(), 1u);
  EXPECT_EQ(c.quarantines(), 2u);
  // Permanent: no timer ever releases kExcluded.
  EXPECT_TRUE(c.advance_states(1e9).empty());
  EXPECT_EQ(c.state(liar), cc::MemberState::kExcluded);
}

TEST(CensusDefense, HonestSkewIsNotQuarantined) {
  // Receivers with a 3x rate spread (well under rate_factor = 8) must all
  // stay active: the defense may not manufacture false positives.
  cc::TroubledCensus c(20.0, 0.25);
  c.set_defense(fast_defense());
  const int fast = c.add_receiver();
  const int mid1 = c.add_receiver();
  const int mid2 = c.add_receiver();
  const int slow = c.add_receiver();
  for (double t = 1.0; t < 60.0; t += 1.0) c.on_signal(fast, t);
  for (double t = 1.3; t < 60.0; t += 2.0) c.on_signal(mid1, t);
  for (double t = 1.6; t < 60.0; t += 2.0) c.on_signal(mid2, t);
  for (double t = 2.0; t < 60.0; t += 3.0) c.on_signal(slow, t);
  for (int i : {fast, mid1, mid2, slow})
    EXPECT_EQ(c.state(i), cc::MemberState::kActive) << "receiver " << i;
  EXPECT_EQ(c.quarantines(), 0u);
}

TEST(CensusDefense, DisabledDefenseNeverQuarantines) {
  cc::TroubledCensus c(20.0, 0.25);  // defense defaults to disabled
  std::vector<int> honest;
  for (int i = 0; i < 4; ++i) honest.push_back(c.add_receiver());
  const int liar = c.add_receiver();
  honest_traffic(c, honest, 2.0, 12.0);
  for (int k = 0; k < 200; ++k) c.on_signal(liar, 12.0 + 0.05 * k);
  EXPECT_FALSE(c.excluded(liar));
  EXPECT_EQ(c.quarantines(), 0u);
  EXPECT_TRUE(c.advance_states(1e9).empty());
  // The storming receiver drags the census minimum exactly as the paper's
  // undefended census would: it IS the troubled set's anchor.
  c.recompute(22.0);
  EXPECT_TRUE(c.troubled(liar));
}

// --- chaos draws -----------------------------------------------------------

TEST(Chaos, DrawIsDeterministicPerSeed) {
  const fault::ChaosConfig cfg;
  const auto a = fault::draw_chaos(cfg, 0xfeedULL, 27);
  const auto b = fault::draw_chaos(cfg, 0xfeedULL, 27);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.n_adversaries, b.n_adversaries);
  EXPECT_EQ(a.adversary_idx, b.adversary_idx);
  EXPECT_DOUBLE_EQ(a.ack_fault.loss_p, b.ack_fault.loss_p);
  EXPECT_DOUBLE_EQ(a.ack_fault.duplicate_p, b.ack_fault.duplicate_p);
  EXPECT_DOUBLE_EQ(a.ack_fault.max_jitter, b.ack_fault.max_jitter);
  EXPECT_DOUBLE_EQ(a.leaf_fault.loss_p, b.leaf_fault.loss_p);
  EXPECT_DOUBLE_EQ(a.flip_period, b.flip_period);
  EXPECT_EQ(a.describe(), b.describe());
}

TEST(Chaos, DrawsStayInsideConfiguredBounds) {
  fault::ChaosConfig cfg;
  cfg.max_adversaries = 5;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const auto d = fault::draw_chaos(cfg, seed, 27);
    EXPECT_GE(d.n_adversaries, 0);
    EXPECT_LE(d.n_adversaries, 5);
    EXPECT_EQ(d.adversary_idx.size(),
              static_cast<std::size_t>(d.n_adversaries));
    for (std::size_t i = 0; i < d.adversary_idx.size(); ++i) {
      EXPECT_GE(d.adversary_idx[i], 0);
      EXPECT_LT(d.adversary_idx[i], 27);
      if (i > 0) {  // ascending and unique (distinct receivers)
        EXPECT_GT(d.adversary_idx[i], d.adversary_idx[i - 1]);
      }
    }
    EXPECT_GE(d.ack_fault.loss_p, 0.0);
    EXPECT_LE(d.ack_fault.loss_p, fault::kChaosMaxAckLossP);
    EXPECT_LE(d.ack_fault.duplicate_p, fault::kChaosMaxAckDupP);
    EXPECT_LE(d.ack_fault.max_jitter, fault::kChaosMaxAckJitter);
    EXPECT_LE(d.leaf_fault.loss_p, fault::kChaosMaxLeafLossP);
    EXPECT_GE(d.flip_period, fault::kChaosMinFlipPeriod);
    EXPECT_LE(d.flip_period, fault::kChaosMaxFlipPeriod);
    EXPECT_DOUBLE_EQ(d.adversary_start, fault::kChaosAdversaryStart);
  }
}

TEST(Chaos, DifferentSeedsExploreTheSpace) {
  const fault::ChaosConfig cfg;
  bool any_difference = false;
  const auto first = fault::draw_chaos(cfg, 1, 27);
  for (std::uint64_t seed = 2; seed <= 16 && !any_difference; ++seed) {
    const auto d = fault::draw_chaos(cfg, seed, 27);
    any_difference = d.kind != first.kind ||
                     d.n_adversaries != first.n_adversaries ||
                     d.ack_fault.loss_p != first.ack_fault.loss_p;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Chaos, MaterializedAdversariesMatchTheDraw) {
  const fault::ChaosConfig cfg;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto d = fault::draw_chaos(cfg, seed, 27);
    const auto models = d.adversaries();
    ASSERT_EQ(models.size(), d.adversary_idx.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
      EXPECT_EQ(models[i].first, d.adversary_idx[i]);
      EXPECT_EQ(models[i].second.kind, d.kind);
      EXPECT_DOUBLE_EQ(models[i].second.start, d.adversary_start);
      EXPECT_DOUBLE_EQ(models[i].second.flip_period, d.flip_period);
    }
  }
}

}  // namespace
}  // namespace rlacast
