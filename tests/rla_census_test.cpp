// TroubledCensus unit tests: the §3.3 rule-6 dynamics that determine
// num_trouble_rcvr and hence pthresh.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "cc/troubled_census.hpp"
#include "sim/random.hpp"

namespace rlacast::cc {
namespace {

TEST(Census, EmptyHasNoTroubled) {
  TroubledCensus c(20.0, 0.25);
  c.add_receiver();
  c.add_receiver();
  EXPECT_EQ(c.recompute(10.0), 0);
  EXPECT_LT(c.min_interval(10.0), 0.0);
}

TEST(Census, FirstSignalMakesReceiverTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int i = c.add_receiver();
  c.add_receiver();
  c.on_signal(i, 5.0);
  EXPECT_EQ(c.recompute(5.0), 1);
  EXPECT_TRUE(c.troubled(i));
}

TEST(Census, SimilarRatesAllTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  // Both signal every ~2 s.
  for (int k = 1; k <= 10; ++k) {
    c.on_signal(a, 2.0 * k);
    c.on_signal(b, 2.0 * k + 0.5);
  }
  EXPECT_EQ(c.recompute(21.0), 2);
}

TEST(Census, RareSignalerIsNotTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int busy = c.add_receiver();
  const int quiet = c.add_receiver();
  // busy: every 1 s; quiet: every 100 s (ratio 100 > eta = 20).
  for (int k = 1; k <= 200; ++k) c.on_signal(busy, 1.0 * k);
  c.on_signal(quiet, 50.0);
  c.on_signal(quiet, 150.0);
  c.recompute(200.0);
  EXPECT_TRUE(c.troubled(busy));
  EXPECT_FALSE(c.troubled(quiet));
  EXPECT_EQ(c.num_troubled(), 1);
}

TEST(Census, BorderlineRatioUsesEta) {
  // Interval ratio 10 < eta=20  -> troubled; with eta=5 it would not be.
  TroubledCensus loose(20.0, 0.25);
  TroubledCensus strict(5.0, 0.25);
  for (auto* c : {&loose, &strict}) {
    const int fast = c->add_receiver();
    const int slow = c->add_receiver();
    for (int k = 1; k <= 100; ++k) c->on_signal(fast, 1.0 * k);
    for (int k = 1; k <= 10; ++k) c->on_signal(slow, 10.0 * k);
    c->recompute(100.0);
    EXPECT_TRUE(c->troubled(fast));
  }
  EXPECT_TRUE(loose.troubled(1));
  EXPECT_FALSE(strict.troubled(1));
}

TEST(Census, QuietReceiverAgesOut) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  for (int k = 1; k <= 20; ++k) {
    c.on_signal(a, 1.0 * k);
    c.on_signal(b, 1.0 * k + 0.3);
  }
  EXPECT_EQ(c.recompute(21.0), 2);
  // b falls silent while a keeps signalling every second.
  for (int k = 21; k <= 1000; ++k) c.on_signal(a, 1.0 * k);
  c.recompute(1000.0);
  EXPECT_TRUE(c.troubled(a));
  EXPECT_FALSE(c.troubled(b));  // silent for ~980 s vs min interval 1 s
}

TEST(Census, ExcludedReceiverNeverTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  for (int k = 1; k <= 10; ++k) c.on_signal(a, 1.0 * k);
  EXPECT_EQ(c.recompute(10.0), 1);
  c.exclude(a);
  EXPECT_EQ(c.num_troubled(), 0);
  c.on_signal(a, 11.0);  // ignored
  EXPECT_EQ(c.recompute(11.0), 0);
  EXPECT_EQ(c.signals(a), 10u);
}

TEST(Census, SignalCountsPerReceiver) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  for (int k = 1; k <= 7; ++k) c.on_signal(a, 1.0 * k);
  for (int k = 1; k <= 3; ++k) c.on_signal(b, 2.0 * k);
  EXPECT_EQ(c.signals(a), 7u);
  EXPECT_EQ(c.signals(b), 3u);
  EXPECT_EQ(c.total_signals(), 10u);
}

TEST(Census, MinIntervalTracksFastestSignaler) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  for (int k = 1; k <= 50; ++k) c.on_signal(a, 0.5 * k);
  for (int k = 1; k <= 5; ++k) c.on_signal(b, 5.0 * k);
  EXPECT_NEAR(c.min_interval(25.0), 0.5, 0.1);
}

// Property: num_troubled is monotone in eta (a looser threshold can only
// admit more receivers).
class CensusEta : public ::testing::TestWithParam<double> {};

TEST_P(CensusEta, TroubledCountGrowsWithEta) {
  const double eta = GetParam();
  TroubledCensus tight(eta, 0.25);
  TroubledCensus loose(eta * 2.0, 0.25);
  for (auto* c : {&tight, &loose}) {
    for (int r = 0; r < 5; ++r) c->add_receiver();
    // Receiver r signals with interval 2^r.
    for (int r = 0; r < 5; ++r) {
      const double interval = 1 << r;
      for (double t = interval; t <= 64.0; t += interval)
        c->on_signal(r, t);
    }
    c->recompute(64.5);
  }
  EXPECT_LE(tight.num_troubled(), loose.num_troubled());
  EXPECT_GE(tight.num_troubled(), 1);
}

INSTANTIATE_TEST_SUITE_P(Etas, CensusEta, ::testing::Values(2.0, 5.0, 10.0, 20.0));

// The member lifecycle, one row per (state × event): the state member 0
// ends in, and how active_count() and membership_version() respond.
// excluded() must hold exactly in kQuarantined, kExcised and kExcluded.
enum class Event {
  kJoin,
  kLeave,
  kExcise,
  kForceQuarantine,
  kQuarantineExpiry,
  kProbationExpiry,
  kStrikeOut,
  kReadmit,
};

struct LifecycleRow {
  MemberState from;
  Event event;
  MemberState to;
  int active_delta;
  bool version_moves;
};

TEST(Census, LifecycleTableCoversEveryStateAndEvent) {
  using S = MemberState;
  using E = Event;
  const LifecycleRow rows[] = {
      {S::kActive, E::kJoin, S::kActive, +1, true},
      {S::kActive, E::kLeave, S::kExcluded, -1, true},
      {S::kActive, E::kExcise, S::kExcised, -1, true},
      {S::kActive, E::kForceQuarantine, S::kQuarantined, -1, true},
      {S::kActive, E::kQuarantineExpiry, S::kActive, 0, false},
      {S::kActive, E::kProbationExpiry, S::kActive, 0, false},
      {S::kActive, E::kStrikeOut, S::kExcluded, -1, true},
      {S::kActive, E::kReadmit, S::kActive, 0, false},
      {S::kProbation, E::kJoin, S::kProbation, +1, true},
      {S::kProbation, E::kLeave, S::kExcluded, -1, true},
      {S::kProbation, E::kExcise, S::kExcised, -1, true},
      {S::kProbation, E::kForceQuarantine, S::kQuarantined, -1, true},
      {S::kProbation, E::kQuarantineExpiry, S::kProbation, 0, false},
      {S::kProbation, E::kProbationExpiry, S::kActive, 0, false},
      {S::kProbation, E::kStrikeOut, S::kExcluded, -1, true},
      {S::kProbation, E::kReadmit, S::kProbation, 0, false},
      {S::kQuarantined, E::kJoin, S::kQuarantined, +1, true},
      {S::kQuarantined, E::kLeave, S::kExcluded, 0, false},
      {S::kQuarantined, E::kExcise, S::kQuarantined, 0, false},
      {S::kQuarantined, E::kForceQuarantine, S::kQuarantined, 0, false},
      {S::kQuarantined, E::kQuarantineExpiry, S::kProbation, +1, true},
      {S::kQuarantined, E::kProbationExpiry, S::kQuarantined, 0, false},
      {S::kQuarantined, E::kStrikeOut, S::kQuarantined, 0, false},
      {S::kQuarantined, E::kReadmit, S::kQuarantined, 0, false},
      {S::kExcised, E::kJoin, S::kExcised, +1, true},
      {S::kExcised, E::kLeave, S::kExcluded, 0, false},
      {S::kExcised, E::kExcise, S::kExcised, 0, false},
      {S::kExcised, E::kForceQuarantine, S::kExcised, 0, false},
      {S::kExcised, E::kQuarantineExpiry, S::kExcised, 0, false},
      {S::kExcised, E::kProbationExpiry, S::kExcised, 0, false},
      {S::kExcised, E::kStrikeOut, S::kExcised, 0, false},
      {S::kExcised, E::kReadmit, S::kActive, +1, true},
      {S::kExcluded, E::kJoin, S::kExcluded, +1, true},
      {S::kExcluded, E::kLeave, S::kExcluded, 0, false},
      {S::kExcluded, E::kExcise, S::kExcluded, 0, false},
      {S::kExcluded, E::kForceQuarantine, S::kExcluded, 0, false},
      {S::kExcluded, E::kQuarantineExpiry, S::kExcluded, 0, false},
      {S::kExcluded, E::kProbationExpiry, S::kExcluded, 0, false},
      {S::kExcluded, E::kStrikeOut, S::kExcluded, 0, false},
      {S::kExcluded, E::kReadmit, S::kExcluded, 0, false},
  };
  ASSERT_EQ(std::size(rows), 5u * 8u);
  for (std::size_t k = 0; k < std::size(rows); ++k) {
    const LifecycleRow& row = rows[k];
    SCOPED_TRACE("row " + std::to_string(k));
    // Member 0 of three reaches row.from by t = 100 (default dwells: a
    // first quarantine lasts 20 s, probation 30 s).
    TroubledCensus c(20.0, 0.25);
    for (int i = 0; i < 3; ++i) c.add_receiver();
    sim::SimTime deadline = 101.0;  // the timer events' clock when idle
    switch (row.from) {
      case S::kProbation:
        c.force_quarantine(0, 80.0);
        ASSERT_EQ(c.advance_states(100.0), std::vector<int>{0});
        deadline = 130.0;
        break;
      case S::kQuarantined:
        c.force_quarantine(0, 100.0);
        deadline = 120.0;
        break;
      case S::kExcised:
        c.excise(0);
        break;
      case S::kExcluded:
        c.exclude(0);
        break;
      case S::kActive:
        break;
    }
    ASSERT_EQ(c.state(0), row.from);
    const int active = c.active_count();
    const std::uint64_t version = c.membership_version();
    switch (row.event) {
      case E::kJoin:
        EXPECT_EQ(c.state(c.add_receiver()), S::kActive);
        break;
      case E::kLeave:
        c.exclude(0);
        break;
      case E::kExcise:
        c.excise(0);
        break;
      case E::kForceQuarantine:
        c.force_quarantine(0, 100.0);
        break;
      // The timer events run the clock to the member's own deadline of that
      // kind, or one second on when it has none pending.
      case E::kQuarantineExpiry:
        (void)c.advance_states(row.from == S::kQuarantined ? deadline : 101.0);
        break;
      case E::kProbationExpiry:
        (void)c.advance_states(row.from == S::kProbation ? deadline : 101.0);
        break;
      case E::kStrikeOut: {
        // The strike that reaches max_strikes.
        CensusDefenseParams d;
        d.max_strikes = c.strikes(0) + 1;
        c.set_defense(d);
        c.force_quarantine(0, 100.0);
        break;
      }
      case E::kReadmit:
        c.readmit(0);
        break;
    }
    EXPECT_EQ(c.state(0), row.to);
    EXPECT_EQ(c.excluded(0), row.to == S::kQuarantined ||
                                 row.to == S::kExcised ||
                                 row.to == S::kExcluded);
    EXPECT_EQ(c.active_count(), active + row.active_delta);
    EXPECT_EQ(c.membership_version() != version, row.version_moves);
  }
}

// Fuzz: adversarial signal sequences — bursts, long silences, simultaneous
// signals, signals at identical timestamps, mid-stream exclusions — must
// never produce NaN/negative intervals, and num_trouble_rcvr >= 1 whenever
// any non-excluded receiver has ever signalled (pthresh = p/num_trouble
// divides by it).
TEST(Census, FuzzRandomSignalSequencesKeepInvariants) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    TroubledCensus c(20.0, 0.25);
    for (int i = 0; i < n; ++i) c.add_receiver();

    double now = 0.0;
    bool any_signal_live = false;
    for (int step = 0; step < 400; ++step) {
      // Time advances by anything from 0 (same-instant signals) to a long
      // silence; bursts arrive with many signals at one instant.
      const double r = rng.uniform();
      if (r < 0.3) {
        // burst: several receivers signal at the same time
        const int k = static_cast<int>(rng.uniform_int(1, n));
        for (int j = 0; j < k; ++j) {
          const int i = static_cast<int>(rng.uniform_int(0, n - 1));
          c.on_signal(i, now);
          if (!c.excluded(i)) any_signal_live = true;
        }
      } else if (r < 0.85) {
        const int i = static_cast<int>(rng.uniform_int(0, n - 1));
        c.on_signal(i, now);
        if (!c.excluded(i)) any_signal_live = true;
      } else if (r < 0.9 && n > 1) {
        // rare mid-stream exclusion (leave / slow-drop / crash)
        const int i = static_cast<int>(rng.uniform_int(0, n - 1));
        c.exclude(i);
        any_signal_live = false;  // recompute below re-derives the truth
        for (int j = 0; j < n; ++j)
          if (!c.excluded(j) && c.signals(j) > 0) any_signal_live = true;
      }
      now += rng.chance(0.1) ? rng.uniform(50.0, 500.0)  // long silence
                             : rng.uniform(0.0, 2.0);

      const int troubled = c.recompute(now);
      ASSERT_GE(troubled, 0) << "seed " << seed << " step " << step;
      ASSERT_LE(troubled, n);
      if (any_signal_live) {
        // The paper's rule: the most congested receiver is always troubled,
        // so the pthresh denominator never hits zero while signals exist.
        ASSERT_GE(troubled, 1) << "seed " << seed << " step " << step;
      }
      const double min_iv = c.min_interval(now);
      ASSERT_FALSE(std::isnan(min_iv)) << "seed " << seed;
      if (any_signal_live) {
        ASSERT_GE(min_iv, 0.0) << "seed " << seed;
      }
      for (int i = 0; i < n; ++i) {
        const double eff = c.effective_interval(i, now);
        ASSERT_FALSE(std::isnan(eff)) << "seed " << seed << " rcvr " << i;
        if (c.excluded(i) || c.signals(i) == 0) {
          ASSERT_FALSE(c.troubled(i));
          continue;
        }
        ASSERT_GE(eff, 0.0) << "seed " << seed << " rcvr " << i;
        // Troubled receivers are exactly those within eta of the minimum.
        ASSERT_EQ(c.troubled(i), eff <= 20.0 * min_iv)
            << "seed " << seed << " rcvr " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rlacast::cc
