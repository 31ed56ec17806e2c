// One census at every scale: the reservoir sample, its oracles, and the
// receiver table's tracked slots.
//
//   * Property: a reservoir of exactly n (full, the bottom-k eviction path)
//     reproduces the default unbounded reservoir (never full) bit for bit —
//     troubled flags, num_trouble_rcvr, srtt_max, min_interval and the
//     defense state machine, step for step.
//   * Oracle: with the default reservoir every aggregate equals a brute-force
//     recomputation from effective_interval, excluded() and the srtts fed
//     in, and the tracked set is exactly the active set.
//   * A bounded reservoir maintained incrementally equals one rebuilt from
//     scratch over the same membership.
//   * At reservoir << N the num_trouble_rcvr estimate stays within a few
//     standard errors of the exact count — relative standard error
//     ~ sqrt((1-f)/(f*k)) for troubled fraction f (DESIGN.md) — and census
//     memory is O(reservoir + signallers), not O(N).
//   * rla::ReceiverTable: untracked members share the fallback RTT
//     estimator, tracked members match per-member reference estimators, a
//     late joiner starts fresh, and table memory is O(tracked), not O(N).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cc/census_core.hpp"
#include "cc/rtt_estimator.hpp"
#include "cc/troubled_census.hpp"
#include "rla/receiver_table.hpp"

namespace rlacast {
namespace {

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 33;
}

// Drives two censuses through an identical operation stream and asserts
// bit-identical observable state after every step.
void expect_census_lockstep(cc::TroubledCensus& a, cc::TroubledCensus& b,
                            int n, int steps, bool with_defense) {
  if (with_defense) {
    cc::CensusDefenseParams d;
    d.enabled = true;
    a.set_defense(d);
    b.set_defense(d);
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(a.add_receiver(), b.add_receiver());
    a.note_srtt(i, 0.1);
    b.note_srtt(i, 0.1);
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double t = 1.0;
  for (int s = 0; s < steps; ++s) {
    t += 0.01;
    const int i = static_cast<int>(lcg(x) % static_cast<std::uint64_t>(n));
    switch (lcg(x) % 9) {
      case 0: {
        const double srtt = 0.05 + 0.001 * static_cast<double>(lcg(x) % 400);
        a.note_srtt(i, srtt);
        b.note_srtt(i, srtt);
        break;
      }
      case 1:
        a.exclude(i);
        b.exclude(i);
        break;
      case 2:
        a.force_quarantine(i, t);
        b.force_quarantine(i, t);
        break;
      case 3: {
        const auto ra = a.advance_states(t);
        const auto rb = b.advance_states(t);
        ASSERT_EQ(ra, rb);
        break;
      }
      case 4:
        a.readmit(i);
        b.readmit(i);
        break;
      default:
        a.on_signal(i, t);
        b.on_signal(i, t);
        break;
    }
    ASSERT_EQ(a.recompute(t), b.recompute(t)) << "step " << s;
    ASSERT_EQ(a.num_troubled(), b.num_troubled());
    ASSERT_EQ(a.active_count(), b.active_count());
    ASSERT_EQ(a.min_interval(t), b.min_interval(t));
    ASSERT_EQ(a.srtt_max(), b.srtt_max());
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(a.troubled(j), b.troubled(j)) << "rcvr " << j;
      ASSERT_EQ(a.excluded(j), b.excluded(j)) << "rcvr " << j;
      ASSERT_EQ(a.tracked(j), b.tracked(j)) << "rcvr " << j;
      ASSERT_EQ(a.state(j), b.state(j)) << "rcvr " << j;
      ASSERT_EQ(a.strikes(j), b.strikes(j)) << "rcvr " << j;
      ASSERT_EQ(a.signals(j), b.signals(j)) << "rcvr " << j;
    }
  }
}

TEST(CensusScale, SampledReservoirGeNMatchesExactBitForBit) {
  const int n = 64;
  cc::TroubledCensus exact(20.0, 0.25);
  cc::TroubledCensus full(20.0, 0.25);
  full.configure_sampling({.reservoir = static_cast<std::size_t>(n)});
  expect_census_lockstep(exact, full, n, 600, /*with_defense=*/false);
}

TEST(CensusScale, SampledReservoirGeNMatchesExactUnderDefense) {
  const int n = 48;
  cc::TroubledCensus exact(20.0, 0.25);
  cc::TroubledCensus full(20.0, 0.25);
  full.configure_sampling({.reservoir = static_cast<std::size_t>(n)});
  expect_census_lockstep(exact, full, n, 600, /*with_defense=*/true);
}

TEST(CensusScale, DefaultReservoirAggregatesMatchBruteForce) {
  // The default census against a from-scratch recomputation of every
  // aggregate: min_interval, each troubled flag, the count, and srtt_max
  // over the srtts this test fed in.
  const int n = 40;
  const double eta = 20.0;
  cc::TroubledCensus c(eta, 0.25);
  std::vector<double> fed(n, 0.0);
  for (int i = 0; i < n; ++i) {
    c.add_receiver();
    fed[static_cast<std::size_t>(i)] = 0.1 + 0.001 * i;
    c.note_srtt(i, fed[static_cast<std::size_t>(i)]);
  }
  std::uint64_t x = 42;
  double t = 1.0;
  for (int s = 0; s < 1500; ++s) {
    t += 0.01;
    const int i = static_cast<int>(lcg(x) % n);
    switch (lcg(x) % 10) {
      case 0:
      case 1:
        fed[static_cast<std::size_t>(i)] =
            0.05 + 0.001 * static_cast<double>(lcg(x) % 400);
        c.note_srtt(i, fed[static_cast<std::size_t>(i)]);
        break;
      case 2:
        c.exclude(i);
        break;
      case 3:
        c.readmit(i);
        break;
      case 4:
        c.force_quarantine(i, t);
        break;
      case 5:
        (void)c.advance_states(t);
        break;
      default:
        c.on_signal(i, t);
        break;
    }
    const int got = c.recompute(t);

    double min_int = -1.0;
    double srtt_max = 0.0;
    for (int j = 0; j < n; ++j) {
      const double e = c.effective_interval(j, t);
      if (e >= 0.0 && (min_int < 0.0 || e < min_int)) min_int = e;
      if (!c.excluded(j))
        srtt_max = std::max(srtt_max, fed[static_cast<std::size_t>(j)]);
    }
    ASSERT_EQ(c.min_interval(t), min_int) << "step " << s;
    int troubled = 0;
    for (int j = 0; j < n; ++j) {
      const double e = c.effective_interval(j, t);
      const bool want =
          min_int >= 0.0 && !c.excluded(j) && e >= 0.0 && e <= eta * min_int;
      ASSERT_EQ(c.troubled(j), want) << "step " << s << " rcvr " << j;
      troubled += want ? 1 : 0;
    }
    ASSERT_EQ(got, troubled) << "step " << s;
    ASSERT_EQ(c.num_troubled(), troubled);
    ASSERT_EQ(c.srtt_max(), srtt_max) << "step " << s;
  }
}

TEST(CensusScale, DefaultReservoirTracksExactlyTheActiveSet) {
  cc::TroubledCensus c(20.0, 0.25);
  cc::CensusDefenseParams d;
  d.enabled = true;
  d.min_signals = 2;
  c.set_defense(d);
  std::uint64_t x = 7;
  double t = 1.0;
  for (int s = 0; s < 3000; ++s) {
    t += 0.05;
    const int n = static_cast<int>(c.receiver_count());
    const int i = n > 0 ? static_cast<int>(lcg(x) % n) : 0;
    switch (n < 4 ? 0 : lcg(x) % 8) {
      case 0:
        c.add_receiver();
        break;
      case 1:
        c.exclude(i);
        break;
      case 2:
        c.readmit(i);
        break;
      case 3:
        c.force_quarantine(i, t);
        break;
      case 4:
        (void)c.advance_states(t);
        break;
      default:
        // Fast signallers trip the rate defense's own quarantines.
        c.on_signal(i % 3, t);
        c.on_signal(i, t);
        break;
    }
    int active = 0;
    for (int j = 0; j < static_cast<int>(c.receiver_count()); ++j) {
      ASSERT_EQ(c.tracked(j), !c.excluded(j)) << "step " << s << " rcvr " << j;
      active += c.excluded(j) ? 0 : 1;
    }
    ASSERT_EQ(c.active_count(), active);
  }
  EXPECT_GT(c.quarantines(), 0u);
}

TEST(CensusScale, BoundedReservoirMatchesAFreshRebuild) {
  // Incremental joins, leaves and rejoins (evictions, appends and O(N)
  // refills) must leave the same bottom-k sample as rebuilding it from the
  // final membership.
  const std::size_t k = 16;
  cc::CensusCore core(0.25);
  cc::SampleReservoir r;
  r.configure(k, core);
  int active = 0;
  std::uint64_t x = 99;
  for (int s = 0; s < 2000; ++s) {
    const int n = static_cast<int>(core.size());
    const int i = n > 0 ? static_cast<int>(lcg(x) % n) : 0;
    const auto u = static_cast<std::size_t>(i);
    switch (n < 8 ? 0 : lcg(x) % 3) {
      case 0:
        r.insert(core.add(), core);
        ++active;
        break;
      case 1:
        if (core.excluded(i)) break;
        core.state[u] = cc::MemberState::kExcluded;
        r.erase(i, core, --active);
        break;
      default:
        if (!core.excluded(i)) break;
        core.state[u] = cc::MemberState::kActive;
        ++active;
        r.insert(i, core);
        break;
    }
    cc::SampleReservoir fresh;
    fresh.configure(k, core);
    ASSERT_EQ(r.sample(), fresh.sample()) << "step " << s;
    ASSERT_EQ(r.sample().size(), std::min(k, static_cast<std::size_t>(active)));
    ASSERT_TRUE(std::is_sorted(r.sample().begin(), r.sample().end()));
  }
}

TEST(CensusScale, SmallReservoirBoundsNumTroubleError) {
  // f = 1/5 of 5000 members signal 100x faster than the rest; they are the
  // troubled set.  The bottom-k estimate scales the sampled troubled count
  // by active/sample, with relative standard error ~ sqrt((1-f)/(f*k)).
  const int n = 5000;
  const int k = 256;
  const double f = 0.2;
  cc::TroubledCensus exact(20.0, 0.25);
  cc::TroubledCensus sampled(20.0, 0.25);
  sampled.configure_sampling({.reservoir = static_cast<std::size_t>(k)});
  for (int i = 0; i < n; ++i) {
    exact.add_receiver();
    sampled.add_receiver();
  }
  const int fast_stride = static_cast<int>(1.0 / f);
  for (double t = 1.0; t < 21.0; t += 0.1) {
    for (int i = 0; i < n; ++i) {
      const bool fast = (i % fast_stride) == 0;
      // Fast members signal every 0.1 s, slow members every 10 s.
      const bool due =
          fast || std::fmod(t - 1.0, 10.0) < 0.05;
      if (!due) continue;
      exact.on_signal(i, t);
      sampled.on_signal(i, t);
    }
  }
  const int t_exact = exact.recompute(21.0);
  const int t_sampled = sampled.recompute(21.0);
  ASSERT_GT(t_exact, 0);
  ASSERT_GT(t_sampled, 0);
  const double rel_err =
      std::abs(static_cast<double>(t_sampled - t_exact)) /
      static_cast<double>(t_exact);
  const double stderr_bound = std::sqrt((1.0 - f) / (f * k));  // ~0.125
  EXPECT_LT(rel_err, 4.0 * stderr_bound)
      << "exact=" << t_exact << " sampled=" << t_sampled;
}

TEST(CensusScale, SlimCensusMemoryIsSublinear) {
  // Only reservoir members and signallers get wide-stat slots: census
  // memory is O(reservoir + signallers), not O(N).
  const int n = 20000;
  cc::TroubledCensus exact(20.0, 0.25);
  cc::TroubledCensus sampled(20.0, 0.25);
  sampled.configure_sampling({.reservoir = 128});
  for (int i = 0; i < n; ++i) {
    exact.add_receiver();
    sampled.add_receiver();
    exact.note_srtt(i, 0.1);
    sampled.note_srtt(i, 0.1);
  }
  // A handful of members signal; everyone else stays cheap.
  for (int i = 0; i < 10; ++i) {
    exact.on_signal(i, 1.0 + i);
    sampled.on_signal(i, 1.0 + i);
  }
  EXPECT_LT(sampled.state_bytes() * 4, exact.state_bytes())
      << "sampled=" << sampled.state_bytes()
      << " exact=" << exact.state_bytes();
}

// --- rla::ReceiverTable tracked slots -------------------------------------

cc::RttEstimatorParams rtt_params() { return cc::RttEstimatorParams{}; }

TEST(SlimTable, UntrackedMembersShareTheFallbackEstimator) {
  rla::ReceiverTable t(rtt_params());
  for (int i = 0; i < 3; ++i) t.add(1, 10, 0, 0.0);
  EXPECT_FALSE(t.tracked(0));
  EXPECT_FALSE(t.tracked(1));
  t.rtt_add_sample(0, 0.5);
  // 0's sample landed in the shared estimator, so 1 reports it too.
  EXPECT_EQ(t.rtt(0).srtt(), t.rtt(1).srtt());
  EXPECT_DOUBLE_EQ(t.rtt(1).srtt(), 0.5);
}

TEST(SlimTable, TrackedMemberGetsItsOwnEstimatorSeededFromFallback) {
  rla::ReceiverTable t(rtt_params());
  for (int i = 0; i < 3; ++i) t.add(1, 10, 0, 0.0);
  t.rtt_add_sample(0, 0.5);  // population estimate: 0.5
  t.ensure_tracked(2);
  EXPECT_TRUE(t.tracked(2));
  // Seeded from the fallback, then diverges on its own samples.
  EXPECT_DOUBLE_EQ(t.rtt(2).srtt(), 0.5);
  t.rtt_add_sample(2, 2.0);
  EXPECT_GT(t.rtt(2).srtt(), 0.5);
  EXPECT_DOUBLE_EQ(t.rtt(0).srtt(), 0.5);  // fallback untouched by 2
}

TEST(SlimTable, GrouperAccessAndMaterializeAllocateTrackedSlots) {
  rla::ReceiverTable t(rtt_params());
  for (int i = 0; i < 4; ++i) t.add(1, 10, 0, 0.0);
  (void)t.grouper(1);
  EXPECT_TRUE(t.tracked(1));
  t.materialize(2);
  EXPECT_TRUE(t.tracked(2));
  EXPECT_FALSE(t.tracked(3));
  EXPECT_EQ(t.tracked_count(), 2u);
}

TEST(SlimTable, AllTrackedMatchesPerMemberEstimators) {
  // With every member tracked, each estimator and the max-rto aggregate
  // must match a test-owned cc::RttEstimator per member, through samples,
  // backoff resets, timeout collapses, leaves, rejoins and late joins.
  cc::TroubledCensus census(20.0, 0.25);
  rla::ReceiverTable table(rtt_params());
  std::vector<cc::RttEstimator> ref;
  const auto join = [&] {
    const int i = census.add_receiver();
    table.add(1, 10, 0, 0.0);
    table.ensure_tracked(i);
    ref.emplace_back(rtt_params());
  };
  for (int i = 0; i < 16; ++i) join();
  std::uint64_t x = 123;
  for (int s = 0; s < 800; ++s) {
    const int n = static_cast<int>(ref.size());
    const int i = static_cast<int>(lcg(x) % static_cast<std::uint64_t>(n));
    const auto u = static_cast<std::size_t>(i);
    switch (lcg(x) % 8) {
      case 0:
      case 1: {
        const double sample = 0.05 + 0.01 * static_cast<double>(lcg(x) % 50);
        table.rtt_add_sample(i, sample);
        ref[u].add_sample(sample);
        break;
      }
      case 2:
        table.rtt_reset_backoff(i);
        ref[u].reset_backoff();
        break;
      case 3:
        table.rtt_back_off_all(census);
        for (int j = 0; j < n; ++j)
          if (!census.excluded(j)) ref[static_cast<std::size_t>(j)].back_off();
        break;
      case 4:
        census.exclude(i);
        break;
      case 5:
        census.readmit(i);
        break;
      case 6:
        if (n < 48) join();
        break;
      default:
        break;
    }
    double want = 0.0;
    for (int j = 0; j < static_cast<int>(ref.size()); ++j)
      if (!census.excluded(j))
        want = std::max(want, ref[static_cast<std::size_t>(j)].rto());
    ASSERT_EQ(table.max_rto(census), want) << "step " << s;
    for (int j = 0; j < static_cast<int>(ref.size()); ++j) {
      ASSERT_EQ(table.rtt(j).srtt(), ref[static_cast<std::size_t>(j)].srtt());
      ASSERT_EQ(table.rtt(j).rto(), ref[static_cast<std::size_t>(j)].rto())
          << "step " << s << " rcvr " << j;
    }
  }
}

TEST(SlimTable, LateJoinerStartsFreshAfterCollapses) {
  // Two timeout collapses back off every tracked member; with no untracked
  // active member the shared fallback must not back off with them, or a
  // member tracked at a later join would start at initial_rto * 4.
  cc::TroubledCensus census(20.0, 0.25);
  rla::ReceiverTable t(rtt_params());
  for (int i = 0; i < 2; ++i) {
    census.add_receiver();
    t.add(1, 10, 0, 0.0);
    t.ensure_tracked(i);
  }
  t.rtt_back_off_all(census);
  t.rtt_back_off_all(census);
  EXPECT_DOUBLE_EQ(t.rtt(0).rto(), 4.0 * rtt_params().initial_rto);
  census.add_receiver();
  t.add(1, 10, 0, 1.0);
  t.ensure_tracked(2);
  EXPECT_DOUBLE_EQ(t.rtt(2).rto(), rtt_params().initial_rto);
}

TEST(SlimTable, MaxRtoCountsFallbackOnlyWhileUntrackedMembersExist) {
  cc::TroubledCensus census(20.0, 0.25);
  rla::ReceiverTable t(rtt_params());
  for (int i = 0; i < 3; ++i) {
    census.add_receiver();
    t.add(1, 10, 0, 0.0);
  }
  t.ensure_tracked(0);
  t.rtt_add_sample(0, 0.1);
  // 1 and 2 are untracked; 1's huge sample lands in the shared fallback,
  // which speaks for both of them in the aggregate: it must win.
  t.rtt_add_sample(1, 8.0);
  const double fallback_rto = t.rtt(2).rto();  // untracked view == fallback
  const double with_untracked = t.max_rto(census);
  EXPECT_GE(with_untracked, fallback_rto);
  // Once no ACTIVE member is untracked the fallback speaks for nobody and
  // the aggregate is over the tracked members only.
  census.exclude(1);
  census.exclude(2);
  EXPECT_DOUBLE_EQ(t.max_rto(census), t.rtt(0).rto());
  EXPECT_LT(t.max_rto(census), with_untracked);
}

TEST(SlimTable, StateBytesAreSublinearInMembership) {
  const int n = 10000;
  rla::ReceiverTable all(rtt_params());
  rla::ReceiverTable few(rtt_params());
  for (int i = 0; i < n; ++i) {
    all.add(1, 10, 0, 0.0);
    all.ensure_tracked(i);
    few.add(1, 10, 0, 0.0);
  }
  for (int i = 0; i < 32; ++i) few.ensure_tracked(i);
  EXPECT_EQ(few.tracked_count(), 32u);
  EXPECT_LT(few.state_bytes() * 3, all.state_bytes())
      << "few=" << few.state_bytes() << " all=" << all.state_bytes();
}

}  // namespace
}  // namespace rlacast
