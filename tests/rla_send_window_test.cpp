// rla::SendWindow against the map-based bookkeeping it replaced.
//
// MapWindow below is the historical per-packet state of the RLA sender: one
// std::map node per record, a cumulative walk from the lowest record on
// every ACK, and the active mask recomputed at every mark.  Both are driven
// with the same randomized operations — sends, ACKs whose cumulative point
// advances, repeats or goes stale, SACK blocks below the base and beyond the
// frontier, repair marks (some below the base: the subtree-graduation
// case), reach-all advances, and leave / excise / readmit / late join
// between ACKs — and must produce the same RTT samples (seq, time, value) in
// the same order and the same record for every lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "cc/troubled_census.hpp"
#include "rla/rla_params.hpp"
#include "rla/send_window.hpp"
#include "sim/ring.hpp"

namespace rlacast::rla {
namespace {

using net::SeqNum;

struct Sample {
  SeqNum seq;
  double time;
  double rtt;
  bool operator==(const Sample&) const = default;
};

class MapWindow {
 public:
  struct Info {
    double first_sent = 0.0;
    bool ever_rexmitted = false;
    double last_rexmit = -1e18;
    bool rexmitted_for_all = false;
    std::uint64_t acked_mask = 0;
    bool rtt_sampled = false;
  };

  void on_send(SeqNum seq, double now) { m_[seq] = Info{now, false, -1e18}; }
  Info* find(SeqNum seq) {
    const auto it = m_.find(seq);
    return it == m_.end() ? nullptr : &it->second;
  }
  Info& at(SeqNum seq) { return m_[seq]; }
  void drop_below(SeqNum seq) { m_.erase(m_.begin(), m_.lower_bound(seq)); }
  const std::map<SeqNum, Info>& records() const { return m_; }

  void cover(int idx, SeqNum cum, const net::SackBlock* sack, int n_sack,
             const cc::TroubledCensus& census, double now,
             std::vector<Sample>& out) {
    if (idx >= 64) return;
    const std::uint64_t bit = 1ULL << idx;
    for (auto it = m_.begin(); it != m_.end() && it->first < cum; ++it)
      mark_one(it->first, it->second, bit, census, now, out);
    for (int b = 0; b < n_sack; ++b)
      for (auto it = m_.lower_bound(sack[b].lo);
           it != m_.end() && it->first < sack[b].hi; ++it)
        mark_one(it->first, it->second, bit, census, now, out);
  }

 private:
  static std::uint64_t active_mask(const cc::TroubledCensus& census) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < census.receiver_count() && i < 64; ++i)
      if (!census.excluded(static_cast<int>(i))) m |= 1ULL << i;
    return m;
  }
  static void mark_one(SeqNum seq, Info& info, std::uint64_t bit,
                       const cc::TroubledCensus& census, double now,
                       std::vector<Sample>& out) {
    if (info.rtt_sampled) return;
    info.acked_mask |= bit;
    const std::uint64_t need = active_mask(census);
    if ((info.acked_mask & need) == need) {
      info.rtt_sampled = true;
      if (!info.ever_rexmitted) out.push_back({seq, now, now - info.first_sent});
    }
  }

  std::map<SeqNum, Info> m_;
};

testing::AssertionResult same_record(SeqNum seq, const SendInfo* got,
                                     const MapWindow::Info* want) {
  if ((got == nullptr) != (want == nullptr))
    return testing::AssertionFailure()
           << "seq " << seq << ": window "
           << (got ? "holds a record" : "holds none") << ", map "
           << (want ? "holds one" : "holds none");
  if (got == nullptr) return testing::AssertionSuccess();
  if (got->first_sent != want->first_sent ||
      got->last_rexmit != want->last_rexmit ||
      got->ever_rexmitted != want->ever_rexmitted ||
      got->rexmitted_for_all != want->rexmitted_for_all ||
      got->acked_mask != want->acked_mask ||
      got->rtt_sampled != want->rtt_sampled)
    return testing::AssertionFailure()
           << "seq " << seq << ": records differ (mask " << got->acked_mask
           << " vs " << want->acked_mask << ", sampled " << got->rtt_sampled
           << " vs " << want->rtt_sampled << ")";
  return testing::AssertionSuccess();
}

class SendWindowDiff : public testing::TestWithParam<int> {};

TEST_P(SendWindowDiff, RandomOperationsMatchTheMapWindow) {
  const int n = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed);
    std::mt19937_64 rng(seed * 1000 + static_cast<std::uint64_t>(n));
    const auto uni = [&rng](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    const RlaParams params;
    cc::TroubledCensus census(params.eta, params.signal_interval_gain);
    for (int i = 0; i < n; ++i) census.add_receiver();
    std::vector<SeqNum> cum(static_cast<std::size_t>(n), 0);

    SendWindow win;
    MapWindow ref;
    std::vector<Sample> got, want;
    SeqNum next = 0;
    SeqNum reach = 0;
    double now = 0.0;
    std::uint64_t membership_ops = 0, graduation_marks = 0;

    for (int op = 0; op < 6000; ++op) {
      SCOPED_TRACE(testing::Message() << "op " << op);
      now += 0.001 * static_cast<double>(uni(1, 20));
      const auto members = static_cast<int>(cum.size());
      const std::int64_t kind = uni(0, 99);
      if (kind < 25) {
        for (std::int64_t k = uni(1, 4); k > 0; --k, ++next) {
          win.on_send(next, now);
          ref.on_send(next, now);
        }
      } else if (kind < 75) {
        const int m = static_cast<int>(uni(0, members - 1));
        // The sender ignores ACKs of members out of the census.
        if (census.excluded(m)) continue;
        SeqNum& c = cum[static_cast<std::size_t>(m)];
        SeqNum ack = c;
        const std::int64_t shape = uni(0, 9);
        if (shape < 3)
          ack = c = next;  // caught up with the frontier
        else if (shape < 6)
          ack = c = std::min(next, c + uni(0, 6));
        else if (shape >= 8)
          ack = c - uni(1, 6);  // stale: reordered behind a newer ACK
        std::array<net::SackBlock, net::kMaxSackBlocks> sack{};
        const int n_sack = static_cast<int>(uni(0, net::kMaxSackBlocks));
        for (int b = 0; b < n_sack; ++b) {
          const SeqNum lo = uni(reach - 12, next + 4);
          sack[static_cast<std::size_t>(b)] = {lo, lo + uni(1, 8)};
        }
        win.cover(m, ack, sack.data(), n_sack, census, now,
                  [&](SeqNum seq, double rtt) {
                    got.push_back({seq, now, rtt});
                  });
        ref.cover(m, ack, sack.data(), n_sack, census, now, want);
      } else if (kind < 83) {
        // A repair asks for the record; below the base it is created there.
        if (next == 0) continue;
        const bool below = reach >= next || uni(0, 1) == 0;
        const SeqNum seq = std::max<SeqNum>(
            0, below ? uni(reach - 15, reach - 1) : uni(reach, next - 1));
        if (seq < reach) ++graduation_marks;
        SendInfo& a = win.at(seq);
        MapWindow::Info& b = ref.at(seq);
        const std::int64_t what = uni(0, 2);  // 0: rate-limited / unneeded
        if (what >= 1) {
          a.last_rexmit = b.last_rexmit = now;
          a.ever_rexmitted = b.ever_rexmitted = true;
        }
        if (what == 2) a.rexmitted_for_all = b.rexmitted_for_all = true;
      } else if (kind < 90) {
        // Mostly the sender's rule (the slowest active member's cumulative
        // point), sometimes a jump the cumulative points do not explain.
        SeqNum target = next;
        for (int i = 0; i < members; ++i)
          if (!census.excluded(i))
            target = std::min(target, cum[static_cast<std::size_t>(i)]);
        if (uni(0, 3) == 0) target = std::min(next, reach + uni(1, 8));
        if (target > reach) {
          reach = target;
          win.drop_below(reach);
          ref.drop_below(reach);
        }
      } else {
        ++membership_ops;
        const int m = static_cast<int>(uni(0, members - 1));
        const std::int64_t what = uni(0, 3);
        if (what == 0) {
          census.exclude(m);  // leave
        } else if (what == 1) {
          census.excise(m);
        } else if (what == 2) {
          // Graduation thaws the member at a point below the frontier.
          if (census.state(m) == cc::MemberState::kExcised) {
            census.readmit(m);
            cum[static_cast<std::size_t>(m)] =
                std::max<SeqNum>(0, uni(reach - 10, next));
          }
        } else {
          census.add_receiver();  // late join, at the send frontier
          cum.push_back(next);
        }
      }

      ASSERT_EQ(got.size(), want.size());
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
      for (SeqNum s = reach - 20; s < next + 2; ++s)
        ASSERT_TRUE(same_record(s, win.find(s), ref.find(s)));
      if (op % 64 == 0) {
        std::vector<SeqNum> held;
        win.for_each_from(reach - 20, [&held](SeqNum s, const SendInfo&) {
          held.push_back(s);
        });
        std::vector<SeqNum> ref_held;
        for (auto it = ref.records().lower_bound(reach - 20);
             it != ref.records().end(); ++it)
          ref_held.push_back(it->first);
        ASSERT_EQ(held, ref_held);
        ASSERT_EQ(win.size(), ref.records().size());
      }
    }
    // The run exercised what it claims to: samples, membership churn and
    // records created below the base.
    EXPECT_GT(want.size(), 20u);
    EXPECT_GT(membership_ops, 100u);
    EXPECT_GT(graduation_marks, 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(Members, SendWindowDiff,
                         testing::Values(3, 27, 64, 70));

TEST(SendWindow, RecordBelowTheBaseLeavesAbsentSlots) {
  SendWindow win;
  for (SeqNum s = 0; s < 10; ++s) win.on_send(s, 0.5);
  win.drop_below(8);
  ASSERT_EQ(win.size(), 2u);
  // The graduation case: a repair of seq 3 after the frontier passed it.
  win.at(3).ever_rexmitted = true;
  EXPECT_EQ(win.size(), 3u);
  EXPECT_NE(win.find(3), nullptr);
  for (SeqNum s = 4; s < 8; ++s) EXPECT_EQ(win.find(s), nullptr) << s;
  EXPECT_EQ(win.find(3)->first_sent, 0.0);
  std::vector<SeqNum> held;
  win.for_each_from(0, [&held](SeqNum s, const SendInfo&) {
    held.push_back(s);
  });
  EXPECT_EQ(held, (std::vector<SeqNum>{3, 8, 9}));
  win.drop_below(9);
  EXPECT_EQ(win.size(), 1u);
  EXPECT_EQ(win.find(3), nullptr);
}

TEST(SendWindow, RingStorageIsThirtyTwoBytesPerSlot) {
  SendWindow win;
  for (SeqNum s = 0; s < 100; ++s) win.on_send(s, 0.0);
  EXPECT_EQ(win.state_bytes(), 128 * sizeof(SendInfo));
  EXPECT_EQ(sizeof(SendInfo), 32u);
}

TEST(Ring, PushFrontWrapsAndGrows) {
  sim::Ring<int> r;
  r.push_back(1);
  r.push_front(0);  // wraps below slot 0
  r.push_back(2);
  r.push_front(-1);
  r.push_front(-2);  // grows past the initial four slots
  ASSERT_EQ(r.size(), 5u);
  for (std::size_t i = 0; i < r.size(); ++i)
    EXPECT_EQ(r[i], static_cast<int>(i) - 2);
  EXPECT_EQ(r.front(), -2);
  r.pop_front();
  EXPECT_EQ(r.front(), -1);
}

}  // namespace
}  // namespace rlacast::rla
