// Scoreboard tests: SACK application, the three-dup loss rule, pipe
// accounting, retransmission bookkeeping, and cumulative advance — plus a
// differential test against the ordered-map scoreboard the ring layout
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cc/scoreboard.hpp"
#include "sim/random.hpp"

namespace rlacast::cc {
namespace {

Scoreboard with_sent(int n) {
  Scoreboard sb;
  for (net::SeqNum s = 0; s < n; ++s) sb.on_send(s);
  return sb;
}

void sack_one(Scoreboard& sb, net::SeqNum s) {
  net::SackBlock b{s, s + 1};
  sb.apply_sack(&b, 1);
}

TEST(Scoreboard, AdvanceReturnsNewlyAcked) {
  Scoreboard sb = with_sent(10);
  EXPECT_EQ(sb.advance(4), 4);
  EXPECT_EQ(sb.una(), 4);
  EXPECT_EQ(sb.advance(4), 0);  // no regress, no double count
  EXPECT_EQ(sb.advance(2), 0);
}

TEST(Scoreboard, SackMarksAndCounts) {
  Scoreboard sb = with_sent(10);
  net::SackBlock b{3, 6};
  EXPECT_EQ(sb.apply_sack(&b, 1), 3);
  EXPECT_TRUE(sb.is_sacked(3));
  EXPECT_TRUE(sb.is_sacked(5));
  EXPECT_FALSE(sb.is_sacked(6));
  EXPECT_EQ(sb.apply_sack(&b, 1), 0);  // idempotent
  EXPECT_EQ(sb.sacked_count(), 3);
}

TEST(Scoreboard, LossRequiresDupthreshAbove) {
  Scoreboard sb = with_sent(10);
  sack_one(sb, 2);
  sack_one(sb, 3);
  EXPECT_EQ(sb.detect_losses(3), 0);  // only 2 SACKed above seq 0/1
  sack_one(sb, 4);
  EXPECT_EQ(sb.detect_losses(3), 2);  // seqs 0 and 1 now lost
  EXPECT_TRUE(sb.is_lost(0));
  EXPECT_TRUE(sb.is_lost(1));
  EXPECT_FALSE(sb.is_lost(5));
}

TEST(Scoreboard, LossDetectionCountsAllSackedAbove) {
  // The rule is "three above", not "three contiguous": a hole in the middle
  // still counts toward packets above lower holes.
  Scoreboard sb = with_sent(10);
  sack_one(sb, 1);
  sack_one(sb, 4);
  sack_one(sb, 7);
  EXPECT_EQ(sb.detect_losses(3), 1);  // only seq 0 has 3 SACKed above
  EXPECT_TRUE(sb.is_lost(0));
  EXPECT_FALSE(sb.is_lost(2));  // just 2 above (4, 7)
}

TEST(Scoreboard, NextToRetransmitIsLowestUnhandledLoss) {
  Scoreboard sb = with_sent(10);
  for (net::SeqNum s : {3, 4, 5}) sack_one(sb, s);
  sb.detect_losses(3);
  EXPECT_EQ(sb.next_to_retransmit(), 0);
  sb.on_retransmit(0);
  EXPECT_EQ(sb.next_to_retransmit(), 1);
  sb.on_retransmit(1);
  sb.on_retransmit(2);
  EXPECT_EQ(sb.next_to_retransmit(), net::kNoSeq);
}

TEST(Scoreboard, PipeConservation) {
  Scoreboard sb = with_sent(10);  // pipe = 10 outstanding
  EXPECT_EQ(sb.pipe(), 10);
  for (net::SeqNum s : {5, 6, 7}) sack_one(sb, s);
  EXPECT_EQ(sb.pipe(), 7);  // SACKed packets left the pipe
  sb.detect_losses(3);      // seqs 0..4 minus sacked -> 0,1,2,3,4 lost
  EXPECT_EQ(sb.pipe(), 2);  // lost & unretransmitted leave the pipe (9,8... no:
                            // remaining in pipe: 8, 9)
  sb.on_retransmit(0);
  EXPECT_EQ(sb.pipe(), 3);  // retransmission re-enters the pipe
}

TEST(Scoreboard, AdvanceClearsState) {
  Scoreboard sb = with_sent(10);
  for (net::SeqNum s : {4, 5, 6}) sack_one(sb, s);
  sb.detect_losses(3);
  sb.advance(7);
  EXPECT_EQ(sb.sacked_count(), 0);
  EXPECT_EQ(sb.lost_count(), 0);
  EXPECT_EQ(sb.pipe(), 3);
}

TEST(Scoreboard, SackOfLostPacketUndoesLoss) {
  Scoreboard sb = with_sent(10);
  for (net::SeqNum s : {4, 5, 6}) sack_one(sb, s);
  sb.detect_losses(3);
  ASSERT_TRUE(sb.is_lost(0));
  sack_one(sb, 0);  // late arrival: the "loss" was reordering
  EXPECT_EQ(sb.lost_count(), 3);  // 1,2,3 remain lost
  EXPECT_EQ(sb.next_to_retransmit(), 1);
}

TEST(Scoreboard, MarkAllLostForTimeout) {
  Scoreboard sb = with_sent(6);
  sack_one(sb, 4);
  sb.on_retransmit(0);
  sb.mark_all_lost();
  EXPECT_TRUE(sb.is_lost(0));
  EXPECT_FALSE(sb.was_retransmitted(0));  // cleared for go-back restart
  EXPECT_FALSE(sb.is_lost(4));            // SACKed survives
  EXPECT_EQ(sb.next_to_retransmit(), 0);
}

TEST(Scoreboard, ResetRestartsCleanly) {
  Scoreboard sb = with_sent(10);
  sb.reset(100);
  EXPECT_EQ(sb.una(), 100);
  EXPECT_EQ(sb.high(), 100);
  EXPECT_EQ(sb.outstanding(), 0);
  EXPECT_EQ(sb.pipe(), 0);
}

TEST(Scoreboard, ResetFreesPerPacketStorage) {
  Scoreboard sb = with_sent(1000);
  EXPECT_GE(sb.state_bytes(), sizeof(Scoreboard) + 1000);
  sb.reset(0);  // how a pooled board is parked
  EXPECT_EQ(sb.state_bytes(), sizeof(Scoreboard));
}

// The ordered-map scoreboard, kept as the reference the ring layout must
// match query for query: one map node of flags per outstanding packet,
// every query a tree search or an in-order walk.
class MapScoreboard {
 public:
  net::SeqNum una() const { return una_; }
  net::SeqNum high() const { return high_; }
  std::int64_t pipe() const { return pipe_; }
  std::int64_t sacked_count() const { return sacked_count_; }
  std::int64_t lost_count() const { return lost_count_; }
  std::int64_t rexmit_count() const { return rexmit_count_; }

  void on_send(net::SeqNum seq) {
    pkts_.emplace(seq, State{});
    high_ = seq + 1;
    ++pipe_;
  }

  void on_retransmit(net::SeqNum seq) {
    auto it = pkts_.find(seq);
    if (it == pkts_.end()) return;
    const bool was_in_pipe = in_pipe(it->second);
    if (!it->second.rexmitted) ++rexmit_count_;
    it->second.rexmitted = true;
    if (!was_in_pipe && in_pipe(it->second)) ++pipe_;
  }

  void clear_retransmitted(net::SeqNum seq) {
    auto it = pkts_.find(seq);
    if (it == pkts_.end()) return;
    const bool was_in_pipe = in_pipe(it->second);
    if (it->second.rexmitted) --rexmit_count_;
    it->second.rexmitted = false;
    if (was_in_pipe && !in_pipe(it->second)) --pipe_;
  }

  std::int64_t advance(net::SeqNum new_una) {
    if (new_una <= una_) return 0;
    const std::int64_t n = new_una - una_;
    auto it = pkts_.begin();
    while (it != pkts_.end() && it->first < new_una) {
      if (it->second.sacked) --sacked_count_;
      if (it->second.lost && !it->second.sacked) --lost_count_;
      if (it->second.rexmitted) --rexmit_count_;
      if (in_pipe(it->second)) --pipe_;
      it = pkts_.erase(it);
    }
    una_ = new_una;
    if (high_ < una_) high_ = una_;
    return n;
  }

  int apply_sack(const net::SackBlock* blocks, int n_blocks) {
    int newly = 0;
    for (int b = 0; b < n_blocks; ++b) {
      const auto lo = pkts_.lower_bound(std::max(blocks[b].lo, una_));
      for (auto it = lo; it != pkts_.end() && it->first < blocks[b].hi; ++it) {
        if (it->second.sacked) continue;
        if (in_pipe(it->second)) --pipe_;
        it->second.sacked = true;
        ++sacked_count_;
        if (it->second.lost) --lost_count_;
        ++newly;
      }
    }
    return newly;
  }

  int detect_losses(int dupthresh) {
    int newly = 0;
    int sacked_above = 0;
    for (auto it = pkts_.rbegin(); it != pkts_.rend(); ++it) {
      if (it->second.sacked) {
        ++sacked_above;
        continue;
      }
      if (sacked_above >= dupthresh && !it->second.lost) {
        const bool was_in_pipe = in_pipe(it->second);
        it->second.lost = true;
        ++lost_count_;
        ++newly;
        if (was_in_pipe && !in_pipe(it->second)) --pipe_;
      }
    }
    return newly;
  }

  void mark_all_lost() {
    for (auto& [seq, st] : pkts_) {
      if (st.sacked) continue;
      const bool was_in_pipe = in_pipe(st);
      if (!st.lost) {
        st.lost = true;
        ++lost_count_;
      }
      if (st.rexmitted) --rexmit_count_;
      st.rexmitted = false;
      if (was_in_pipe && !in_pipe(st)) --pipe_;
    }
  }

  bool is_sacked(net::SeqNum seq) const {
    const auto it = pkts_.find(seq);
    return it != pkts_.end() && it->second.sacked;
  }
  bool is_lost(net::SeqNum seq) const {
    const auto it = pkts_.find(seq);
    return it != pkts_.end() && it->second.lost;
  }
  bool was_retransmitted(net::SeqNum seq) const {
    const auto it = pkts_.find(seq);
    return it != pkts_.end() && it->second.rexmitted;
  }

  net::SeqNum first_missing() const {
    net::SeqNum s = una_;
    while (s < high_ && is_sacked(s)) ++s;
    return s;
  }

  net::SeqNum next_to_retransmit() const {
    for (const auto& [seq, st] : pkts_)
      if (st.lost && !st.sacked && !st.rexmitted) return seq;
    return net::kNoSeq;
  }

  void reset(net::SeqNum next_seq) {
    *this = MapScoreboard{};
    una_ = high_ = next_seq;
  }

 private:
  struct State {
    bool sacked = false;
    bool lost = false;
    bool rexmitted = false;
  };
  static bool in_pipe(const State& st) {
    return !st.sacked && (!st.lost || st.rexmitted);
  }

  std::map<net::SeqNum, State> pkts_;
  net::SeqNum una_ = 0;
  net::SeqNum high_ = 0;
  std::int64_t sacked_count_ = 0;
  std::int64_t lost_count_ = 0;
  std::int64_t rexmit_count_ = 0;
  std::int64_t pipe_ = 0;
};

class ScoreboardDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

/// Every query of `sb` answers as the reference's does.
void expect_same(const Scoreboard& sb, const MapScoreboard& ref, int step) {
  ASSERT_EQ(sb.una(), ref.una()) << "step " << step;
  ASSERT_EQ(sb.high(), ref.high()) << "step " << step;
  ASSERT_EQ(sb.outstanding(), ref.high() - ref.una()) << "step " << step;
  ASSERT_EQ(sb.pipe(), ref.pipe()) << "step " << step;
  ASSERT_EQ(sb.sacked_count(), ref.sacked_count()) << "step " << step;
  ASSERT_EQ(sb.lost_count(), ref.lost_count()) << "step " << step;
  ASSERT_EQ(sb.rexmit_count(), ref.rexmit_count()) << "step " << step;
  ASSERT_EQ(sb.clean(), ref.sacked_count() == 0 && ref.lost_count() == 0 &&
                            ref.rexmit_count() == 0)
      << "step " << step;
  ASSERT_EQ(sb.first_missing(), ref.first_missing()) << "step " << step;
  ASSERT_EQ(sb.next_to_retransmit(), ref.next_to_retransmit())
      << "step " << step;
  for (net::SeqNum s = ref.una() - 2; s < ref.high() + 2; ++s) {
    ASSERT_EQ(sb.is_sacked(s), ref.is_sacked(s)) << "step " << step;
    ASSERT_EQ(sb.is_lost(s), ref.is_lost(s)) << "step " << step;
    ASSERT_EQ(sb.was_retransmitted(s), ref.was_retransmitted(s))
        << "step " << step;
  }
}

TEST_P(ScoreboardDifferential, RingMatchesMapOnEveryQuery) {
  sim::Rng rng(GetParam());
  Scoreboard sb;
  MapScoreboard ref;
  // A seq around the window: a little below una to a little above high,
  // so out-of-range arguments are exercised too.
  auto any_seq = [&] {
    return rng.uniform_int(ref.una() - 3, ref.high() + 3);
  };
  for (int step = 0; step < 6000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 99);
    if (op < 30) {
      const std::int64_t burst = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < burst; ++i) {
        sb.on_send(sb.high());
        ref.on_send(ref.high());
      }
    } else if (op < 55) {
      // One to three SACK blocks, possibly overlapping, stale or beyond high.
      net::SackBlock blocks[3];
      const int n = static_cast<int>(rng.uniform_int(1, 3));
      for (int b = 0; b < n; ++b) {
        const net::SeqNum lo = any_seq();
        blocks[b] = {lo, lo + rng.uniform_int(0, 6)};
      }
      ASSERT_EQ(sb.apply_sack(blocks, n), ref.apply_sack(blocks, n))
          << "step " << step;
    } else if (op < 65) {
      const net::SeqNum to = rng.uniform() < 0.1
                                 ? ref.high() + rng.uniform_int(0, 3)
                                 : ref.una() + rng.uniform_int(-1, 14);
      ASSERT_EQ(sb.advance(to), ref.advance(to)) << "step " << step;
    } else if (op < 78) {
      const int dupthresh = static_cast<int>(rng.uniform_int(1, 4));
      ASSERT_EQ(sb.detect_losses(dupthresh), ref.detect_losses(dupthresh))
          << "step " << step;
    } else if (op < 88) {
      // Mostly the sender's pick, sometimes an arbitrary seq.
      net::SeqNum seq = sb.next_to_retransmit();
      if (seq == net::kNoSeq || rng.uniform() < 0.3) seq = any_seq();
      sb.on_retransmit(seq);
      ref.on_retransmit(seq);
    } else if (op < 96) {
      const net::SeqNum seq = any_seq();
      sb.clear_retransmitted(seq);
      ref.clear_retransmitted(seq);
    } else {
      sb.mark_all_lost();
      ref.mark_all_lost();
    }

    expect_same(sb, ref, step);
    if (HasFatalFailure()) return;
  }
}

// detect_losses() stops its walk where earlier walks marked everything
// below.  Long recoveries exercise that: a window of up to ~200 packets
// whose holes stay open while SACKs keep arriving above them, loss
// detection after nearly every ACK (mostly at the usual dupthresh of 3),
// repairs, repairs presumed lost again, timeouts and board resets, all
// checked against the reference's full walk from the top.
TEST_P(ScoreboardDifferential, ResumedLossWalkMatchesFullWalk) {
  sim::Rng rng(GetParam() + 100);
  Scoreboard sb;
  MapScoreboard ref;
  for (int step = 0; step < 6000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 99);
    if (op < 30) {
      const std::int64_t burst = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < burst && ref.high() - ref.una() < 200; ++i) {
        sb.on_send(sb.high());
        ref.on_send(ref.high());
      }
    } else if (op < 70) {
      // An ACK: SACK blocks near the top of the window, sometimes anywhere,
      // then loss detection.
      net::SackBlock blocks[3];
      const int n = static_cast<int>(rng.uniform_int(1, 3));
      for (int b = 0; b < n; ++b) {
        const net::SeqNum lo =
            rng.uniform() < 0.8
                ? ref.high() - rng.uniform_int(0, 12)
                : rng.uniform_int(ref.una() - 2, ref.high() + 2);
        blocks[b] = {lo, lo + rng.uniform_int(1, 4)};
      }
      ASSERT_EQ(sb.apply_sack(blocks, n), ref.apply_sack(blocks, n))
          << "step " << step;
      const int dupthresh =
          rng.uniform() < 0.8 ? 3 : static_cast<int>(rng.uniform_int(1, 5));
      ASSERT_EQ(sb.detect_losses(dupthresh), ref.detect_losses(dupthresh))
          << "step " << step;
    } else if (op < 78) {
      // The cumulative point moves rarely and by little: holes stay open.
      const net::SeqNum to = ref.una() + rng.uniform_int(0, 6);
      ASSERT_EQ(sb.advance(to), ref.advance(to)) << "step " << step;
    } else if (op < 88) {
      const net::SeqNum seq = sb.next_to_retransmit();
      if (seq != net::kNoSeq) {
        sb.on_retransmit(seq);
        ref.on_retransmit(seq);
      }
    } else if (op < 96) {
      const net::SeqNum seq = rng.uniform_int(ref.una(), ref.high());
      sb.clear_retransmitted(seq);
      ref.clear_retransmitted(seq);
    } else if (op < 99) {
      sb.mark_all_lost();
      ref.mark_all_lost();
    } else {
      // A pooled board reused at a lower or higher sequence.
      const net::SeqNum at = std::max<net::SeqNum>(
          0, ref.una() + rng.uniform_int(-50, 50));
      sb.reset(at);
      ref.reset(at);
    }
    expect_same(sb, ref, step);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreboardDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace rlacast::cc
