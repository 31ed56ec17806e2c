// Drop-tail queue unit tests: FIFO order, capacity enforcement and
// statistics — and, for both disciplines, the admission-only offer a link
// makes when its transmitter is free.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "net/drop_tail.hpp"
#include "net/red.hpp"
#include "sim/random.hpp"

namespace rlacast::net {
namespace {

Packet pkt(SeqNum seq, FlowId flow = 1) {
  Packet p;
  p.seq = seq;
  p.flow = flow;
  return p;
}

TEST(DropTail, FifoOrder) {
  DropTailQueue q(10);
  for (SeqNum s = 0; s < 5; ++s) EXPECT_TRUE(q.enqueue(pkt(s), 0.0));
  for (SeqNum s = 0; s < 5; ++s) {
    auto p = q.dequeue(0.0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, s);
  }
  EXPECT_FALSE(q.dequeue(0.0).has_value());
}

TEST(DropTail, DropsWhenFull) {
  DropTailQueue q(3);
  EXPECT_TRUE(q.enqueue(pkt(0), 0.0));
  EXPECT_TRUE(q.enqueue(pkt(1), 0.0));
  EXPECT_TRUE(q.enqueue(pkt(2), 0.0));
  EXPECT_FALSE(q.enqueue(pkt(3), 0.0));
  EXPECT_EQ(q.length(), 3u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 3u);
}

TEST(DropTail, SpaceFreedAfterDequeue) {
  DropTailQueue q(1);
  EXPECT_TRUE(q.enqueue(pkt(0), 0.0));
  EXPECT_FALSE(q.enqueue(pkt(1), 0.0));
  q.dequeue(0.0);
  EXPECT_TRUE(q.enqueue(pkt(2), 0.0));
}

TEST(DropTail, DropRateAccounting) {
  DropTailQueue q(2);
  q.enqueue(pkt(0), 0.0);
  q.enqueue(pkt(1), 0.0);
  q.enqueue(pkt(2), 0.0);  // dropped
  q.enqueue(pkt(3), 0.0);  // dropped
  EXPECT_DOUBLE_EQ(q.stats().drop_rate(), 0.5);
}

TEST(DropTail, ZeroCapacityDropsEverything) {
  DropTailQueue q(0);
  EXPECT_FALSE(q.enqueue(pkt(0), 0.0));
  EXPECT_EQ(q.stats().dropped, 1u);
}

Packet sized(SeqNum seq, std::int32_t bytes) {
  Packet p;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

TEST(DropTailByteMode, DataPacketsBehaveLikePacketMode) {
  // With uniform full-size packets, byte accounting is identical to packet
  // accounting: 2 slots of 1000 bytes admit exactly 2 data packets.
  DropTailQueue q(2, /*slot_bytes=*/1000);
  EXPECT_TRUE(q.enqueue(sized(0, 1000), 0.0));
  EXPECT_TRUE(q.enqueue(sized(1, 1000), 0.0));
  EXPECT_FALSE(q.enqueue(sized(2, 1000), 0.0));
}

TEST(DropTailByteMode, AcksCostProportionallyLess) {
  // A 2-data-packet buffer holds fifty 40-byte ACKs: the burst of
  // simultaneous multicast ACKs that motivated byte accounting fits.
  DropTailQueue q(2, /*slot_bytes=*/1000);
  int accepted = 0;
  for (SeqNum s = 0; s < 60; ++s)
    if (q.enqueue(sized(s, 40), 0.0)) ++accepted;
  EXPECT_EQ(accepted, 50);
  EXPECT_EQ(q.bytes(), 2000);
}

TEST(DropTailByteMode, MixedSizesShareTheBytePool) {
  DropTailQueue q(2, /*slot_bytes=*/1000);
  EXPECT_TRUE(q.enqueue(sized(0, 1000), 0.0));
  EXPECT_TRUE(q.enqueue(sized(1, 40), 0.0));
  EXPECT_FALSE(q.enqueue(sized(2, 1000), 0.0));  // 1040 + 1000 > 2000
  EXPECT_TRUE(q.enqueue(sized(3, 900), 0.0));
}

TEST(DropTailByteMode, BytesTrackDequeues) {
  DropTailQueue q(4, /*slot_bytes=*/1000);
  q.enqueue(sized(0, 1000), 0.0);
  q.enqueue(sized(1, 40), 0.0);
  EXPECT_EQ(q.bytes(), 1040);
  q.dequeue(0.0);
  EXPECT_EQ(q.bytes(), 40);
  q.dequeue(0.0);
  EXPECT_EQ(q.bytes(), 0);
}

// A link offers a packet to its empty queue through pass_through() when the
// transmitter is free: the admission decision alone, the packet going on at
// once.  That must leave the queue exactly as storing the packet and
// popping it at the same instant does — the same verdicts and counters,
// RED's average (to the bit), count, draws and idle state — and put the
// same CE bit on the packet sent on.  Two queues of one configuration see
// the same random offers, pops and idle gaps; one takes the pass-through
// whenever it is empty and the coin says the transmitter is free, the other
// stores and pops.
struct PassCase {
  const char* name;
  bool red;
  std::size_t capacity;
  std::int32_t slot_bytes;  // 0 = packet mode
  bool ecn;
};

void PrintTo(const PassCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<Queue> make(const PassCase& c) {
  if (!c.red) return std::make_unique<DropTailQueue>(c.capacity, c.slot_bytes);
  RedParams p;
  p.capacity = c.capacity;
  p.min_th = 1.0;
  p.max_th = 4.0;
  p.w_q = 0.2;  // an average that moves within a few packets
  p.mean_pkt_time = 0.001;
  p.slot_bytes = c.slot_bytes;
  p.ecn = c.ecn;
  return std::make_unique<RedQueue>(p, sim::Rng(11));
}

class PassThrough : public ::testing::TestWithParam<PassCase> {};

TEST_P(PassThrough, MatchesStoreThenPop) {
  const std::unique_ptr<Queue> pass = make(GetParam());
  const std::unique_ptr<Queue> store = make(GetParam());
  sim::Rng rng(5);
  constexpr std::int32_t kSizes[] = {40, 500, 1000};
  sim::SimTime now = 0.0;
  int passed = 0;
  for (int step = 0; step < 20000; ++step) {
    now += 0.0005 * static_cast<double>(rng.uniform_int(0, 4));
    Packet p = pkt(step);
    p.size_bytes = kSizes[rng.uniform_int(0, 2)];
    p.ect = rng.chance(0.7);
    p.ce = rng.chance(0.1);  // marked upstream
    if (pass->length() == 0 && rng.chance(0.5)) {
      const Queue::Verdict v = pass->pass_through(p, now);
      ASSERT_EQ(v != Queue::Verdict::kDrop, store->enqueue(p, now))
          << "step " << step;
      if (v != Queue::Verdict::kDrop) {
        const std::optional<Packet> out = store->dequeue(now);
        ASSERT_TRUE(out.has_value());
        ASSERT_EQ(out->ce, p.ce || v == Queue::Verdict::kMark)
            << "step " << step;
        ++passed;
      }
    } else if (rng.chance(0.6)) {
      ASSERT_EQ(pass->enqueue(p, now), store->enqueue(p, now))
          << "step " << step;
    } else if (pass->length() != 0) {
      ASSERT_EQ(pass->front().seq, store->front().seq) << "step " << step;
      ASSERT_EQ(pass->front().ce, store->front().ce) << "step " << step;
      pass->pop(now);
      store->pop(now);
    }
    ASSERT_EQ(pass->snapshot_state(), store->snapshot_state())
        << "step " << step;
    ASSERT_EQ(pass->bytes(), store->bytes()) << "step " << step;
  }
  if (GetParam().capacity == 0) {
    EXPECT_EQ(pass->stats().enqueued, 0u);  // a zero buffer drops all
    return;
  }
  EXPECT_GT(passed, 200);
  EXPECT_GT(pass->stats().dropped, 100u);
  if (const auto* red = dynamic_cast<const RedQueue*>(pass.get())) {
    // The run reached every RED decision the pass-through can take.
    EXPECT_GT(red->early_drops() + red->ecn_marks(), 100u);
    EXPECT_GT(red->forced_drops(), 100u);
    if (GetParam().ecn) {
      EXPECT_GT(red->ecn_marks(), 100u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queues, PassThrough,
    ::testing::Values(PassCase{"droptail", false, 4, 0, false},
                      PassCase{"droptail_bytes", false, 3, 1000, false},
                      PassCase{"droptail_zero", false, 0, 0, false},
                      PassCase{"red_ecn", true, 8, 0, true},
                      PassCase{"red_bytes", true, 8, 1000, false}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace rlacast::net
