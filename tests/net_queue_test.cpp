// Drop-tail queue unit tests: FIFO order, capacity enforcement and
// statistics.
#include <gtest/gtest.h>

#include "net/drop_tail.hpp"

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

}  // namespace
}  // namespace rlacast::net
