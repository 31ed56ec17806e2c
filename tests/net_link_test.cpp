// Link and network-delivery tests: serialization timing, propagation
// pipelining, queue backpressure, dispatches per hop, and the SendPacer
// overhead model.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/queue_monitor.hpp"

namespace rlacast::net {
namespace {

/// Records delivery times of packets it receives.
class SinkAgent final : public Agent {
 public:
  explicit SinkAgent(sim::Simulator& sim) : sim_(sim) {}
  void on_receive(const Packet& p) override {
    arrivals.push_back({p.seq, sim_.now()});
  }
  std::vector<std::pair<SeqNum, sim::SimTime>> arrivals;

 private:
  sim::Simulator& sim_;
};

struct Fixture {
  sim::Simulator sim{1};
  net::Network net{sim};
  NodeId a, b;
  SinkAgent sink{sim};

  explicit Fixture(double bw_bps = 8000.0, sim::SimTime delay = 0.1,
                   std::size_t buffer = 20) {
    a = net.add_node();
    b = net.add_node();
    LinkConfig cfg;
    cfg.bandwidth_bps = bw_bps;
    cfg.delay = delay;
    cfg.buffer_pkts = buffer;
    net.connect(a, b, cfg);
    net.build_routes();
    net.attach(b, 1, &sink);
  }

  Packet data(SeqNum s, std::int32_t bytes = 1000) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.dst_port = 1;
    p.seq = s;
    p.size_bytes = bytes;
    return p;
  }
};

TEST(Link, SinglePacketLatencyIsTxPlusPropagation) {
  // 1000 bytes at 8000 bit/s = 1 s serialization, +0.1 s propagation.
  Fixture f;
  f.net.inject(f.data(0));
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 1u);
  EXPECT_NEAR(f.sink.arrivals[0].second, 1.1, 1e-9);
}

TEST(Link, BackToBackPacketsSpacedByServiceTime) {
  Fixture f;
  f.net.inject(f.data(0));
  f.net.inject(f.data(1));
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 2u);
  EXPECT_NEAR(f.sink.arrivals[1].second - f.sink.arrivals[0].second, 1.0,
              1e-9);
}

TEST(Link, SmallerPacketsSerializeFaster) {
  Fixture f;
  f.net.inject(f.data(0, 100));  // 100 bytes -> 0.1 s
  f.sim.run_all();
  EXPECT_NEAR(f.sink.arrivals[0].second, 0.2, 1e-9);
}

TEST(Link, OverflowDropsAreCounted) {
  Fixture f(8000.0, 0.1, /*buffer=*/2);
  // First packet goes into service; next two queue; the rest drop.
  for (SeqNum s = 0; s < 6; ++s) f.net.inject(f.data(s));
  f.sim.run_all();
  EXPECT_EQ(f.sink.arrivals.size(), 3u);
  Link* l = f.net.link_between(f.a, f.b);
  EXPECT_EQ(l->queue().stats().dropped, 3u);
  EXPECT_EQ(l->packets_delivered(), 3u);
}

TEST(Link, DeliveryPreservesFifoOrder) {
  Fixture f;
  for (SeqNum s = 0; s < 5; ++s) f.net.inject(f.data(s));
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 5u);
  for (SeqNum s = 0; s < 5; ++s) EXPECT_EQ(f.sink.arrivals[size_t(s)].first, s);
}

TEST(Link, PropagationIsPipelined) {
  // With a long pipe, the second packet arrives one service time after the
  // first even though both are "in flight" simultaneously.
  Fixture f(80000.0, 1.0);  // tx = 0.1 s, delay = 1 s
  f.net.inject(f.data(0));
  f.net.inject(f.data(1));
  f.sim.run_all();
  EXPECT_NEAR(f.sink.arrivals[0].second, 1.1, 1e-9);
  EXPECT_NEAR(f.sink.arrivals[1].second, 1.2, 1e-9);
}

TEST(Link, SaturatedLinkDeliversAtExactServiceSpacing) {
  // Back-to-back saturation: 50 packets offered at once drain at exactly one
  // serialization time apart, with no drift from the pipeline refactor.
  Fixture f(8000.0, 0.1, /*buffer=*/100);
  for (SeqNum s = 0; s < 50; ++s) f.net.inject(f.data(s));
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 50u);
  for (SeqNum s = 0; s < 50; ++s) {
    EXPECT_EQ(f.sink.arrivals[size_t(s)].first, s);
    EXPECT_NEAR(f.sink.arrivals[size_t(s)].second,
                static_cast<double>(s + 1) * 1.0 + 0.1, 1e-9);
  }
  Link* l = f.net.link_between(f.a, f.b);
  EXPECT_EQ(l->packets_delivered(), 50u);
  EXPECT_EQ(l->bytes_delivered(), 50u * 1000u);
  EXPECT_EQ(l->drops(), 0u);
  EXPECT_EQ(l->in_flight(), 0u);
}

TEST(Link, FanOutBurstRidesTheInFlightRing) {
  // A fat, long hop feeding a two-way multicast fan-out: the whole burst is
  // serialized long before the first packet lands, so every packet sits in
  // the upstream link's propagation ring simultaneously.
  sim::Simulator sim{1};
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const NodeId c = net.add_node();
  const NodeId d = net.add_node();
  LinkConfig fat;
  fat.bandwidth_bps = 8e6;  // 1000 B -> 1 ms serialization
  fat.delay = 0.5;          // burst fully in flight before first delivery
  fat.buffer_pkts = 100;
  net.connect(a, b, fat);
  net.connect(b, c, fat);
  net.connect(b, d, fat);
  net.build_routes();
  const GroupId g = 7;
  net.join_group(g, a, c);
  net.join_group(g, a, d);
  SinkAgent sink_c{sim}, sink_d{sim};
  net.subscribe(g, c, &sink_c);
  net.subscribe(g, d, &sink_d);

  const SeqNum kBurst = 32;
  for (SeqNum s = 0; s < kBurst; ++s) {
    Packet p;
    p.src = a;
    p.group = g;
    p.seq = s;
    p.size_bytes = 1000;
    net.inject(p);
  }
  sim.run_all();

  for (SinkAgent* sink : {&sink_c, &sink_d}) {
    ASSERT_EQ(sink->arrivals.size(), static_cast<std::size_t>(kBurst));
    for (SeqNum s = 0; s < kBurst; ++s)
      EXPECT_EQ(sink->arrivals[size_t(s)].first, s);
  }
  Link* ab = net.link_between(a, b);
  // All 32 serialized within 32 ms, none delivered before 501 ms: the ring
  // must have held the entire burst at once.
  EXPECT_EQ(ab->in_flight_hiwater(), static_cast<std::size_t>(kBurst));
  for (Link* l : {ab, net.link_between(b, c), net.link_between(b, d)}) {
    EXPECT_EQ(l->packets_delivered(), static_cast<std::uint64_t>(kBurst));
    EXPECT_EQ(l->drops(), 0u);
    EXPECT_EQ(l->in_flight(), 0u);
  }
}

TEST(Link, DropCounterMatchesQueueStatsAndMonitor) {
  Fixture f(8000.0, 0.1, /*buffer=*/2);
  trace::QueueMonitor mon(f.sim, f.net.link_between(f.a, f.b)->queue(),
                          /*period=*/0.5, /*start=*/0.25, /*stop=*/4.0);
  // One in service + two queued; the other three bounce off the full buffer.
  for (SeqNum s = 0; s < 6; ++s) f.net.inject(f.data(s));
  f.sim.run_all();
  Link* l = f.net.link_between(f.a, f.b);
  EXPECT_EQ(l->drops(), 3u);
  EXPECT_EQ(l->drops(), l->queue().stats().dropped);
  EXPECT_EQ(l->packets_delivered(), l->queue().stats().dequeued);
  // The monitor watched the same queue: it must have seen the full buffer
  // while the backlog drained (2, then 1, then 0 at one-second spacing).
  EXPECT_EQ(mon.peak_backlog(), 2u);
  EXPECT_EQ(mon.samples().front().backlog, 2u);
  EXPECT_EQ(mon.samples().back().backlog, 0u);
}

TEST(Link, IdleHopCostsOneDispatch) {
  // Nothing waits behind the transmitter, so its end needs no event: the
  // arrival is the only dispatch.
  Fixture f;
  f.net.inject(f.data(0));
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 1u);
  EXPECT_EQ(f.sim.scheduler().dispatched(), 1u);
}

TEST(Link, BackToBackPacketsCostOneSerializerEndPerWaitingPacket) {
  // k packets offered at once: k arrivals plus the k - 1 serializer ends
  // that each start a waiting packet.  The last end finds the queue empty
  // and is never scheduled.
  for (SeqNum k : {1, 2, 5, 20}) {
    Fixture f(8000.0, 0.1, /*buffer=*/100);
    for (SeqNum s = 0; s < k; ++s) f.net.inject(f.data(s));
    f.sim.run_all();
    ASSERT_EQ(f.sink.arrivals.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(f.sim.scheduler().dispatched(),
              static_cast<std::uint64_t>(2 * k - 1));
  }
}

TEST(Link, OfferAtTheSerializationEndWaitsForItsKey) {
  // Packet 0 serializes over [0, 1) s.  An offer at exactly 1 s from an
  // event ordered before the serializer end's key finds the transmitter
  // busy: the packet waits and the end becomes an event.  One ordered after
  // the key finds it free and starts at once.
  for (bool before : {true, false}) {
    Fixture f;
    auto offer = [&f] { f.net.inject(f.data(1)); };
    if (before) f.sim.at(1.0, offer);
    f.net.inject(f.data(0));
    if (!before) f.sim.at(1.0, offer);
    f.sim.run_all();
    ASSERT_EQ(f.sink.arrivals.size(), 2u);
    EXPECT_NEAR(f.sink.arrivals[1].second, 2.1, 1e-9);
    // The offer, two arrivals, and the serializer end only when it waited.
    EXPECT_EQ(f.sim.scheduler().dispatched(), before ? 4u : 3u);
  }
}

TEST(SendPacer, ZeroOverheadInjectsImmediately) {
  Fixture f;
  SendPacer pacer(f.sim, f.net, sim::Rng(1), 0.0);
  pacer.send(f.data(0));
  f.sim.run_all();
  EXPECT_NEAR(f.sink.arrivals[0].second, 1.1, 1e-9);
}

TEST(SendPacer, OverheadDelaysWithinBoundAndKeepsOrder) {
  Fixture f(8e6, 0.0, 10000);  // deep buffer: bursty departures never drop
  SendPacer pacer(f.sim, f.net, sim::Rng(2), 0.005);
  for (SeqNum s = 0; s < 50; ++s) pacer.send(f.data(s, 100));
  f.sim.run_all();
  ASSERT_EQ(f.sink.arrivals.size(), 50u);
  for (SeqNum s = 0; s < 50; ++s)
    EXPECT_EQ(f.sink.arrivals[size_t(s)].first, s);
}

}  // namespace
}  // namespace rlacast::net
