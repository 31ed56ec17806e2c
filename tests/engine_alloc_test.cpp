// Zero-allocation guarantees of the event engine and packet pipeline.
//
// This binary replaces the global operator new/delete with counting
// wrappers, warms each subsystem past its growth phase (slab, heap, packet
// rings), and then asserts that a steady-state window — timer re-arms, link
// traffic, multicast fan-out, a TCP connection's send/ACK loop — performs
// literally zero heap allocations.  The counter is per-binary, which is why
// this test lives in its own file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/network.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace {
std::uint64_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rlacast {
namespace {

class CountingSink final : public net::Agent {
 public:
  void on_receive(const net::Packet&) override { ++received; }
  std::uint64_t received = 0;
};

TEST(EngineAlloc, SteadyStateTimerChurnAllocatesNothing) {
  sim::Simulator sim;
  int fires = 0;
  sim::Timer t(sim, [&] { ++fires; });
  // Warm-up: grow the slab and heap, exercise arm, in-place reschedule,
  // fire, and slot reuse once each.
  for (int i = 0; i < 8; ++i) {
    t.schedule(1.0);
    t.schedule(2.0);
    sim.run_all();
  }

  const std::uint64_t before = g_news;
  for (int i = 0; i < 10000; ++i) {
    t.schedule(1.0);  // arm (slot reuse)
    t.schedule(2.0);  // in-place retarget
    sim.run_all();    // fire
  }
  EXPECT_EQ(g_news - before, 0u)
      << "timer arm/reschedule/fire cycle hit the heap";
  EXPECT_EQ(fires, 8 + 10000);
}

TEST(EngineAlloc, SteadyStateLinkTrafficAllocatesNothing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1000 B -> 1 ms serialization
  cfg.delay = 0.01;
  cfg.buffer_pkts = 64;
  net.connect(a, b, cfg);
  net.build_routes();
  CountingSink sink;
  net.attach(b, 1, &sink);

  // CBR source at half the link rate, driven by a self-rescheduling timer —
  // the same shape as every periodic agent in the repository.
  net::SeqNum next_seq = 0;
  sim::Timer src(sim, [&] {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.dst_port = 1;
    p.seq = next_seq++;
    net.inject(p);
    src.schedule(0.002);
  });
  src.schedule(0.0);
  sim.run_until(0.5);  // warm-up: queue ring, pipe ring, slab, heap

  const std::uint64_t before = g_news;
  const std::uint64_t delivered_before = sink.received;
  sim.run_until(10.0);
  EXPECT_EQ(g_news - before, 0u) << "link pipeline hit the heap";
  EXPECT_GT(sink.received - delivered_before, 4000u);
}

TEST(EngineAlloc, SteadyStateMulticastFanOutAllocatesNothing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId s = net.add_node();
  const net::NodeId g = net.add_node();
  const net::NodeId r1 = net.add_node();
  const net::NodeId r2 = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = 0.01;
  cfg.buffer_pkts = 64;
  net.connect(s, g, cfg);
  net.connect(g, r1, cfg);
  net.connect(g, r2, cfg);
  net.build_routes();
  const net::GroupId group = 1;
  net.join_group(group, s, r1);
  net.join_group(group, s, r2);
  CountingSink sink1, sink2;
  net.subscribe(group, r1, &sink1);
  net.subscribe(group, r2, &sink2);

  net::SeqNum next_seq = 0;
  sim::Timer src(sim, [&] {
    net::Packet p;
    p.src = s;
    p.group = group;
    p.seq = next_seq++;
    net.inject(p);
    src.schedule(0.002);
  });
  src.schedule(0.0);
  sim.run_until(0.5);

  const std::uint64_t before = g_news;
  sim.run_until(10.0);
  EXPECT_EQ(g_news - before, 0u) << "multicast fan-out hit the heap";
  EXPECT_GT(sink1.received, 4000u);
  EXPECT_EQ(sink1.received, sink2.received);
}

TEST(EngineAlloc, SteadyStateTcpAckPathAllocatesNothing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1000 B -> 1 ms serialization
  cfg.delay = 0.01;
  cfg.buffer_pkts = 64;
  net.connect(a, b, cfg);
  net.build_routes();

  // A window-limited SACK connection: 16 packets in flight against a
  // ~21-packet bandwidth-delay product, so nothing queues or drops and
  // every ACK takes the steady in-order path (scoreboard send/advance,
  // receiver reassembly, RTT sampling, ACK pacing).
  tcp::TcpParams params;
  params.initial_cwnd = 16.0;
  params.max_cwnd = 16.0;
  tcp::TcpReceiver receiver(net, b, 1);
  tcp::TcpSender sender(net, a, 1, b, 1, /*flow=*/1, params);
  sender.start_at(0.0);
  sim.run_until(1.0);  // warm-up: scoreboard ring, pipe rings, slab, heap

  const std::uint64_t before = g_news;
  const std::uint64_t received_before = receiver.data_packets_received();
  sim.run_until(20.0);
  const std::uint64_t received =
      receiver.data_packets_received() - received_before;
  EXPECT_EQ(g_news - before, 0u)
      << "TCP send/ACK loop hit the heap over " << received << " packets";
  EXPECT_GT(received, 10000u);
}

TEST(EngineAlloc, SteadyStateRlaAckPathAllocatesNothing) {
  sim::Simulator sim{1};
  net::Network net{sim};
  const net::NodeId s = net.add_node();
  const net::NodeId g = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1000 B -> 1 ms serialization
  cfg.delay = 0.01;
  cfg.buffer_pkts = 64;
  net.connect(s, g, cfg);
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < 3; ++i) {
    leaves.push_back(net.add_node());
    net.connect(g, leaves.back(), cfg);
  }
  net.build_routes();

  // A window-limited session, as the TCP case above: 16 packets in flight
  // against a ~41-packet bandwidth-delay product, so every ACK takes the
  // healthy path — per-packet send records, coverage marks and RTT
  // samples, the reach-all advance, and the receivers' reassembly.
  rla::RlaParams params;
  params.initial_cwnd = 16.0;
  params.max_cwnd = 16.0;
  rla::RlaSession session(net, s, /*group=*/1, /*port=*/1, /*flow=*/1,
                          params);
  for (const net::NodeId leaf : leaves) session.add_receiver(leaf, 1);
  session.start_at(0.0);
  sim.run_until(1.0);  // warm-up: send-record ring, boards, pipes, heap

  const std::uint64_t before = g_news;
  const std::uint64_t acks_before = session.sender().acks_received();
  const net::SeqNum sent_before = session.sender().next_seq();
  sim.run_until(20.0);
  const net::SeqNum sent = session.sender().next_seq() - sent_before;
  EXPECT_EQ(g_news - before, 0u)
      << "RLA send/ACK loop hit the heap over " << sent << " packets";
  EXPECT_GT(sent, 5000);
  EXPECT_GT(session.sender().acks_received() - acks_before,
            3u * static_cast<std::uint64_t>(sent) - 100u);
}

}  // namespace
}  // namespace rlacast
