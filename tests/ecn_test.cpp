// ECN tests: RED marking semantics, TCP's response to echoed CE, and the
// RLA treating marks as loss-free congestion signals.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "net/red.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace rlacast {
namespace {

net::RedParams ecn_red() {
  net::RedParams p;
  p.capacity = 20;
  p.min_th = 5;
  p.max_th = 15;
  p.ecn = true;
  return p;
}

TEST(RedEcn, EarlyDecisionMarksInsteadOfDropping) {
  net::RedQueue q(ecn_red(), sim::Rng(3));
  net::Packet p;
  p.ect = true;
  // Hold backlog around 10 (inside the early-drop band).
  while (q.length() < 10) q.enqueue(p, 0.0);
  for (int i = 0; i < 5000; ++i) {
    q.enqueue(p, 0.0);
    while (q.length() > 10) q.dequeue(0.0);
  }
  EXPECT_GT(q.ecn_marks(), 0u);
  EXPECT_EQ(q.early_drops(), 0u);  // every early decision became a mark
}

TEST(RedEcn, NonEctPacketsStillDrop) {
  net::RedQueue q(ecn_red(), sim::Rng(3));
  net::Packet p;  // ect = false
  while (q.length() < 10) q.enqueue(p, 0.0);
  for (int i = 0; i < 5000; ++i) {
    q.enqueue(p, 0.0);
    while (q.length() > 10) q.dequeue(0.0);
  }
  EXPECT_GT(q.early_drops(), 0u);
  EXPECT_EQ(q.ecn_marks(), 0u);
}

TEST(RedEcn, MarkedPacketCarriesCeBit) {
  net::RedParams params = ecn_red();
  params.w_q = 0.5;  // fast estimator to get into the band quickly
  net::RedQueue q(params, sim::Rng(3));
  net::Packet p;
  p.ect = true;
  for (int i = 0; i < 200; ++i) {
    q.enqueue(p, 0.0);
    if (q.length() > 12) q.dequeue(0.0);
  }
  // Drain and look for CE-marked packets.
  bool saw_ce = false;
  while (auto out = q.dequeue(0.0))
    if (out->ce) saw_ce = true;
  EXPECT_TRUE(saw_ce);
}

TEST(RedEcn, ForcedDropsStillDropEvenForEct) {
  net::RedParams params = ecn_red();
  params.w_q = 0.9;
  net::RedQueue q(params, sim::Rng(3));
  net::Packet p;
  p.ect = true;
  for (int i = 0; i < 100; ++i) q.enqueue(p, 0.0);  // push avg past max_th
  EXPECT_GT(q.forced_drops() + q.overflow_drops(), 0u);
}

/// Single TCP with ECN through an ECN RED bottleneck: congestion control
/// works with (nearly) zero data loss.
TEST(TcpEcn, CongestionControlWithoutLoss) {
  sim::Simulator sim(11);
  net::Network net(sim);
  const auto s = net.add_node(), g = net.add_node(), r = net.add_node();
  net::LinkConfig bttl;
  bttl.bandwidth_bps = 200 * 8000.0;
  bttl.delay = 0.02;
  bttl.queue = net::QueueKind::kRed;
  bttl.red.ecn = true;
  net.connect(s, g, bttl);
  net::LinkConfig fast;
  fast.bandwidth_bps = 1e9;
  fast.delay = 0.02;
  net.connect(g, r, fast);
  net.build_routes();

  tcp::TcpParams p;
  p.ecn = true;
  tcp::TcpReceiver rcv(net, r, 1);
  tcp::TcpSender snd(net, s, 1, r, 1, 1, p);
  snd.start_at(0.0);
  sim.at(20.0, [&] { snd.measurement().begin_measurement(sim.now()); });
  sim.run_until(120.0);

  const auto& m = snd.measurement();
  EXPECT_GT(m.throughput_pps(120.0), 150.0);  // fills the bottleneck
  EXPECT_GT(m.window_cuts(), 10u);            // cuts happened...
  EXPECT_EQ(m.timeouts(), 0u);                // ...but never via timeout
  // The bottleneck marked instead of dropping (data path):
  auto* q = static_cast<net::RedQueue*>(&net.link_between(s, g)->queue());
  EXPECT_GT(q->ecn_marks(), 10u);
  EXPECT_EQ(q->early_drops(), 0u);
}

/// RLA with ECN: marks from receivers enter the random-listening decision.
TEST(RlaEcn, MarksActAsCongestionSignals) {
  sim::Simulator sim(13);
  net::Network net(sim);
  const auto s = net.add_node(), hub = net.add_node();
  net::LinkConfig bttl;
  bttl.bandwidth_bps = 200 * 8000.0;
  bttl.delay = 0.02;
  bttl.queue = net::QueueKind::kRed;
  bttl.red.ecn = true;
  net.connect(s, hub, bttl);
  std::vector<net::NodeId> leaves;
  net::LinkConfig fast;
  fast.bandwidth_bps = 1e9;
  fast.delay = 0.02;
  for (int i = 0; i < 3; ++i) {
    leaves.push_back(net.add_node());
    net.connect(hub, leaves.back(), fast);
  }
  net.build_routes();

  rla::RlaParams p;
  p.ecn = true;
  rla::RlaSession session(net, s, /*group=*/1, /*port=*/1, /*flow=*/99, p);
  for (const auto leaf : leaves) session.add_receiver(leaf, /*port=*/1);
  rla::RlaSender& snd = session.sender();
  snd.start_at(0.0);
  sim.at(20.0, [&] { snd.measurement().begin_measurement(sim.now()); });
  sim.run_until(120.0);

  const auto& m = snd.measurement();
  EXPECT_GT(m.throughput_pps(120.0), 150.0);
  EXPECT_GT(m.congestion_signals(), 20u);  // mark-driven signals
  EXPECT_GT(m.window_cuts(), 5u);
  // Shared bottleneck: all receivers signal, so all are troubled.
  EXPECT_EQ(snd.num_trouble_rcvr(), 3);
  // Virtually no retransmissions: congestion was signalled by marks.
  EXPECT_LT(snd.multicast_rexmits() + snd.unicast_rexmits(),
            m.congestion_signals() / 4 + 3);
}

}  // namespace
}  // namespace rlacast
