// Tests for the RlaSession convenience wrapper.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"

namespace rlacast {
namespace {

struct StarNet {
  sim::Simulator sim{1};
  net::Network net{sim};
  net::NodeId s, hub;
  std::vector<net::NodeId> leaves;

  explicit StarNet(int n, double leaf_pps = 0.0) {
    s = net.add_node();
    hub = net.add_node();
    net::LinkConfig fast;
    fast.bandwidth_bps = 1e9;
    fast.delay = 0.01;
    net.connect(s, hub, fast);
    for (int i = 0; i < n; ++i) {
      leaves.push_back(net.add_node());
      net::LinkConfig leg = fast;
      if (leaf_pps > 0) leg.bandwidth_bps = leaf_pps * 8000.0;
      net.connect(hub, leaves.back(), leg);
    }
    net.build_routes();
  }
};

TEST(RlaSession, WiresCompleteSession) {
  StarNet star(4);
  rla::RlaParams p;
  p.max_cwnd = 128;
  rla::RlaSession session(star.net, star.s, /*group=*/1, /*port=*/9001,
                          /*flow=*/9001, p);
  for (const auto leaf : star.leaves) session.add_receiver(leaf, 9001);
  EXPECT_EQ(session.receiver_count(), 4u);
  session.start_at(0.0);
  star.sim.run_until(2.0);
  EXPECT_GT(session.sender().max_reach_all(), 100);
  for (int i = 0; i < 4; ++i)
    EXPECT_GT(session.receiver(i).data_packets_received(), 100u);
}

TEST(RlaSession, TwoSessionsCoexistOnSharedNodes) {
  StarNet star(3, 400.0);
  // Distinct ports (shared nodes) and flows (distinct RNG streams).
  rla::RlaSession a(star.net, star.s, 1, /*port=*/9001, /*flow=*/9001);
  rla::RlaSession b(star.net, star.s, 2, /*port=*/9002, /*flow=*/9002);
  for (const auto leaf : star.leaves) {
    a.add_receiver(leaf, 9001);
    b.add_receiver(leaf, 9002);
  }
  a.start_at(0.0);
  b.start_at(0.2);
  star.sim.run_until(30.0);
  EXPECT_GT(a.sender().max_reach_all(), 500);
  EXPECT_GT(b.sender().max_reach_all(), 500);
  // Shared 400 pkt/s branches: the two sessions split the capacity.
  const double total =
      static_cast<double>(a.sender().max_reach_all() +
                          b.sender().max_reach_all()) /
      30.0;
  EXPECT_LT(total, 420.0);
  EXPECT_GT(total, 250.0);
}

TEST(RlaSession, LateJoinerResumesMidStream) {
  StarNet star(3, 400.0);
  rla::RlaSession session(star.net, star.s, 1, 9001, 9001);
  session.add_receiver(star.leaves[0], 9001);
  session.add_receiver(star.leaves[1], 9001);
  session.start_at(0.0);
  star.sim.run_until(10.0);
  const net::SeqNum frontier = session.sender().next_seq();
  ASSERT_GT(frontier, 500);

  // Third receiver joins mid-session.
  const int idx = session.add_receiver(star.leaves[2], 9001);
  star.sim.run_until(20.0);

  // The session kept moving (the joiner did not stall it waiting for
  // history it never saw)...
  EXPECT_GT(session.sender().max_reach_all(), frontier + 100);
  // ...and the joiner is receiving the live stream from its join point.
  EXPECT_GT(session.receiver(idx).data_packets_received(), 100u);
  EXPECT_GE(session.receiver(idx).buffer().cum_ack(), frontier);
}

TEST(RlaSession, RejoinOnFreshPortResumesAndCountsActive) {
  StarNet star(2, 400.0);
  rla::RlaSession session(star.net, star.s, 1, 9001, 9001);
  session.add_receiver(star.leaves[0], 9001);
  const int left = session.add_receiver(star.leaves[1], 9001);
  session.start_at(0.0);
  star.sim.run_until(10.0);

  // Leave, as the tertiary tree's churn does: the sender stops waiting for
  // the member and its agent falls silent, still attached to its port.
  session.remove_receiver(left);
  session.receiver(left).set_silenced(true);
  EXPECT_EQ(session.sender().active_receivers(), 1);
  star.sim.run_until(15.0);
  const net::SeqNum frontier = session.sender().next_seq();

  // Rejoin at the same node on a fresh port (the old one is still taken).
  const int back = session.add_receiver(star.leaves[1], 9002);
  EXPECT_NE(back, left);
  EXPECT_EQ(session.sender().active_receivers(), 2);
  star.sim.run_until(25.0);

  // The rejoiner resumes mid-stream and paces the session again.
  EXPECT_GT(session.receiver(back).data_packets_received(), 100u);
  EXPECT_GE(session.receiver(back).buffer().cum_ack(), frontier);
  EXPECT_GT(session.sender().max_reach_all(), frontier + 100);
  EXPECT_EQ(session.sender().active_receivers(), 2);
}

TEST(RlaSession, LeaverStopsGatingTheWindow) {
  // Receiver 2 sits behind a crippled branch; after it leaves, the session
  // accelerates to the healthy branches' pace.
  StarNet star(3);
  // Rebuild leaf 2's leg as slow: easiest is a fresh topology.
  sim::Simulator sim(2);
  net::Network net(sim);
  const auto s = net.add_node(), hub = net.add_node();
  net::LinkConfig fast;
  fast.bandwidth_bps = 1e9;
  fast.delay = 0.01;
  net.connect(s, hub, fast);
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < 3; ++i) {
    leaves.push_back(net.add_node());
    net::LinkConfig leg = fast;
    if (i == 2) leg.bandwidth_bps = 50 * 8000.0;  // 50 pkt/s straggler
    leg.buffer_pkts = 20;
    net.connect(hub, leaves.back(), leg);
  }
  net.build_routes();
  rla::RlaParams params;
  params.max_cwnd = 256;
  rla::RlaSession session(net, s, 1, 9001, 9001, params);
  for (const auto leaf : leaves) session.add_receiver(leaf, 9001);
  session.start_at(0.0);
  sim.run_until(30.0);
  const double paced_rate =
      static_cast<double>(session.sender().max_reach_all()) / 30.0;
  EXPECT_LT(paced_rate, 80.0);  // straggler-bound

  session.remove_receiver(2);
  const net::SeqNum before = session.sender().max_reach_all();
  sim.run_until(40.0);
  const double free_rate =
      static_cast<double>(session.sender().max_reach_all() - before) / 10.0;
  EXPECT_GT(free_rate, 3.0 * paced_rate);  // unshackled
}

}  // namespace
}  // namespace rlacast
