// Robustness of the RLA sender's membership paths: a leave mid
// congestion-signal window must not double-cut, stale ACKs from departed
// receivers are ignored, a leave is final even mid-quarantine, silent
// (crashed) receivers are shed without stalling the session, and a churning
// tertiary tree finishes with a clean watchdog.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_sender.hpp"
#include "sim/simulator.hpp"
#include "tcp/reassembly.hpp"
#include "topo/tertiary_tree.hpp"

namespace rlacast::rla {
namespace {

/// ACKing receiver with deterministic first-delivery loss (like the one in
/// rla_sender_test) plus a silence switch that models a crash: after
/// silence() it keeps receiving but never ACKs again.
class FlakyReceiver final : public net::Agent {
 public:
  FlakyReceiver(net::Network& net, net::NodeId node, net::PortId port,
                net::GroupId group, net::NodeId sender_node,
                net::PortId sender_port, int id)
      : net_(net),
        node_(node),
        port_(port),
        sender_node_(sender_node),
        sender_port_(sender_port),
        id_(id) {
    net_.attach(node_, port_, this);
    net_.subscribe(group, node_, this);
  }

  void drop_range(net::SeqNum lo, net::SeqNum hi) {
    for (net::SeqNum s = lo; s < hi; ++s) blackhole_.insert(s);
  }
  /// `seq` never arrives, retransmissions included.
  void lose_forever(net::SeqNum seq) { lost_.insert(seq); }
  void silence() { silenced_ = true; }

  const tcp::ReassemblyBuffer& buffer() const { return buf_; }

  void on_receive(const net::Packet& p) override {
    if (silenced_) return;
    if (p.type != net::PacketType::kData) return;
    if (blackhole_.count(p.seq) && !p.is_rexmit) return;
    if (lost_.count(p.seq)) return;
    buf_.add(p.seq);
    net::Packet ack;
    ack.type = net::PacketType::kAck;
    ack.src = node_;
    ack.dst = sender_node_;
    ack.src_port = port_;
    ack.dst_port = sender_port_;
    ack.size_bytes = 40;
    ack.ack = buf_.cum_ack();
    ack.seq = p.seq;
    ack.ts_echo = p.ts_echo;
    ack.receiver_id = id_;
    ack.n_sack = static_cast<std::uint8_t>(
        buf_.sack_blocks(ack.sack.data(), net::kMaxSackBlocks));
    net_.inject(ack);
  }

 private:
  net::Network& net_;
  net::NodeId node_;
  net::PortId port_;
  net::NodeId sender_node_;
  net::PortId sender_port_;
  int id_;
  bool silenced_ = false;
  tcp::ReassemblyBuffer buf_;
  std::set<net::SeqNum> blackhole_;
  std::set<net::SeqNum> lost_;
};

struct Star {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId s, hub;
  std::vector<net::NodeId> leaves;
  std::unique_ptr<RlaSender> snd;
  std::vector<std::unique_ptr<FlakyReceiver>> rcvrs;

  explicit Star(int n, RlaParams params = {}, std::uint64_t seed = 1)
      : sim(seed) {
    params.max_cwnd = std::min(params.max_cwnd, 256.0);
    s = net.add_node();
    hub = net.add_node();
    net::LinkConfig fast;
    fast.bandwidth_bps = 1e9;
    fast.delay = 0.01;  // rtt = 40 ms
    fast.buffer_pkts = 100000;
    net.connect(s, hub, fast);
    const net::GroupId group = 1;
    for (int i = 0; i < n; ++i) {
      leaves.push_back(net.add_node());
      net.connect(hub, leaves.back(), fast);
    }
    net.build_routes();
    snd = std::make_unique<RlaSender>(net, s, 100, group, 500, params);
    for (int i = 0; i < n; ++i) {
      net.join_group(group, s, leaves[std::size_t(i)]);
      const int idx = snd->add_receiver(leaves[std::size_t(i)], 2);
      rcvrs.push_back(std::make_unique<FlakyReceiver>(
          net, leaves[std::size_t(i)], 2, group, s, 100, idx));
    }
  }
};

// Regression: receiver 0 leaves while its grouped congestion-signal window
// is still open and SACK-bearing ACKs are in flight. Those stale signals
// must not produce extra window cuts or census signals after the leave.
TEST(RlaRobustness, LeaveDuringSignalWindowDoesNotDoubleCut) {
  Star star(3);
  star.rcvrs[0]->drop_range(40, 120);  // losses spanning several RTTs
  star.snd->start_at(0.0);

  std::uint64_t cuts_at_leave = 0;
  std::uint64_t signals_at_leave = 0;
  star.sim.at(0.35, [&] {
    cuts_at_leave = star.snd->measurement().window_cuts();
    signals_at_leave = star.snd->signals_from(0);
    star.snd->remove_receiver(0);
  });
  star.sim.run_until(4.0);

  EXPECT_TRUE(star.snd->receiver_dropped(0));
  // Nothing attributable to the departed receiver after the leave: no new
  // signals counted against it and no additional cuts (the two remaining
  // receivers are loss-free).
  EXPECT_EQ(star.snd->signals_from(0), signals_at_leave);
  EXPECT_EQ(star.snd->measurement().window_cuts(), cuts_at_leave);
  // The session no longer waits for receiver 0's blackholed range.
  EXPECT_GT(star.snd->max_reach_all(), 200);
  EXPECT_EQ(star.snd->active_receivers(), 2);
}

TEST(RlaRobustness, StaleAckAfterRemoveIsIgnored) {
  Star star(2);
  star.snd->start_at(0.0);
  star.sim.run_until(1.0);
  star.snd->remove_receiver(1);
  const std::uint64_t acks_before = star.snd->acks_received();

  // A straggler ACK from the departed receiver arrives after the leave.
  net::Packet stale;
  stale.type = net::PacketType::kAck;
  stale.src = star.leaves[1];
  stale.dst = star.s;
  stale.src_port = 2;
  stale.dst_port = 100;
  stale.size_bytes = 40;
  stale.ack = star.snd->max_reach_all();
  stale.receiver_id = 1;
  star.snd->on_receive(stale);

  EXPECT_EQ(star.snd->acks_received(), acks_before);
  // A live receiver's ACK still counts.
  net::Packet live = stale;
  live.src = star.leaves[0];
  live.src_port = 2;
  live.receiver_id = 0;
  star.snd->on_receive(live);
  EXPECT_EQ(star.snd->acks_received(), acks_before + 1);
}

// Regression: a receiver that leaves while the frontier watchdog holds it in
// quarantine stays out. The leave used to be skipped for any excluded
// member, so the served quarantine put the silent receiver back on
// probation, where it pinned the frontier for the rest of the run.
TEST(RlaRobustness, LeaveWhileQuarantinedIsFinal) {
  RlaParams p;
  p.frontier_watchdog = true;
  Star star(3, p);
  star.rcvrs[2]->lose_forever(50);  // pins the frontier at 50
  star.snd->start_at(0.0);

  bool left = false;
  std::function<void()> poll = [&] {
    if (star.snd->watchdog_quarantines() == 0) {
      star.sim.after(0.05, poll);
      return;
    }
    star.snd->remove_receiver(2);
    star.rcvrs[2]->silence();
    left = true;
  };
  star.sim.at(0.05, poll);
  net::SeqNum reach_at_65 = 0;
  star.sim.at(65.0, [&] { reach_at_65 = star.snd->max_reach_all(); });
  star.sim.run_until(90.0);

  ASSERT_TRUE(left);
  EXPECT_TRUE(star.snd->receiver_dropped(2));
  EXPECT_EQ(star.snd->active_receivers(), 2);
  EXPECT_GT(star.snd->max_reach_all(), reach_at_65);
}

TEST(RlaRobustness, SilentReceiverIsShedAndSessionResumes) {
  RlaParams p;
  p.silent_drop_after = 0.5;
  Star star(3, p);
  star.snd->start_at(0.0);
  star.sim.at(1.0, [&] { star.rcvrs[2]->silence(); });
  star.sim.run_until(10.0);

  EXPECT_EQ(star.snd->silent_drops(), 1u);
  EXPECT_TRUE(star.snd->receiver_dropped(2));
  EXPECT_EQ(star.snd->active_receivers(), 2);

  // Frontier keeps moving after the shed: compare against where the crash
  // pinned it (the crashed receiver stops ACKing around seq reached at 1 s).
  const net::SeqNum pinned =
      static_cast<net::SeqNum>(star.rcvrs[2]->buffer().cum_ack());
  EXPECT_GT(star.snd->max_reach_all(), pinned + 100);
}

TEST(RlaRobustness, SilentDropDisabledByDefault) {
  Star star(2);  // silent_drop_after defaults to 0 = never shed
  star.snd->start_at(0.0);
  star.sim.at(1.0, [&] { star.rcvrs[1]->silence(); });
  star.sim.run_until(6.0);
  EXPECT_EQ(star.snd->silent_drops(), 0u);
  EXPECT_FALSE(star.snd->receiver_dropped(1));
  EXPECT_EQ(star.snd->active_receivers(), 2);
}

TEST(RlaRobustness, AllReceiversCrashedDoesNotSpin) {
  RlaParams p;
  p.silent_drop_after = 0.5;
  Star star(2, p);
  star.snd->start_at(0.0);
  star.sim.at(1.0, [&] {
    star.rcvrs[0]->silence();
    star.rcvrs[1]->silence();
  });
  // Must terminate: with every receiver shed the sender cancels its timers
  // instead of retransmitting into the void forever.
  star.sim.run_until(30.0);
  EXPECT_EQ(star.snd->silent_drops(), 2u);
  EXPECT_EQ(star.snd->active_receivers(), 0);
  EXPECT_EQ(star.sim.scheduler().pending(), 0u);
}

// Tree-level churn smoke: receivers leave and rejoin mid-run while the
// watchdog checks RLA invariants every simulated second.
TEST(RlaRobustness, ChurningTreeFinishesWithCleanWatchdog) {
  topo::TreeConfig cfg;
  cfg.bottleneck = topo::TreeCase::kL1;
  cfg.duration = 16.0;
  cfg.warmup = 4.0;
  cfg.seed = 5;
  cfg.churn_mean_interval = 2.0;
  cfg.churn_rejoin_after = 1.0;
  cfg.watchdog = true;
  const auto res = topo::run_tertiary_tree(cfg);

  EXPECT_TRUE(res.watchdog_ok) << res.watchdog_report;
  EXPECT_GT(res.churn_leaves, 0u);
  EXPECT_GT(res.rla[0].throughput_pps, 0.0);
  EXPECT_GE(res.active_receivers_final, 1);
}

}  // namespace
}  // namespace rlacast::rla
