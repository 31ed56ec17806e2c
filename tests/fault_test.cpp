// src/fault/ unit tests: impairment semantics on a single link (Bernoulli
// loss, Gilbert–Elliott burstiness, duplication, jitter FIFO preservation,
// outages), counter separation from congestion drops, dedicated
// RNG streams (empty plan = pristine run, faulted reruns bit-identical).
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace rlacast {
namespace {

/// Records delivery times and uids at the far end of a hop.
class Sink final : public net::Agent {
 public:
  void on_receive(const net::Packet& p) override {
    uids.push_back(p.uid);
    at.push_back(now_fn ? now_fn() : 0.0);
  }
  std::vector<std::uint64_t> uids;
  std::vector<double> at;
  std::function<double()> now_fn;
};

struct Hop {
  sim::Simulator sim;
  net::Network net;
  net::NodeId a, b;
  Sink sink;

  explicit Hop(std::uint64_t seed = 1) : sim(seed), net(sim) {
    a = net.add_node();
    b = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 8e6;  // 1000-byte packet = 1 ms serialization
    cfg.delay = 0.01;
    cfg.buffer_pkts = 50000;  // no congestion drops in these tests
    net.connect(a, b, cfg);
    net.build_routes();
    net.attach(b, 1, &sink);
    sink.now_fn = [this] { return sim.now(); };
  }

  net::Link* link() { return net.link_between(a, b); }

  void send(int n) {
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.type = net::PacketType::kData;
      p.src = a;
      p.dst = b;
      p.dst_port = 1;
      p.size_bytes = 1000;
      net.inject(p);
    }
  }
};

TEST(Fault, EmptyPlanArmsNothing) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  Hop h;
  plan.arm(h.net);  // no entries: no hooks installed
  EXPECT_EQ(h.link()->fault_hook(), nullptr);
  h.send(50);
  h.sim.run_all();
  EXPECT_EQ(h.sink.uids.size(), 50u);
  EXPECT_EQ(h.link()->fault_drops(), 0u);
  const auto totals = plan.totals();
  EXPECT_EQ(totals.offered, 0u);
}

TEST(Fault, ImpairmentAnyReflectsEveryKnob) {
  fault::LinkImpairment imp;
  EXPECT_FALSE(imp.any());
  imp.loss_p = 0.1;
  EXPECT_TRUE(imp.any());
  imp = {};
  imp.ge.p_good_to_bad = 0.01;
  EXPECT_TRUE(imp.any());
  imp = {};
  imp.duplicate_p = 0.1;
  EXPECT_TRUE(imp.any());
  imp = {};
  imp.max_jitter = 0.001;
  EXPECT_TRUE(imp.any());
  imp = {};
  imp.outages.push_back({1.0, 2.0});
  EXPECT_TRUE(imp.any());
}

TEST(Fault, ArmThrowsOnUnknownLink) {
  Hop h;
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.loss_p = 0.5;
  plan.impair(h.a, 99, imp);
  EXPECT_THROW(plan.arm(h.net), std::invalid_argument);
}

TEST(Fault, BernoulliLossRateAndCounters) {
  Hop h(7);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.loss_p = 0.2;
  plan.impair(h.a, h.b, imp);
  plan.arm(h.net);
  const int n = 5000;
  h.send(n);
  h.sim.run_all();

  const auto totals = plan.totals();
  EXPECT_EQ(totals.offered, static_cast<std::uint64_t>(n));
  EXPECT_EQ(h.sink.uids.size() + totals.wire_losses,
            static_cast<std::uint64_t>(n));
  // ~20% loss within generous tolerance.
  EXPECT_NEAR(static_cast<double>(totals.wire_losses) / n, 0.2, 0.03);
  // Fault drops are counted on the link and mirrored into the engine
  // counters, and are NOT congestion drops.
  EXPECT_EQ(h.link()->fault_drops(), totals.wire_losses);
  EXPECT_EQ(h.sim.scheduler().counters().fault_drops, totals.wire_losses);
  EXPECT_EQ(h.link()->drops(), 0u);
}

TEST(Fault, SameSeedRerunsAreBitIdentical) {
  auto run = [] {
    Hop h(1234);
    fault::FaultPlan plan;
    fault::LinkImpairment imp;
    imp.loss_p = 0.1;
    imp.duplicate_p = 0.05;
    imp.max_jitter = 0.002;
    plan.impair(h.a, h.b, imp);
    plan.arm(h.net);
    h.send(1000);
    h.sim.run_all();
    return std::make_pair(h.sink.uids, h.sink.at);
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.first, r2.first);
  EXPECT_EQ(r1.second, r2.second);  // exact double equality: same draws
}

TEST(Fault, DuplicationDeliversExtraCopies) {
  Hop h(5);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.duplicate_p = 0.5;
  plan.impair(h.a, h.b, imp);
  plan.arm(h.net);
  const int n = 2000;
  h.send(n);
  h.sim.run_all();
  const auto totals = plan.totals();
  EXPECT_EQ(h.sink.uids.size(), static_cast<std::uint64_t>(n) + totals.duplicates);
  EXPECT_NEAR(static_cast<double>(totals.duplicates) / n, 0.5, 0.05);
  EXPECT_EQ(h.sim.scheduler().counters().fault_duplicates, totals.duplicates);
}

TEST(Fault, JitterPreservesFifoOrder) {
  Hop h(9);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.max_jitter = 0.05;  // 50x the serialization time: heavy reordering risk
  plan.impair(h.a, h.b, imp);
  plan.arm(h.net);
  h.send(500);
  h.sim.run_all();
  ASSERT_EQ(h.sink.uids.size(), 500u);
  // Arrival times monotone (the clamp) and uid order preserved (FIFO pipe).
  for (std::size_t i = 1; i < h.sink.at.size(); ++i) {
    EXPECT_LE(h.sink.at[i - 1], h.sink.at[i]);
    EXPECT_LT(h.sink.uids[i - 1], h.sink.uids[i]);
  }
}

TEST(Fault, ScheduledOutageDropsAtInterface) {
  Hop h(3);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.outages.push_back({0.5, 1.5});
  plan.impair(h.a, h.b, imp);
  plan.arm(h.net);

  // One packet before, one inside, one after the outage window.
  auto send_at = [&](double t) {
    h.sim.at(t, [&] { h.send(1); });
  };
  send_at(0.1);
  send_at(1.0);
  send_at(2.0);
  h.sim.run_all();

  EXPECT_EQ(h.sink.uids.size(), 2u);
  const auto totals = plan.totals();
  EXPECT_EQ(totals.outage_drops, 1u);
  EXPECT_EQ(h.link()->fault_drops(), 1u);
  EXPECT_EQ(h.link()->drops(), 0u);  // never reached the queue
}

TEST(Fault, GilbertElliottLossIsBurstier) {
  // Equal average loss (~2%): GE losses cluster, Bernoulli losses spread.
  // Compare the count of adjacent lost pairs.
  auto lost_pairs = [](const std::vector<std::uint64_t>& delivered, int n) {
    std::vector<bool> lost(static_cast<std::size_t>(n) + 1, true);
    for (auto uid : delivered) lost[static_cast<std::size_t>(uid)] = false;
    int pairs = 0;
    for (int i = 2; i <= n; ++i)
      if (lost[static_cast<std::size_t>(i)] &&
          lost[static_cast<std::size_t>(i - 1)])
        ++pairs;
    return pairs;
  };
  const int n = 20000;

  Hop bern(21);
  {
    fault::FaultPlan plan;
    fault::LinkImpairment imp;
    imp.loss_p = 0.02;
    plan.impair(bern.a, bern.b, imp);
    plan.arm(bern.net);
    bern.send(n);
    bern.sim.run_all();
    EXPECT_NEAR(plan.totals().wire_losses / double(n), 0.02, 0.005);
  }
  Hop ge(21);
  {
    fault::FaultPlan plan;
    fault::LinkImpairment imp;
    // Bad 1/10 of the time (0.02/(0.02+0.18)), loss 0.2 while Bad -> 2% avg.
    imp.ge.p_good_to_bad = 0.02;
    imp.ge.p_bad_to_good = 0.18;
    imp.ge.loss_bad = 0.2;
    plan.impair(ge.a, ge.b, imp);
    plan.arm(ge.net);
    ge.send(n);
    ge.sim.run_all();
    EXPECT_NEAR(plan.totals().wire_losses / double(n), 0.02, 0.008);
  }
  EXPECT_GT(lost_pairs(ge.sink.uids, n), lost_pairs(bern.sink.uids, n));
}

// Bidirectional hop for reverse-path (ACK-direction) impairment tests:
// data flows a -> b, a simulated feedback stream flows b -> a.
struct DuplexHop {
  sim::Simulator sim;
  net::Network net;
  net::NodeId a, b;
  Sink fwd_sink;  // at b: receives the a -> b direction
  Sink rev_sink;  // at a: receives the b -> a direction

  explicit DuplexHop(std::uint64_t seed = 1) : sim(seed), net(sim) {
    a = net.add_node();
    b = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 8e6;
    cfg.delay = 0.01;
    cfg.buffer_pkts = 50000;
    net.connect(a, b, cfg);
    net.build_routes();
    net.attach(b, 1, &fwd_sink);
    net.attach(a, 2, &rev_sink);
    fwd_sink.now_fn = [this] { return sim.now(); };
    rev_sink.now_fn = [this] { return sim.now(); };
  }

  /// Schedules interleaved traffic in both directions at fixed times so the
  /// injection order (and hence packet uids) is run-invariant.
  void schedule(int n) {
    for (int i = 0; i < n; ++i) {
      sim.at(0.001 * i, [this, i] {
        net::Packet d;
        d.type = net::PacketType::kData;
        d.src = a;
        d.dst = b;
        d.dst_port = 1;
        d.seq = i;
        net.inject(d);
        net::Packet ack;
        ack.type = net::PacketType::kAck;
        ack.src = b;
        ack.dst = a;
        ack.dst_port = 2;
        ack.seq = i;
        ack.size_bytes = 40;
        net.inject(ack);
      });
    }
  }
};

TEST(Fault, ForwardOnlyPlanLeavesReverseStreamByteIdentical) {
  // Reverse-path isolation: a forward-path-only plan must leave the reverse
  // (ACK) direction byte-identical to a pristine run — same uids, same
  // arrival instants — because each direction draws from its own
  // "fault-link-<from>-<to>" stream and an unimpaired link has no hook.
  const int n = 400;
  DuplexHop clean(11);
  clean.schedule(n);
  clean.sim.run_all();
  ASSERT_EQ(clean.rev_sink.uids.size(), static_cast<std::size_t>(n));

  DuplexHop faulted(11);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.loss_p = 0.3;
  imp.max_jitter = 0.004;
  plan.impair(faulted.a, faulted.b, imp);  // forward direction ONLY
  plan.arm(faulted.net);
  faulted.schedule(n);
  faulted.sim.run_all();

  // Forward direction visibly impaired...
  EXPECT_LT(faulted.fwd_sink.uids.size(), static_cast<std::size_t>(n));
  EXPECT_GT(plan.totals().wire_losses, 0u);
  // ...reverse direction untouched, bit for bit.
  EXPECT_EQ(faulted.rev_sink.uids, clean.rev_sink.uids);
  EXPECT_EQ(faulted.rev_sink.at, clean.rev_sink.at);
  EXPECT_EQ(faulted.net.link_between(faulted.b, faulted.a)->fault_hook(),
            nullptr);
}

TEST(Fault, ReverseDupJitterPreservesAckFifo) {
  // Reverse-path duplication + jitter (the --chaos ACK impairment mix) may
  // delay and clone feedback but must never reorder it: cumulative ACK
  // semantics tolerate duplicates, not time travel.
  DuplexHop h(23);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.duplicate_p = 0.3;
  imp.max_jitter = 0.02;  // far above the 40-byte serialization time
  plan.impair(h.b, h.a, imp);  // reverse direction ONLY
  plan.arm(h.net);
  const int n = 500;
  h.schedule(n);
  h.sim.run_all();

  const auto totals = plan.totals();
  EXPECT_GT(totals.duplicates, 0u);
  ASSERT_EQ(h.rev_sink.uids.size(),
            static_cast<std::size_t>(n) + totals.duplicates);
  // FIFO both in time and in sequence: a duplicated ACK arrives adjacent to
  // its original, and no later ACK overtakes an earlier one.
  for (std::size_t i = 1; i < h.rev_sink.at.size(); ++i) {
    EXPECT_LE(h.rev_sink.at[i - 1], h.rev_sink.at[i]);
    EXPECT_LE(h.rev_sink.uids[i - 1], h.rev_sink.uids[i]);
  }
  // The forward data direction saw no impairment at all.
  EXPECT_EQ(h.fwd_sink.uids.size(), static_cast<std::size_t>(n));
}

TEST(Fault, FaultStreamDoesNotPerturbOtherStreams) {
  // The named fault stream is independent: the draws another component sees
  // are identical whether or not a fault stream was ever created.
  sim::Simulator sim_a(42);
  auto red_a = sim_a.rng_stream("red-1");
  std::vector<double> draws_a;
  for (int i = 0; i < 16; ++i) draws_a.push_back(red_a.uniform());

  sim::Simulator sim_b(42);
  auto fault_b = sim_b.rng_stream("fault-link-0-1");
  (void)fault_b.uniform();  // consume from the fault stream
  auto red_b = sim_b.rng_stream("red-1");
  std::vector<double> draws_b;
  for (int i = 0; i < 16; ++i) draws_b.push_back(red_b.uniform());

  EXPECT_EQ(draws_a, draws_b);
}

TEST(Fault, OutageOnsetDeliversInFlightPackets) {
  // Onset semantics (documented on fault::Outage): interface state is
  // consulted at transmit() only, so packets already queued, serializing,
  // or propagating when the outage begins sail through — the hop's pipe is
  // not flushed.  10 back-to-back packets at t=0 need 10 ms of serialization
  // plus 10 ms propagation; an outage opening at t=2 ms must not claw back
  // the 8 still waiting in the queue.
  Hop h(11);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.outages.push_back({0.002, 1.0});
  plan.impair(h.a, h.b, imp);
  plan.arm(h.net);
  h.send(10);                          // t=0: all accepted, interface up
  h.sim.at(0.5, [&] { h.send(1); });   // mid-outage: discarded at entrance
  h.sim.at(2.0, [&] { h.send(1); });   // after heal: delivered
  h.sim.run_all();

  EXPECT_EQ(h.sink.uids.size(), 11u);
  EXPECT_EQ(plan.totals().outage_drops, 1u);
  EXPECT_EQ(h.link()->fault_drops(), 1u);
}

TEST(Fault, NodeFailureDownsEveryAttachedInterface) {
  // A crashed router takes down ALL its interfaces atomically: a 3-node
  // chain n0 - n1 - n2 with n1 failed blackholes both directions of both
  // duplexes for the whole window.
  sim::Simulator sim(5);
  net::Network net(sim);
  const auto n0 = net.add_node();
  const auto n1 = net.add_node();
  const auto n2 = net.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = 0.001;
  net.connect(n0, n1, cfg);
  net.connect(n1, n2, cfg);
  net.build_routes();
  Sink fwd, rev;
  net.attach(n2, 1, &fwd);
  net.attach(n0, 1, &rev);

  fault::FaultPlan plan;
  plan.fail_node(n1, 0.5, 1.5);
  EXPECT_FALSE(plan.empty());
  plan.arm(net);

  auto send = [&](net::NodeId from, net::NodeId to, double t) {
    sim.at(t, [&net, from, to] {
      net::Packet p;
      p.type = net::PacketType::kData;
      p.src = from;
      p.dst = to;
      p.dst_port = 1;
      p.size_bytes = 1000;
      net.inject(p);
    });
  };
  send(n0, n2, 0.1);  // before: delivered
  send(n2, n0, 0.1);
  send(n0, n2, 1.0);  // inside: dropped at the first hop's entrance
  send(n2, n0, 1.0);
  send(n0, n2, 2.0);  // after: delivered
  send(n2, n0, 2.0);
  sim.run_all();

  EXPECT_EQ(fwd.uids.size(), 2u);
  EXPECT_EQ(rev.uids.size(), 2u);
  EXPECT_EQ(plan.totals().outage_drops, 2u);
}

TEST(Fault, PartitionDownsBothDirectionsOfOneLink) {
  Hop h(6);
  Sink rev;
  h.net.attach(h.a, 2, &rev);
  fault::FaultPlan plan;
  plan.partition(h.a, h.b, 0.5, 1.5);
  plan.arm(h.net);

  auto send_rev = [&](double t) {
    h.sim.at(t, [&] {
      net::Packet p;
      p.type = net::PacketType::kAck;
      p.src = h.b;
      p.dst = h.a;
      p.dst_port = 2;
      p.size_bytes = 40;
      h.net.inject(p);
    });
  };
  h.sim.at(1.0, [&] { h.send(1); });  // forward, mid-window: dropped
  send_rev(1.0);                      // reverse, mid-window: dropped
  h.sim.at(2.0, [&] { h.send(1); });  // both heal
  send_rev(2.0);
  h.sim.run_all();

  EXPECT_EQ(h.sink.uids.size(), 1u);
  EXPECT_EQ(rev.uids.size(), 1u);
  EXPECT_EQ(plan.totals().outage_drops, 2u);
}

TEST(Fault, StructuralArmThrowsOnUnknownPlacement) {
  {
    Hop h;
    fault::FaultPlan plan;
    plan.fail_node(99, 1.0, 2.0);  // no link touches node 99
    EXPECT_THROW(plan.arm(h.net), std::invalid_argument);
  }
  {
    Hop h;
    fault::FaultPlan plan;
    plan.partition(h.a, 99, 1.0, 2.0);  // neither direction exists
    EXPECT_THROW(plan.arm(h.net), std::invalid_argument);
  }
}

TEST(Fault, StructuralMergesAdditivelyWithImpairments) {
  // fail_node / partition resolve ADDITIVELY at arm(): an existing wire
  // impairment on the same link keeps working through the merge (impair()
  // alone is last-write-wins; structural windows must not clobber it).
  Hop h(13);
  fault::FaultPlan plan;
  fault::LinkImpairment imp;
  imp.loss_p = 0.3;
  plan.impair(h.a, h.b, imp);
  plan.partition(h.a, h.b, 0.25, 0.3);
  plan.arm(h.net);
  h.send(2000);  // burst at t=0 drains in ~2 s of serialization
  h.sim.run_all();
  const auto totals = plan.totals();
  EXPECT_GT(totals.wire_losses, 0u);   // Bernoulli loss still armed
  EXPECT_EQ(totals.outage_drops, 0u);  // burst was accepted before onset
  EXPECT_NEAR(static_cast<double>(totals.wire_losses) / 2000.0, 0.3, 0.05);
}

TEST(Fault, ChaosStructuralDrawsAppendWithoutPerturbing) {
  // With cfg.structural off the draw consumes exactly the historical
  // stream prefix; turning it on appends draws at the END, so every
  // non-structural field of the scenario is unchanged for the same seed.
  fault::ChaosConfig base;
  fault::ChaosConfig structural = base;
  structural.structural = true;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto a = fault::draw_chaos(base, seed, 27);
    const auto b = fault::draw_chaos(structural, seed, 27);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.n_adversaries, b.n_adversaries);
    EXPECT_EQ(a.adversary_idx, b.adversary_idx);
    EXPECT_EQ(a.ack_fault.loss_p, b.ack_fault.loss_p);
    EXPECT_EQ(a.flip_period, b.flip_period);
    EXPECT_EQ(a.structural, fault::StructuralKind::kNone);
    if (b.structural != fault::StructuralKind::kNone) {
      EXPECT_GE(b.partition_start, fault::kChaosMinPartitionStart);
      EXPECT_LE(b.partition_start, fault::kChaosMaxPartitionStart);
      EXPECT_GE(b.partition_len, fault::kChaosMinPartitionLen);
      EXPECT_LE(b.partition_len, fault::kChaosMaxPartitionLen);
      EXPECT_GE(b.structural_index, 0);
      EXPECT_LT(b.structural_index, 9);
    }
  }
}

}  // namespace
}  // namespace rlacast
