// Randomized check of net::Link against a reference two-event link.
//
// The reference link keeps one serializer-end event per packet.  When a
// packet starts transmitting it draws the packet's wire verdict, schedules
// the arrival (and a duplicate's) as events of their own and then the
// serializer end, in the order of ns-2's LinkDelay::recv (target_ before
// intr_).  net::Link keeps arrivals in a TimedFifo and schedules a
// serializer end only when a packet waits behind the transmitter, so it
// must run exactly the reference's events minus the serializer ends that
// find the queue empty, each under the same key.
//
// Each case builds a chain of equal-bandwidth hops twice, in two
// simulators of the same seed: once with net::Network and once with
// reference links.  The same offered load drives both.  Packet sizes,
// serialization times, delays and source gaps are all multiples of 2^-17 s,
// so arrivals, offers and serialization ends fall on exactly the same
// instants.  Sources flip a coin to schedule their next offer before or
// after the current one, which puts offers at exactly a serialization end
// on both sides of the transmitter's end key.  The test compares every
// delivery (time, node, uid), each hop's delivery counters sampled during
// the run, its queue and fault counters, RED's average, and the dispatch
// counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "net/drop_tail.hpp"
#include "net/network.hpp"
#include "net/red.hpp"
#include "sim/simulator.hpp"

namespace rlacast::net {
namespace {

constexpr int kHops = 3;
constexpr int kSources = 6;
constexpr double kBandwidth = 8.0 * 1024 * 1024;  // 1024 B in 2^-10 s
constexpr sim::SimTime kGrid = 1.0 / 2048;        // source gap unit
constexpr sim::SimTime kStop = 0.5;               // last offer before this
constexpr std::int32_t kSizes[] = {40, 512, 1024};

struct Case {
  const char* name;
  QueueKind queue;
  std::int32_t slot_bytes;  // 0 = packet-mode accounting
  std::size_t buffer;
  sim::SimTime delay;
  bool faults;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

using Delivery = std::tuple<sim::SimTime, NodeId, std::uint64_t>;

/// Everything a hop counts; compared field by field at the end of a run.
struct HopCounters {
  std::uint64_t delivered = 0, bytes = 0, drops = 0;
  std::uint64_t fault_drops = 0, fault_duplicates = 0;
  std::uint64_t enqueued = 0, dequeued = 0, queue_dropped = 0;
  std::uint64_t wire_offered = 0, wire_losses = 0, outage_drops = 0;
  double red_avg = 0.0;
};

/// Fills in the counters a hop's queue and fault hook keep themselves.
void add_queue_and_fault(HopCounters& c, const Queue& q,
                         const fault::LinkFaultState* f) {
  c.enqueued = q.stats().enqueued;
  c.dequeued = q.stats().dequeued;
  c.queue_dropped = q.stats().dropped;
  if (f != nullptr) {
    c.wire_offered = f->offered();
    c.wire_losses = f->wire_losses();
    c.outage_drops = f->outage_drops();
  }
  if (const auto* red = dynamic_cast<const RedQueue*>(&q))
    c.red_avg = red->avg();
}

fault::LinkImpairment impairment(int hop) {
  fault::LinkImpairment imp;
  imp.loss_p = 0.05;
  imp.duplicate_p = 0.1;
  imp.max_jitter = kGrid / 2;
  if (hop == 1) imp.outages.push_back({0.1, 0.1 + 8 * kGrid});
  return imp;
}

RedParams red_params(const Case& c) {
  // Network::make_queue's derivation, with thresholds low enough for early
  // drops to happen in a short run.
  RedParams p;
  p.min_th = 2.0;
  p.max_th = 6.0;
  p.w_q = 0.05;
  p.capacity = c.buffer;
  p.slot_bytes = c.slot_bytes;
  p.mean_pkt_time = static_cast<double>(kDataPacketBytes) * 8.0 / kBandwidth;
  return p;
}

/// One simulator with a chain 0 -> 1 -> ... -> kHops, an offered load and a
/// periodic probe of every hop's counters.  Subclasses supply the links.
class World {
 public:
  World(const Case& c, std::uint64_t seed)
      : case_(c), sim(seed), load_(sim.rng_stream("offered-load")) {}
  virtual ~World() = default;

  void run() {
    for (int s = 0; s < kSources; ++s)
      sim.at(0.0, [this, s] { offer(s); });
    sim.at(0.0, [this] { probe(); });
    sim.run_all();
  }

  virtual HopCounters counters(int hop) const = 0;

  const Case& case_;
  sim::Simulator sim;
  std::vector<Delivery> deliveries;
  std::vector<std::uint64_t> probes;

 protected:
  virtual void inject(const Packet& p) = 0;
  virtual std::uint64_t in_flight(int hop) const = 0;

  std::unique_ptr<fault::LinkFaultState> fault_state(int hop) {
    if (!case_.faults) return nullptr;
    return std::make_unique<fault::LinkFaultState>(
        impairment(hop), sim.rng_stream("fault-hop-" + std::to_string(hop)));
  }

  void record(NodeId at, const Packet& p) {
    deliveries.emplace_back(sim.now(), at, p.uid);
  }

 private:
  void offer(int s) {
    const bool next_first = load_.chance(0.5);
    if (next_first) schedule_next(s);
    const NodeId src = s % kHops;
    const auto bursts = load_.uniform_int(1, 3);
    for (std::int64_t i = 0; i < bursts; ++i) {
      Packet p;
      p.flow = s;
      p.src = src;
      p.dst = static_cast<NodeId>(load_.uniform_int(src + 1, kHops));
      p.dst_port = 1;
      p.seq = next_seq_++;
      p.size_bytes = kSizes[load_.uniform_int(0, 2)];
      inject(p);
    }
    if (!next_first) schedule_next(s);
  }

  void schedule_next(int s) {
    static constexpr int kGaps[] = {0, 1, 1, 2, 2, 4, 8, 32};
    const sim::SimTime next =
        sim.now() + kGaps[load_.uniform_int(0, 7)] * kGrid;
    if (next < kStop) sim.at(next, [this, s] { offer(s); });
  }

  void probe() {
    for (int h = 0; h < kHops; ++h) {
      const HopCounters c = counters(h);
      probes.push_back(c.delivered);
      probes.push_back(c.bytes);
      probes.push_back(in_flight(h));
    }
    if (sim.now() < kStop) sim.after(kGrid / 2, [this] { probe(); });
  }

  sim::Rng load_;
  SeqNum next_seq_ = 0;
};

/// The chain built from net::Network and net::Link.
class RealWorld final : public World {
 public:
  RealWorld(const Case& c, std::uint64_t seed) : World(c, seed) {
    for (int i = 0; i <= kHops; ++i) net_.add_node();
    LinkConfig cfg;
    cfg.bandwidth_bps = kBandwidth;
    cfg.delay = c.delay;
    cfg.queue = c.queue;
    cfg.buffer_pkts = c.buffer;
    cfg.queue_slot_bytes = c.slot_bytes;
    cfg.red = red_params(c);
    for (int h = 0; h < kHops; ++h) {
      links_.push_back(net_.connect(h, h + 1, cfg).forward);
      faults_.push_back(fault_state(h));
      if (faults_.back()) links_.back()->set_fault_hook(faults_.back().get());
    }
    net_.build_routes();
    for (int n = 1; n <= kHops; ++n) {
      sinks_.push_back(std::make_unique<Sink>(*this, n));
      net_.attach(n, 1, sinks_.back().get());
    }
  }

  HopCounters counters(int hop) const override {
    const Link& l = *links_[static_cast<std::size_t>(hop)];
    HopCounters c;
    c.delivered = l.packets_delivered();
    c.bytes = l.bytes_delivered();
    c.drops = l.drops();
    c.fault_drops = l.fault_drops();
    c.fault_duplicates = l.fault_duplicates();
    add_queue_and_fault(c, l.queue(),
                        faults_[static_cast<std::size_t>(hop)].get());
    return c;
  }

 private:
  class Sink final : public Agent {
   public:
    Sink(RealWorld& w, NodeId at) : w_(w), at_(at) {}
    void on_receive(const Packet& p) override { w_.record(at_, p); }

   private:
    RealWorld& w_;
    NodeId at_;
  };

  void inject(const Packet& p) override { net_.inject(p); }
  std::uint64_t in_flight(int hop) const override {
    return links_[static_cast<std::size_t>(hop)]->in_flight();
  }

  Network net_{sim};
  std::vector<Link*> links_;
  std::vector<std::unique_ptr<fault::LinkFaultState>> faults_;
  std::vector<std::unique_ptr<Sink>> sinks_;
};

/// The chain built from two-event reference links.
class RefWorld final : public World {
 public:
  RefWorld(const Case& c, std::uint64_t seed) : World(c, seed) {
    for (int h = 0; h < kHops; ++h) {
      std::unique_ptr<Queue> q;
      if (c.queue == QueueKind::kRed) {
        // Network::connect creates each forward link's queue before its
        // reverse twin's, so forward hop h draws from stream 2h.
        q = std::make_unique<RedQueue>(
            red_params(c),
            sim.rng_stream("red-queue-" + std::to_string(2 * h)));
      } else {
        q = std::make_unique<DropTailQueue>(c.buffer, c.slot_bytes);
      }
      links_.push_back(std::make_unique<RefLink>(*this, h + 1, std::move(q),
                                                 fault_state(h)));
    }
  }

  HopCounters counters(int hop) const override {
    const RefLink& l = *links_[static_cast<std::size_t>(hop)];
    HopCounters c = l.counts;
    add_queue_and_fault(c, *l.queue, l.fault.get());
    return c;
  }

  /// Serializer ends that found the queue empty: the events net::Link
  /// leaves out.
  std::uint64_t idle_ends = 0;
  /// Offers at exactly a serialization end, from events ordered before
  /// (transmitter still busy) and after its key.
  std::uint64_t ties_before = 0, ties_after = 0;

 private:
  struct RefLink {
    RefLink(RefWorld& w, NodeId to, std::unique_ptr<Queue> q,
            std::unique_ptr<fault::LinkFaultState> f)
        : world(w), to(to), queue(std::move(q)), fault(std::move(f)) {}

    void transmit(const Packet& p) {
      const sim::SimTime now = world.sim.now();
      if (now == end) ++(busy ? world.ties_before : world.ties_after);
      if (fault && fault->down(now)) {
        ++counts.fault_drops;
        return;
      }
      if (!queue->enqueue(p, now)) {
        ++counts.drops;
        return;
      }
      if (!busy) start();
    }

    void start() {
      std::optional<Packet> next = queue->dequeue(world.sim.now());
      if (!next) return;
      busy = true;
      end = world.sim.now() +
            static_cast<double>(next->size_bytes) * 8.0 / kBandwidth;
      tx_bytes = next->size_bytes;
      LinkFaultHook::WireVerdict v;
      if (fault) v = fault->wire(*next, end);
      tx_lost = v.lost;
      if (v.lost) {
        ++counts.fault_drops;
      } else {
        sim::SimTime at = end + world.case_.delay + v.extra_delay;
        if (at < last_arrival) at = last_arrival;
        last_arrival = at;
        if (v.duplicated) {
          ++counts.fault_duplicates;
          arrive_at(at, *next);
        }
        arrive_at(at, *next);
      }
      world.sim.at(end, [this] { on_end(); });
    }

    void arrive_at(sim::SimTime at, const Packet& p) {
      ++pipe;
      world.sim.at(at, [this, p] {
        --pipe;
        world.deliver(to, p);
      });
    }

    void on_end() {
      busy = false;
      if (!tx_lost) {
        ++counts.delivered;
        counts.bytes += static_cast<std::uint64_t>(tx_bytes);
      }
      if (queue->length() == 0) ++world.idle_ends;
      start();
    }

    RefWorld& world;
    NodeId to;
    std::unique_ptr<Queue> queue;
    std::unique_ptr<fault::LinkFaultState> fault;
    HopCounters counts;
    bool busy = false;
    bool tx_lost = false;
    std::int32_t tx_bytes = 0;
    sim::SimTime end = -1.0;
    sim::SimTime last_arrival = 0.0;
    std::uint64_t pipe = 0;
  };

  void inject(const Packet& p) override {
    Packet q = p;
    q.uid = next_uid_++;
    deliver(q.src, q);
  }
  void deliver(NodeId at, const Packet& p) {
    if (p.dst == at)
      record(at, p);
    else
      links_[static_cast<std::size_t>(at)]->transmit(p);
  }
  std::uint64_t in_flight(int hop) const override {
    return links_[static_cast<std::size_t>(hop)]->pipe;
  }

  std::vector<std::unique_ptr<RefLink>> links_;
  std::uint64_t next_uid_ = 1;
};

std::string first_difference(const std::vector<Delivery>& a,
                             const std::vector<Delivery>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  if (i == a.size() && i == b.size()) return "none";
  auto show = [](const std::vector<Delivery>& v, std::size_t k) {
    if (k >= v.size()) return std::string("(end)");
    const auto& [t, node, uid] = v[k];
    return "t=" + std::to_string(t) + " node=" + std::to_string(node) +
           " uid=" + std::to_string(uid);
  };
  return "delivery " + std::to_string(i) + ": link " + show(a, i) +
         ", reference " + show(b, i);
}

class LinkReference : public ::testing::TestWithParam<Case> {};

TEST_P(LinkReference, MatchesTwoEventLinkMinusIdleSerializerEnds) {
  const Case& c = GetParam();
  std::uint64_t ties_before = 0, ties_after = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RealWorld real(c, seed);
    RefWorld ref(c, seed);
    real.run();
    ref.run();

    ASSERT_FALSE(ref.deliveries.empty());
    EXPECT_EQ(real.deliveries.size(), ref.deliveries.size());
    EXPECT_TRUE(real.deliveries == ref.deliveries)
        << first_difference(real.deliveries, ref.deliveries);
    EXPECT_TRUE(real.probes == ref.probes)
        << "delivery counters differ during the run";
    std::uint64_t drops = 0;
    for (int h = 0; h < kHops; ++h) {
      SCOPED_TRACE("hop " + std::to_string(h));
      const HopCounters a = real.counters(h);
      const HopCounters b = ref.counters(h);
      EXPECT_EQ(a.delivered, b.delivered);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.drops, b.drops);
      EXPECT_EQ(a.queue_dropped, b.queue_dropped);
      EXPECT_EQ(a.enqueued, b.enqueued);
      EXPECT_EQ(a.dequeued, b.dequeued);
      EXPECT_EQ(a.fault_drops, b.fault_drops);
      EXPECT_EQ(a.fault_duplicates, b.fault_duplicates);
      EXPECT_EQ(a.wire_offered, b.wire_offered);
      EXPECT_EQ(a.wire_losses, b.wire_losses);
      EXPECT_EQ(a.outage_drops, b.outage_drops);
      EXPECT_EQ(a.red_avg, b.red_avg);  // bit-identical EWMA history
      drops += b.queue_dropped;
      if (c.faults) {
        EXPECT_GT(b.fault_duplicates, 0u);
        EXPECT_GT(b.wire_losses, 0u);
      }
    }
    EXPECT_GT(drops, 0u) << "the load never filled a queue";
    EXPECT_EQ(real.sim.scheduler().dispatched(),
              ref.sim.scheduler().dispatched() - ref.idle_ends);
    EXPECT_GT(ref.idle_ends, 0u);
    ties_before += ref.ties_before;
    ties_after += ref.ties_after;
  }
  // Both sides of the end key were exercised: offers at exactly a
  // serialization end while the transmitter was still busy, and after it
  // had gone idle.
  EXPECT_GT(ties_before, 0u);
  EXPECT_GT(ties_after, 0u);
}

constexpr sim::SimTime kDelay = 3.0 / 1024;

INSTANTIATE_TEST_SUITE_P(
    Chains, LinkReference,
    ::testing::Values(
        Case{"droptail", QueueKind::kDropTail, 0, 6, kDelay, false},
        Case{"red_bytes", QueueKind::kRed, 1024, 10, kDelay, false},
        Case{"faulted", QueueKind::kDropTail, 1024, 8, kDelay, true},
        Case{"zero_delay", QueueKind::kDropTail, 0, 6, 0.0, false},
        Case{"zero_delay_red_faulted", QueueKind::kRed, 1024, 10, 0.0, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rlacast::net
