// Example: reliable software-update push to a fleet.
//
// Exercises the RLA's reliability machinery rather than just its congestion
// control: a fixed-size payload (25,000 packets = 25 MB) is multicast to a
// fleet behind lossy branches, and we track when every receiver holds the
// complete image.  Two policies are compared:
//   * rexmit_thresh = 0 — every repair goes by multicast (good when losses
//     are correlated: one repair heals everyone);
//   * rexmit_thresh = 3 — repairs go unicast unless more than three
//     receivers miss the packet (good when losses are independent: no
//     duplicate traffic on clean branches).
// Also demonstrates the §4.3 slow-receiver drop option on a crippled branch.
#include <cstdio>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"

using namespace rlacast;

namespace {

struct FleetRun {
  double complete_time;    // when the payload reached every receiver
  std::uint64_t mcast_rexmits;
  std::uint64_t ucast_rexmits;
  bool straggler_dropped;
};

FleetRun push_update(int rexmit_thresh, bool drop_straggler,
                     double straggler_pps, std::uint64_t seed) {
  constexpr net::SeqNum kPayloadPkts = 25'000;
  sim::Simulator sim(seed);
  net::Network net(sim);
  const auto s = net.add_node();
  const auto g = net.add_node();
  net::LinkConfig trunk;
  trunk.bandwidth_bps = 100e6;
  trunk.delay = sim::milliseconds(5);
  net.connect(s, g, trunk);

  std::vector<net::NodeId> fleet;
  for (int i = 0; i < 6; ++i) {
    const auto r = net.add_node();
    net::LinkConfig leg;
    // Five healthy branches near 500 pkt/s — slightly staggered so their
    // queues do not act as clones (losses stay independent per branch,
    // which is what makes the rexmit_thresh policy interesting) — plus one
    // straggler.
    const double pps = i == 5 ? straggler_pps : 480.0 + 10.0 * i;
    leg.bandwidth_bps = pps * 8000.0;
    leg.buffer_pkts = 20;
    leg.delay = sim::milliseconds(20);
    net.connect(g, r, leg);
    fleet.push_back(r);
  }
  net.build_routes();

  rla::RlaParams params;
  params.rexmit_thresh = rexmit_thresh;
  params.enable_slow_receiver_drop = drop_straggler;
  params.slow_drop_fraction = 0.8;
  params.slow_drop_min_signals = 50;
  rla::RlaSession session(net, s, /*group=*/1, /*port=*/1, /*flow=*/7,
                          params);
  for (const auto r : fleet) session.add_receiver(r, /*port=*/1);
  rla::RlaSender& sender = session.sender();
  sender.start_at(0.0);

  // Poll for completion: every receiver (except a dropped straggler) holds
  // packets [0, kPayloadPkts).
  FleetRun out{-1.0, 0, 0, false};
  std::function<void()> poll = [&] {
    bool done = sender.max_reach_all() >= kPayloadPkts;
    if (done && out.complete_time < 0) {
      out.complete_time = sim.now();
      return;
    }
    sim.after(0.5, poll);
  };
  sim.after(0.5, poll);
  sim.run_until(600.0);

  out.mcast_rexmits = sender.multicast_rexmits();
  out.ucast_rexmits = sender.unicast_rexmits();
  out.straggler_dropped = sender.receiver_dropped(5);
  return out;
}

void report(const char* label, const FleetRun& r) {
  if (r.complete_time >= 0)
    std::printf("  %-34s done in %6.1f s   repairs: %llu multicast, %llu "
                "unicast%s\n",
                label, r.complete_time,
                static_cast<unsigned long long>(r.mcast_rexmits),
                static_cast<unsigned long long>(r.ucast_rexmits),
                r.straggler_dropped ? "   [straggler dropped]" : "");
  else
    std::printf("  %-34s NOT complete within 600 s (straggler-bound)%s\n",
                label, r.straggler_dropped ? "   [straggler dropped]" : "");
}

}  // namespace

int main() {
  std::printf("pushing a 25,000-packet image to 6 receivers "
              "(5 healthy branches at 500 pkt/s)\n\n");

  std::printf("healthy fleet (branches staggered 480-520 pkt/s):\n");
  report("multicast repairs (thresh=0):",
         push_update(0, false, 500.0, 11));
  report("mostly-unicast repairs (thresh=3):",
         push_update(3, false, 500.0, 11));

  std::printf("\nfleet with one crippled branch (40 pkt/s straggler):\n");
  report("wait for the straggler:", push_update(0, false, 40.0, 12));
  report("slow-receiver drop enabled:", push_update(0, true, 40.0, 12));

  std::printf("\nthe session is paced by its slowest member unless the\n"
              "operator opts into dropping it (§4.3), after which the\n"
              "remaining fleet completes at the healthy branches' pace.\n");
  return 0;
}
