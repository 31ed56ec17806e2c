// Example: a live stream with audience churn.
//
// A long-running RLA session (a lecture, a market-data feed) whose audience
// changes while it runs: two receivers from the start, a third joining at
// t = 60 s (resuming mid-stream — it is not owed the first hour), and one
// of the originals leaving at t = 120 s.  Shows that
//   * joins are seamless: the newcomer starts receiving at its join point
//     and the session's pace is unaffected;
//   * leaves release the window immediately when the departing member was
//     the pacing (slowest) branch.
#include <cstdio>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"

using namespace rlacast;

int main() {
  sim::Simulator sim(21);
  net::Network net(sim);
  const auto s = net.add_node();
  const auto hub = net.add_node();
  net::LinkConfig trunk;
  trunk.bandwidth_bps = 100e6;
  trunk.delay = sim::milliseconds(5);
  net.connect(s, hub, trunk);

  // Three audience branches: A healthy, B slow (it will leave), C healthy
  // (it will join late).
  std::vector<net::NodeId> audience;
  const double branch_pps[3] = {400.0, 120.0, 400.0};
  for (int i = 0; i < 3; ++i) {
    const auto r = net.add_node();
    net::LinkConfig leg;
    leg.bandwidth_bps = branch_pps[i] * 8000.0;
    leg.buffer_pkts = 20;
    leg.delay = sim::milliseconds(30);
    net.connect(hub, r, leg);
    audience.push_back(r);
  }
  net.build_routes();

  rla::RlaParams params;
  params.max_cwnd = 512;
  const net::PortId port = 9001;
  rla::RlaSession session(net, s, /*group=*/1, port, /*flow=*/9001, params);
  const int a = session.add_receiver(audience[0], port);
  const int b = session.add_receiver(audience[1], port);
  session.start_at(0.0);

  auto rate_between = [&](net::SeqNum from, double seconds) {
    return static_cast<double>(session.sender().max_reach_all() - from) /
           seconds;
  };

  std::printf("live stream: A (400 pkt/s branch) and B (120 pkt/s branch) "
              "from t=0\n\n");

  sim.run_until(60.0);
  const auto reach60 = session.sender().max_reach_all();
  std::printf("t= 60 s  delivered-to-all %6lld pkts  (pace set by B)\n",
              static_cast<long long>(reach60));

  // C joins mid-stream.
  const int c = session.add_receiver(audience[2], port);
  sim.run_until(120.0);
  const auto reach120 = session.sender().max_reach_all();
  std::printf("t=120 s  C joined at t=60; rate since: %5.1f pkt/s; C holds "
              "packets from %lld up\n",
              rate_between(reach60, 60.0),
              static_cast<long long>(
                  session.receiver(c).buffer().cum_ack() -
                  session.receiver(c).data_packets_received()));

  // B leaves; the pacing constraint disappears.
  session.remove_receiver(b);
  sim.run_until(180.0);
  std::printf("t=180 s  B left at t=120;  rate since: %5.1f pkt/s "
              "(released to the healthy branches' pace)\n",
              rate_between(reach120, 60.0));

  std::printf("\nfinal: A received %llu pkts, B received %llu (stopped), "
              "C received %llu since joining\n",
              static_cast<unsigned long long>(
                  session.receiver(a).data_packets_received()),
              static_cast<unsigned long long>(
                  session.receiver(b).data_packets_received()),
              static_cast<unsigned long long>(
                  session.receiver(c).data_packets_received()));
  return 0;
}
