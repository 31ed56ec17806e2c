// Example: live-lecture video distribution to a mixed audience.
//
// The scenario the paper's §5.3 generalization targets: one source feeding
// receivers at very different distances — campus receivers ~10 ms away and
// remote receivers ~210 ms away — each sharing its branch with background
// TCP.  The original RLA (pthresh = 1/n) over-listens to the near, fast-
// feedback receivers; the generalized RLA weighs congestion signals by
// (srtt_i / srtt_max)^2 so the distant receivers do not starve the session.
//
// This example runs both variants on the same network and prints the
// comparison.
#include <cstdio>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

using namespace rlacast;

namespace {

struct RunResult {
  double mcast_pps;
  double worst_tcp_pps;
  double near_srtt;
  double far_srtt;
};

RunResult run(double rtt_exponent, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  const auto s = net.add_node();
  const auto g = net.add_node();
  net::LinkConfig trunk;
  trunk.bandwidth_bps = 100e6;
  trunk.delay = sim::milliseconds(2);
  net.connect(s, g, trunk);

  // Four campus receivers (5 ms legs) and four remote ones (105 ms legs),
  // every branch constrained to 200 pkt/s and carrying one TCP.
  std::vector<net::NodeId> rcvr_nodes;
  for (int i = 0; i < 8; ++i) {
    const auto r = net.add_node();
    net::LinkConfig leg;
    leg.bandwidth_bps = 200 * 8000.0;
    leg.buffer_pkts = 20;
    leg.delay = i < 4 ? sim::milliseconds(5) : sim::milliseconds(105);
    net.connect(g, r, leg);
    rcvr_nodes.push_back(r);
  }
  net.build_routes();

  rla::RlaParams params;
  params.rtt_exponent = rtt_exponent;
  params.max_send_overhead = 8000.0 / (200 * 8000.0);
  rla::RlaSession session(net, s, /*group=*/1, /*port=*/1, /*flow=*/99,
                          params);
  for (const auto r : rcvr_nodes) session.add_receiver(r, /*port=*/1);
  rla::RlaSender& mcast = session.sender();

  std::vector<std::unique_ptr<tcp::TcpSender>> tcps;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> tcprs;
  tcp::TcpParams tparams;
  tparams.max_send_overhead = params.max_send_overhead;
  for (std::size_t i = 0; i < rcvr_nodes.size(); ++i) {
    const net::PortId port = 10 + static_cast<net::PortId>(i);
    tcprs.push_back(
        std::make_unique<tcp::TcpReceiver>(net, rcvr_nodes[i], port));
    tcps.push_back(std::make_unique<tcp::TcpSender>(
        net, s, port, rcvr_nodes[i], port, static_cast<net::FlowId>(i),
        tparams));
  }

  auto starts = sim.rng_stream("starts");
  mcast.start_at(starts.uniform(0.0, 1.0));
  for (auto& t : tcps) t->start_at(starts.uniform(0.0, 1.0));
  sim.at(60.0, [&] {
    mcast.measurement().begin_measurement(sim.now());
    for (auto& t : tcps) t->measurement().begin_measurement(sim.now());
  });
  sim.run_until(360.0);

  RunResult res;
  res.mcast_pps = mcast.measurement().throughput_pps(sim.now());
  res.worst_tcp_pps = 1e18;
  for (auto& t : tcps)
    res.worst_tcp_pps =
        std::min(res.worst_tcp_pps, t->measurement().throughput_pps(sim.now()));
  res.near_srtt = mcast.srtt_of(0);
  res.far_srtt = mcast.srtt_of(7);
  return res;
}

}  // namespace

int main() {
  std::printf("video distribution to 4 near (10 ms RTT) + 4 far (210 ms RTT)"
              " receivers,\neach branch 200 pkt/s with 1 background TCP\n\n");
  const RunResult original = run(/*rtt_exponent=*/0.0, 7);
  const RunResult generalized = run(/*rtt_exponent=*/2.0, 7);

  std::printf("sender-estimated RTTs: near %.0f ms, far %.0f ms\n\n",
              original.near_srtt * 1e3, original.far_srtt * 1e3);
  std::printf("%-28s %14s %14s\n", "", "mcast pkt/s", "worst TCP pkt/s");
  std::printf("%-28s %14.1f %14.1f\n", "original RLA (pthresh=1/n)",
              original.mcast_pps, original.worst_tcp_pps);
  std::printf("%-28s %14.1f %14.1f\n",
              "generalized RLA (f(x)=x^2)", generalized.mcast_pps,
              generalized.worst_tcp_pps);
  std::printf("\nthe generalized variant discounts congestion signals from\n"
              "short-RTT receivers, lifting the multicast share toward its\n"
              "fair level without starving the TCP background.\n");
  return 0;
}
