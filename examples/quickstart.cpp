// Quickstart: the smallest end-to-end use of the library's public API.
//
// Builds a three-receiver multicast tree by hand (simulator, network, links,
// queues), attaches one RLA session plus one competing TCP connection per
// receiver, runs 120 simulated seconds, and prints the bandwidth shares.
//
//   $ ./quickstart
//
// Expected outcome: the RLA session and each TCP connection settle around
// the same order of bandwidth on their shared 200 pkt/s bottlenecks —
// essential fairness in action.
#include <cstdio>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_session.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

using namespace rlacast;

int main() {
  // 1. A simulator holds the clock, the event queue, and the master seed.
  sim::Simulator sim(/*master_seed=*/42);
  net::Network net(sim);

  // 2. Topology: sender S -> gateway G -> three bottleneck branches.
  const auto s = net.add_node();
  const auto g = net.add_node();
  std::vector<net::NodeId> receivers;

  net::LinkConfig fast;                   // S-G trunk: 100 Mbit/s, 5 ms
  fast.bandwidth_bps = 100e6;
  fast.delay = sim::milliseconds(5);
  net.connect(s, g, fast);

  net::LinkConfig bottleneck;             // branches: 1.6 Mbit/s = 200 pkt/s
  bottleneck.bandwidth_bps = 200 * 8000.0;
  bottleneck.delay = sim::milliseconds(20);
  bottleneck.buffer_pkts = 20;            // drop-tail, 20-packet buffer
  for (int i = 0; i < 3; ++i) {
    const auto r = net.add_node();
    net.connect(g, r, bottleneck);
    receivers.push_back(r);
  }
  net.build_routes();  // fills unicast routing tables (BFS)

  // 3. The multicast session: one RLA sender, one receiver per leaf (each
  //    add_receiver grafts the leaf onto the group's tree).
  rla::RlaParams rla_params;  // paper defaults: eta=20, pthresh=1/n, ...
  rla::RlaSession session(net, s, /*group=*/1, /*port=*/1, /*flow=*/100,
                          rla_params);
  for (const auto r : receivers) session.add_receiver(r, /*port=*/1);
  rla::RlaSender& mcast = session.sender();

  // 4. Background TCP: one SACK connection from S to each receiver.
  std::vector<std::unique_ptr<tcp::TcpSender>> tcp_senders;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> tcp_receivers;
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    const net::PortId port = 10 + static_cast<net::PortId>(i);
    tcp_receivers.push_back(
        std::make_unique<tcp::TcpReceiver>(net, receivers[i], port));
    tcp_senders.push_back(std::make_unique<tcp::TcpSender>(
        net, s, port, receivers[i], port, static_cast<net::FlowId>(i)));
  }

  // 5. Start everything (small jitter avoids artificial synchronization),
  //    discard a 30 s warm-up, measure until t = 120 s.
  mcast.start_at(0.0);
  for (std::size_t i = 0; i < tcp_senders.size(); ++i)
    tcp_senders[i]->start_at(0.2 * static_cast<double>(i + 1));

  sim.at(30.0, [&] {
    mcast.measurement().begin_measurement(sim.now());
    for (auto& t : tcp_senders) t->measurement().begin_measurement(sim.now());
  });
  sim.run_until(120.0);

  // 6. Report.
  std::printf("after %.0f simulated seconds (measured over last %.0f s):\n\n",
              sim.now(), sim.now() - 30.0);
  std::printf("  RLA multicast : %6.1f pkt/s  (avg window %.1f, %llu window "
              "cuts from %llu signals)\n",
              mcast.measurement().throughput_pps(sim.now()),
              mcast.measurement().avg_cwnd(sim.now()),
              static_cast<unsigned long long>(mcast.measurement().window_cuts()),
              static_cast<unsigned long long>(
                  mcast.measurement().congestion_signals()));
  for (std::size_t i = 0; i < tcp_senders.size(); ++i)
    std::printf("  TCP %zu         : %6.1f pkt/s  (avg window %.1f)\n", i + 1,
                tcp_senders[i]->measurement().throughput_pps(sim.now()),
                tcp_senders[i]->measurement().avg_cwnd(sim.now()));
  std::printf("\neach branch carries 200 pkt/s shared by the multicast and "
              "one TCP;\nessential fairness keeps both near 100 pkt/s.\n");
  return 0;
}
