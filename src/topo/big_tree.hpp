// Large-topology builder: the scale companion to run_tertiary_tree.
//
// The paper validates Theorems I/II on 27 receivers; bench_scale runs up
// to 10^5.  Simulating that many individual leaves would spend all memory
// on the NETWORK model and mask the quantity the scale bench
// measures — sender bytes per receiver — so this builder collapses each
// group of `group_size` co-located receivers into one leaf node carrying a
// single rla::GroupReceiver (one reassembly buffer, one downstream loss
// pattern) while the sender still runs a full census entry and one ACK
// stream per MEMBER.  Geometry:
//
//     S --- G1 --- branch_j --- group leaf (g members each)
//
// with ~sqrt(#groups) branches.  The first four group links are the
// paper's soft bottlenecks: capacity share_pps * (1 TCP + 1) packets/s, RED
// or drop-tail per `gateway`, one competing background TCP each; every
// other hop is fast (10 Gbit/s; 5 ms upper, 100 ms leaf delay).  A group
// link's REVERSE direction stands in for g independent per-leaf ACK paths,
// so it is provisioned at the fast rate (see
// net::LinkConfig::reverse_bandwidth_bps) — collapsing the subtree must
// not invent an ACK bottleneck that the uncollapsed tree does not have.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/red.hpp"
#include "rla/rla_params.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_sender.hpp"
#include "topo/scenario.hpp"  // FlowRow, GatewayType

namespace rlacast::topo {

struct BigTreeConfig {
  /// Total session membership n (the `n` of the Theorem I/II bounds).
  int receivers = 1000;
  /// Members collapsed per group leaf; the last group takes the remainder.
  int group_size = 25;

  GatewayType gateway = GatewayType::kRed;
  double share_pps = 100.0;       // paper capacity rule: mu / (m + 1)
  /// Buffer of the congested bottleneck hops (paper-scale, small).
  std::size_t buffer_pkts = 20;
  net::RedParams red{};

  double duration = 20.0;
  double warmup = 5.0;
  std::uint64_t seed = 1;

  rla::RlaParams rla{};
  tcp::TcpParams tcp{};

  /// Replay hook (bench/replay_support.hpp), applied right after the
  /// simulator is constructed.
  std::function<void(sim::Simulator&)> instrument;
};

struct BigTreeResult {
  FlowRow rla;
  std::vector<FlowRow> tcps;  // one per congested group
  const FlowRow& worst_tcp() const { return tcps[worst_index(tcps)]; }
  const FlowRow& best_tcp() const { return tcps[best_index(tcps)]; }

  int nodes = 0;
  int groups = 0;
  double bottleneck_drop_rate = 0.0;  // mean over the congested forward hops
  /// Packets dropped anywhere EXCEPT the congested forward hops — feedback
  /// implosion shows up here (ACK fan-in overflowing interior buffers), and
  /// a large value means the bench is measuring queue sizing, not fairness.
  std::uint64_t offpath_drops = 0;

  std::uint64_t acks = 0;             // ACKs processed by the sender
  std::uint64_t events = 0;           // scheduler events dispatched
  std::uint64_t mcast_rexmits = 0;
  std::uint64_t ucast_rexmits = 0;
  int troubled_final = 0;
  int active_final = 0;

  /// Sender memory for the per-receiver machinery (rla::ReceiverTable +
  /// census + send info), sampled at end of run and at its high water.
  std::size_t sender_state_bytes = 0;
  std::size_t sender_state_bytes_hiwater = 0;
  /// The historical one-scoreboard-per-receiver cost of the same state —
  /// the denominator of the scale bench's memory-ratio headline.
  std::size_t baseline_state_bytes = 0;
  std::size_t materialized_final = 0;
  std::size_t materialized_hiwater = 0;
};

BigTreeResult run_big_tree(const BigTreeConfig& cfg);

}  // namespace rlacast::topo
