// The benchmark's three workloads, run through the public topology runners
// (topo::run_tertiary_tree, topo::run_big_tree), and the check every run of
// them must pass.
//
// A workload fixes only topology, gateway, n, group size, traffic kind,
// duration, warm-up and seed. Every other parameter stays at its library
// default, so a change that deletes a knob never has to edit the benchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulator.hpp"

namespace perfbench {

enum class Workload {
  kFig7L1DropTail,  // Figure 7 case 1: engine-bound, 27 FTPs, send jitter
  kScaleN10kRed,    // run_big_tree at n = 10^4: ACK-bound, deep heap
  kWebL4Red,        // web users over 27 RED leaves: connection churn
};

/// Parses a workload name as BENCHMARK.json spells it; throws
/// std::invalid_argument for anything else.
Workload parse_workload(const std::string& name);

/// Simulated seconds one full-length run of `w` covers.
double sim_seconds(Workload w);

/// How many distinct inputs (simulation seeds) one benchmark run of `w`
/// covers. Work per simulated second differs between seeds by tens of
/// percent (RLA's share of the bottleneck, retransmission episodes), so a
/// run averages over a fixed set of them.
int inputs_per_run(Workload w);

/// How many passes over its inputs an end-to-end run of `w` makes when given
/// `seconds` to measure: floor(seconds / one pass's wall time on the
/// development VM), at least one. It depends on nothing else, so every
/// commit times each input the same number of times, whatever the speed of
/// the program or the host.
int passes_per_run(Workload w, double seconds);

/// The simulation seed of input `j` of the run with benchmark seed `seed`.
std::uint64_t input_seed(std::uint64_t seed, int j);

/// Called on the runner's freshly built Simulator (the runners' `instrument`
/// hook); empty runs the workload unobserved.
using Instrument = std::function<void(rlacast::sim::Simulator&)>;

/// One runner call, reduced to what the benchmark reports and checks.
struct RunOutcome {
  double wall_s = 0.0;       // wall time of the runner call alone
  std::uint64_t digest = 0;  // FNV-1a over every result row and total
  bool correct = true;       // the workload's correctness check passed
  std::string check;         // what the check saw, for the log
  std::uint64_t rla_rexmits = 0;   // multicast + unicast retransmissions
  std::uint64_t tcp_timeouts = 0;  // summed over the TCP rows
};

/// Runs `w` once with `seed`. A full run covers sim_seconds(w) and is
/// checked; a set-up run has zero simulated duration (topology, routes,
/// group joins, sessions and teardown only) and is not.
RunOutcome run_workload(Workload w, std::uint64_t seed, bool full,
                        const Instrument& instrument = {});

}  // namespace perfbench
