// Layer harnesses: each times only the public calls of one layer, in the
// shape one workload's traced run produced (pending depth, bottleneck link,
// membership n, mean cwnd), so it measures that workload's case rather than
// a fixed microbenchmark. Every result is the median over timed batches of
// nanoseconds per operation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/network.hpp"

namespace perfbench {

/// sim: Scheduler::schedule_at + run_one with `depth` events kept pending.
double event_ns(std::size_t depth, std::uint64_t seed);

/// net: Network::inject of one data packet through a single hop built from
/// `link`, until it is delivered at the far node.
double hop_ns(const rlacast::net::LinkConfig& link, std::uint64_t seed);

/// cc: TroubledCensus::on_signal + recompute + srtt_max over `n` members,
/// with the census configured from the RLA sender's default parameters.
double census_ns_per_signal(int n, std::uint64_t seed);

/// cc: Scoreboard::on_send + apply_sack + detect_losses + advance per ACK,
/// with `cwnd` packets outstanding.
double scoreboard_ns_per_ack(double cwnd);

}  // namespace perfbench
