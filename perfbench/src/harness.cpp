#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "cc/scoreboard.hpp"
#include "cc/troubled_census.hpp"
#include "net/agent.hpp"
#include "rla/rla_params.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace rlacast;

namespace {

constexpr double kMinBatchSeconds = 0.02;
constexpr int kBatches = 7;
constexpr std::size_t kDrawRing = 4096;  // pre-drawn inputs, cycled

/// Doubles the batch size until one batch takes kMinBatchSeconds (which
/// also warms caches and lazily grown storage), then returns the median
/// over kBatches batches of nanoseconds per operation.
template <typename Batch>
double median_ns_per_op(Batch&& batch) {
  const auto time_batch = [&batch](std::int64_t ops) {
    const auto t0 = std::chrono::steady_clock::now();
    batch(ops);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::int64_t ops = 1;
  while (time_batch(ops) < kMinBatchSeconds && ops < (std::int64_t{1} << 40))
    ops *= 2;
  std::vector<double> per_op;
  for (int i = 0; i < kBatches; ++i)
    per_op.push_back(time_batch(ops) * 1e9 / static_cast<double>(ops));
  std::nth_element(per_op.begin(), per_op.begin() + kBatches / 2,
                   per_op.end());
  return per_op[kBatches / 2];
}

class CountingSink final : public net::Agent {
 public:
  void on_receive(const net::Packet& /*p*/) override { ++received; }
  std::uint64_t received = 0;
};

}  // namespace

double event_ns(std::size_t depth, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> delays(kDrawRing);
  for (double& d : delays) d = unit(rng);

  sim::Scheduler sched;
  std::uint64_t fired = 0;
  const auto cb = [&fired] { ++fired; };
  depth = std::max<std::size_t>(depth, 1);
  for (std::size_t i = 0; i < depth; ++i)
    sched.schedule_at(delays[i % kDrawRing], cb);
  std::size_t k = 0;
  const double ns = median_ns_per_op([&](std::int64_t ops) {
    for (std::int64_t i = 0; i < ops; ++i) {
      sched.schedule_at(sched.now() + delays[k++ % kDrawRing], cb);
      sched.run_one();
    }
  });
  if (sched.pending() != depth)
    throw std::runtime_error("event harness lost its pending depth");
  return ns;
}

double hop_ns(const net::LinkConfig& link, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net.connect(a, b, link);
  net.build_routes();
  CountingSink sink;
  net.attach(b, /*port=*/1, &sink);

  net::Packet p;
  p.type = net::PacketType::kData;
  p.flow = 1;
  p.src = a;
  p.dst = b;
  p.src_port = 1;
  p.dst_port = 1;
  p.size_bytes = net::kDataPacketBytes;
  std::uint64_t sent = 0;
  const double ns = median_ns_per_op([&](std::int64_t ops) {
    for (std::int64_t i = 0; i < ops; ++i) {
      p.seq = static_cast<net::SeqNum>(sent++);
      net.inject(p);
      sim.run_all();
    }
  });
  if (sink.received != sent)
    throw std::runtime_error("hop harness lost packets on an idle link");
  return ns;
}

double census_ns_per_signal(int n, std::uint64_t seed) {
  const rla::RlaParams params{};
  cc::TroubledCensus census(params.eta, params.signal_interval_gain);
  census.set_defense(params.defense);
  census.configure_sampling(params.census);
  n = std::max(n, 1);
  census.reserve(static_cast<std::size_t>(n));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> srtt(0.2, 0.25);
  for (int i = 0; i < n; ++i) {
    census.add_receiver();
    census.note_srtt(i, srtt(rng));
  }
  std::uniform_int_distribution<int> member(0, n - 1);
  std::vector<int> signallers(kDrawRing);
  for (int& m : signallers) m = member(rng);

  double t = 1.0;
  std::size_t k = 0;
  double guard = 0.0;
  const double ns = median_ns_per_op([&](std::int64_t ops) {
    for (std::int64_t i = 0; i < ops; ++i) {
      t += 0.001;
      census.on_signal(signallers[k++ % kDrawRing], t);
      census.recompute(t);
      guard += census.srtt_max();
    }
  });
  if (!(guard > 0.0)) throw std::runtime_error("census harness saw no srtt");
  return ns;
}

double scoreboard_ns_per_ack(double cwnd) {
  const auto window = static_cast<net::SeqNum>(std::max(1.0, std::round(cwnd)));
  cc::Scoreboard sb;
  for (net::SeqNum s = 0; s < window; ++s) sb.on_send(s);
  const double ns = median_ns_per_op([&](std::int64_t ops) {
    for (std::int64_t i = 0; i < ops; ++i) {
      sb.on_send(sb.high());
      // In-order delivery: the ACK SACKs the oldest packet and moves the
      // cumulative point past it, keeping `window` packets outstanding.
      const net::SackBlock block{sb.una(), sb.una() + 1};
      sb.apply_sack(&block, 1);
      sb.detect_losses(3);
      sb.advance(sb.una() + 1);
    }
  });
  if (sb.outstanding() != window)
    throw std::runtime_error("scoreboard harness lost its window");
  return ns;
}

}  // namespace perfbench
