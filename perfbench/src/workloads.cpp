#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "model/formulas.hpp"
#include "topo/big_tree.hpp"
#include "topo/tertiary_tree.hpp"

namespace perfbench {
namespace {

using namespace rlacast;

// Run lengths and inputs per run. A run covers many short simulations rather
// than a few long ones: work per simulated second differs between seeds (by
// ~10 % at 20 s on the tertiary tree, growing to ~25 % at 60 s as RLA's
// share of the bottleneck drifts), so many seeds per run make the run's
// median steady. At n = 10^4 the sender hears ~3*10^5 member ACKs per
// simulated second; 2 s already holds a 3*10^5-entry heap.
constexpr double kTreeDuration = 20.0;
constexpr double kTreeWarmup = 5.0;
constexpr double kScaleDuration = 2.0;
constexpr double kScaleWarmup = 1.0;
constexpr int kScaleReceivers = 10000;
constexpr int kScaleGroupSize = 100;
constexpr int kFig7Inputs = 25;
constexpr int kWebInputs = 45;
constexpr int kScaleInputs = 20;
// Wall seconds of one pass over a run's inputs on the development VM (4-vCPU
// KVM guest, RelWithDebInfo build); they size passes_per_run.
constexpr double kFig7PassSeconds = 11.0;
constexpr double kWebPassSeconds = 11.0;
constexpr double kScalePassSeconds = 60.0;

/// FNV-1a over the raw bytes of every value fed to it; doubles go in by bit
/// pattern, so two digests agree only for bit-identical results.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const topo::FlowRow& r) {
    add(r.throughput_pps);
    add(r.avg_cwnd);
    add(r.avg_rtt);
    add(r.cong_signals);
    add(r.window_cuts);
    add(r.forced_cuts);
    add(r.timeouts);
  }
  template <typename T>
  void add_all(const std::vector<T>& vs) {
    add(vs.size());
    for (const T& v : vs) add(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t timeouts_of(const std::vector<topo::FlowRow>& rows) {
  std::uint64_t n = 0;
  for (const auto& r : rows) n += r.timeouts;
  return n;
}

/// RLA / worst-TCP throughput against a Theorem band.
void band_check(RunOutcome& out, double rla_pps, double worst_tcp_pps,
                const model::Bounds& band, const char* theorem) {
  const double ratio = worst_tcp_pps > 0.0 ? rla_pps / worst_tcp_pps : 0.0;
  out.correct = band.contains(ratio);
  char buf[160];
  std::snprintf(buf, sizeof buf, "RLA/WTCP %.4f %s band (%.4g, %.4g) %s",
                ratio, theorem, band.lo, band.hi,
                out.correct ? "inside" : "OUTSIDE");
  out.check = buf;
}

template <typename Fn>
auto timed(double& wall_s, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto res = fn();
  wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  return res;
}

RunOutcome run_tree(Workload w, std::uint64_t seed, bool full,
                    const Instrument& instrument) {
  topo::TreeConfig cfg;
  if (w == Workload::kFig7L1DropTail) {
    cfg.bottleneck = topo::TreeCase::kL1;
    cfg.gateway = topo::GatewayType::kDropTail;
  } else {
    cfg.bottleneck = topo::TreeCase::kL4All;
    cfg.gateway = topo::GatewayType::kRed;
    cfg.traffic.kind = workload::TrafficKind::kWeb;
  }
  cfg.duration = full ? kTreeDuration : 0.0;
  cfg.warmup = full ? kTreeWarmup : 0.0;
  cfg.seed = seed;
  cfg.instrument = instrument;

  RunOutcome out;
  const topo::TreeResult res =
      timed(out.wall_s, [&] { return topo::run_tertiary_tree(cfg); });

  Digest d;
  d.add_all(res.rla);
  d.add_all(res.tcps);
  d.add_all(res.rla_signals_per_receiver);
  d.add_all(res.tcp_signals);
  d.add_all(res.bottleneck_drop_rate);
  d.add(res.num_troubled_final);
  d.add(res.rla_mcast_rexmits);
  d.add(res.rla_ucast_rexmits);
  d.add(res.web_flows_started);
  d.add(res.web_flows_completed);
  d.add(res.workload_fingerprint);
  out.digest = d.value();
  out.rla_rexmits = res.rla_mcast_rexmits + res.rla_ucast_rexmits;
  out.tcp_timeouts = timeouts_of(res.tcps);
  if (!full) return out;

  if (w == Workload::kFig7L1DropTail) {
    band_check(out, res.rla.front().throughput_pps,
               res.worst_tcp().throughput_pps,
               model::theorem2_droptail_bounds(27), "Theorem II");
  } else {
    // Web users are application-limited, so their throughput is no band
    // evidence; the run must instead complete flows, and its flow schedule
    // (workload_fingerprint, part of the digest) must repeat per seed.
    out.correct = res.web_flows_completed > 0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "web flows %d started, %d completed, fingerprint %016llx",
                  res.web_flows_started, res.web_flows_completed,
                  static_cast<unsigned long long>(res.workload_fingerprint));
    out.check = buf;
  }
  return out;
}

RunOutcome run_scale(std::uint64_t seed, bool full,
                     const Instrument& instrument) {
  topo::BigTreeConfig cfg;
  cfg.receivers = kScaleReceivers;
  cfg.group_size = kScaleGroupSize;
  cfg.gateway = topo::GatewayType::kRed;
  cfg.duration = full ? kScaleDuration : 0.0;
  cfg.warmup = full ? kScaleWarmup : 0.0;
  cfg.seed = seed;
  cfg.instrument = instrument;

  RunOutcome out;
  const topo::BigTreeResult res =
      timed(out.wall_s, [&] { return topo::run_big_tree(cfg); });

  Digest d;
  d.add(res.rla);
  d.add_all(res.tcps);
  d.add(res.bottleneck_drop_rate);
  d.add(res.offpath_drops);
  d.add(res.acks);
  d.add(res.events);
  d.add(res.mcast_rexmits);
  d.add(res.ucast_rexmits);
  d.add(res.troubled_final);
  d.add(res.active_final);
  d.add(res.sender_state_bytes);
  d.add(res.materialized_final);
  out.digest = d.value();
  out.rla_rexmits = res.mcast_rexmits + res.ucast_rexmits;
  out.tcp_timeouts = timeouts_of(res.tcps);
  if (full)
    band_check(out, res.rla.throughput_pps, res.worst_tcp().throughput_pps,
               model::theorem1_red_bounds(kScaleReceivers), "Theorem I");
  return out;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "fig7-l1-droptail") return Workload::kFig7L1DropTail;
  if (name == "scale-n10k-red") return Workload::kScaleN10kRed;
  if (name == "web-l4-red") return Workload::kWebL4Red;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double sim_seconds(Workload w) {
  return w == Workload::kScaleN10kRed ? kScaleDuration : kTreeDuration;
}

int inputs_per_run(Workload w) {
  switch (w) {
    case Workload::kFig7L1DropTail:
      return kFig7Inputs;
    case Workload::kScaleN10kRed:
      return kScaleInputs;
    case Workload::kWebL4Red:
      return kWebInputs;
  }
  return 1;
}

int passes_per_run(Workload w, double seconds) {
  const double pass_s = w == Workload::kFig7L1DropTail ? kFig7PassSeconds
                        : w == Workload::kWebL4Red     ? kWebPassSeconds
                                                       : kScalePassSeconds;
  return std::max(1, static_cast<int>(seconds / pass_s));
}

std::uint64_t input_seed(std::uint64_t seed, int j) {
  // splitmix64 of (seed, j): distinct, well-mixed seeds for every input.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(j + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

RunOutcome run_workload(Workload w, std::uint64_t seed, bool full,
                        const Instrument& instrument) {
  return w == Workload::kScaleN10kRed ? run_scale(seed, full, instrument)
                                      : run_tree(w, seed, full, instrument);
}

}  // namespace perfbench
