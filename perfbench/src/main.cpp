// perfbench: runs one benchmark workload in this process, one simulation at
// a time on one thread, and prints one JSON result line on stdout (progress
// goes to stderr).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spin-fraction F]
//
// --seed N expands into the workload's fixed list of simulation seeds
// (perfbench::input_seed). --trace 0 measures the end-to-end metrics with
// tracing off, over perfbench::passes_per_run passes of those inputs:
//   sim_s_per_wall_s  median over inputs of each input's simulated seconds
//                     per wall second of its fastest runner call
//   setup_s           median over the blocks of back-to-back zero-duration
//                     runner calls made after every timed call of each
//                     block's fastest call
//   peak_rss_mib      peak RSS of this process after the first pass
// --trace 1 pairs traced and untraced calls of the first input and reports
// the per-layer metrics (see README.md), including the layer harnesses sized
// from the traced run and the trace's own overhead.
// --spin-fraction F (end-to-end only) is the injected regression that
// `run.py --inject-slowdown` selects: every timed call busy-waits in each
// dispatch, through the same instrument hook the trace uses, for F times the
// untraced wall time per dispatch.
//
// Every call is checked: it must not throw, must pass its workload's check
// (workloads.hpp), and must reproduce the digest of the first call of the
// same seed and kind, so a traced call must reproduce the untraced digest.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "layer_trace.hpp"
#include "workloads.hpp"

namespace {

using namespace rlacast;
using perfbench::Instrument;
using perfbench::LayerTrace;
using perfbench::RunOutcome;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Set-up time falls over the first ~20 back-to-back calls after a full
// simulation as caches refill, so a block's fastest call is a warm one.
constexpr int kSetupCallsPerBlock = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double spin_fraction = 0.0;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::string(v) == "1";
      if (!a.trace && std::string(v) != "0") return std::nullopt;
    } else if (flag == "--spin-fraction") {
      a.spin_fraction = std::strtod(v, &end);
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 != 1 || !have_workload || !(a.seconds > 0.0) ||
      a.spin_fraction < 0.0)
    return std::nullopt;
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs calls and keeps the tally: a call fails when it throws, fails its
/// workload's check, or disagrees with the first digest of its seed and
/// kind (full or set-up).
class Checker {
 public:
  explicit Checker(Workload w) : w_(w) {}

  std::optional<RunOutcome> call(std::uint64_t seed, bool full,
                                 const char* label,
                                 const Instrument& instrument = {}) {
    ++attempted_;
    try {
      RunOutcome out = perfbench::run_workload(w_, seed, full, instrument);
      const auto ref = digests_.try_emplace({seed, full}, out.digest).first;
      const bool same = ref->second == out.digest;
      if (full)
        std::fprintf(stderr,
                     "  %-9s seed %20llu  wall %8.4f s  digest %016llx%s  %s\n",
                     label, static_cast<unsigned long long>(seed), out.wall_s,
                     static_cast<unsigned long long>(out.digest),
                     same ? "" : " (MISMATCH)", out.check.c_str());
      if (!same || !out.correct) {
        ++failed_;
        return std::nullopt;
      }
      return out;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "  %-9s threw: %s\n", label, e.what());
      ++failed_;
      return std::nullopt;
    }
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  Workload w_;
  std::map<std::pair<std::uint64_t, bool>, std::uint64_t> digests_;
  int attempted_ = 0;
  int failed_ = 0;
};

/// The injected regression: busy-waits `spin_ns` in every dispatch. With
/// spin_ns == 0 it only counts dispatches, which sizes the wait.
class SpinObserver final : public replay::RunObserver {
 public:
  explicit SpinObserver(double spin_ns) : spin_ns_(spin_ns) {}
  std::uint32_t on_stream(std::string_view /*label*/) override {
    return streams_++;
  }
  void on_draw(std::uint32_t /*stream*/, std::uint64_t /*index*/) override {}
  void on_dispatch(std::uint64_t /*seq*/, double /*at*/) override {
    ++dispatches_;
    if (spin_ns_ <= 0.0) return;
    const auto t0 = Clock::now();
    while (std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() < spin_ns_) {
    }
  }
  void attach(std::string /*id*/,
              const replay::Snapshotable* /*component*/) override {}
  void detach(const replay::Snapshotable* /*component*/) override {}
  std::uint64_t dispatches() const { return dispatches_; }

 private:
  double spin_ns_;
  std::uint32_t streams_ = 0;
  std::uint64_t dispatches_ = 0;
};

template <typename Observer>
Instrument observe(Observer& obs) {
  return [&obs](sim::Simulator& s) { s.set_observer(&obs); };
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

void print_result(const Checker& c, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              c.failed() == 0 && c.attempted() > 0 ? "true" : "false",
              c.attempted(), c.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name,
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

/// Peak RSS of this address space: VmHWM from /proc/self/status. Not
/// getrusage's ru_maxrss, which Linux carries across execve, so a process
/// started from a larger parent (run.py's Python) would report the
/// parent's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:"))
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

Metrics end_to_end(const Args& a, Workload w, Checker& c) {
  const double sim_s = perfbench::sim_seconds(w);
  const int inputs = perfbench::inputs_per_run(w);
  const std::uint64_t first_input = perfbench::input_seed(a.seed, 0);
  // One untimed full call, so caches, the allocator and lazily grown
  // storage are warm before anything is timed.
  const auto warm = c.call(first_input, true, "warm-up");

  double spin_ns = 0.0;
  if (a.spin_fraction > 0.0 && warm) {
    SpinObserver counter(0.0);
    c.call(first_input, true, "count", observe(counter));
    spin_ns = a.spin_fraction * warm->wall_s * 1e9 /
              static_cast<double>(std::max<std::uint64_t>(counter.dispatches(), 1));
    std::fprintf(stderr, "  injected wait %.1f ns per dispatch\n", spin_ns);
  }
  SpinObserver spinner(spin_ns);
  const Instrument timed_hook = spin_ns > 0.0 ? observe(spinner) : Instrument{};

  // A fixed number of passes over the run's inputs. Work per simulated
  // second differs between inputs by ~10 %, and the host slows single calls
  // by up to 40 % for seconds at a time. So each input's rate comes from its
  // fastest call, the passes spread an input's calls over the run, and the
  // run reports the median over inputs. A block of back-to-back set-up calls
  // follows every timed call, so set-up is timed over the same span of host
  // conditions; a block's fastest call escapes the caches the simulation
  // before it left cold, and most of the host's hiccups.
  const int passes = perfbench::passes_per_run(w, a.seconds);
  std::vector<std::vector<double>> walls(static_cast<std::size_t>(inputs));
  std::vector<double> setup_walls;
  double rss_mib = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    for (int j = 0; j < inputs; ++j) {
      const std::uint64_t seed = perfbench::input_seed(a.seed, j);
      if (const auto out = c.call(seed, true, "timed", timed_hook))
        walls[static_cast<std::size_t>(j)].push_back(out->wall_s);
      std::vector<double> block;
      for (int i = 0; i < kSetupCallsPerBlock; ++i)
        if (const auto out = c.call(seed, false, "setup"))
          block.push_back(out->wall_s);
      if (!block.empty())
        setup_walls.push_back(*std::min_element(block.begin(), block.end()));
    }
    // Peak RSS after the first pass, the same work on every host.
    if (pass == 0) rss_mib = peak_rss_mib();
  }
  std::vector<double> rates;
  for (const auto& v : walls)
    if (!v.empty()) rates.push_back(sim_s / *std::min_element(v.begin(), v.end()));
  std::fprintf(stderr, "  %d passes over %d inputs\n", passes, inputs);

  return {{"sim_s_per_wall_s", median(rates), "sim-s/s"},
          {"setup_s", median(setup_walls), "s"},
          {"peak_rss_mib", rss_mib, "MiB"}};
}

Metrics per_layer(const Args& a, Workload w, Checker& c) {
  const double sim_s = perfbench::sim_seconds(w);
  const std::uint64_t seed = perfbench::input_seed(a.seed, 0);
  const auto warm = c.call(seed, true, "untraced");

  // Traced and untraced calls alternate, each pair swapping which goes
  // first; the first trace's counts describe the run (they repeat exactly
  // per seed) and the timing histograms pool every traced call.
  std::optional<LayerTrace::Totals> first;
  perfbench::NsHistogram dispatch_ns;
  perfbench::NsHistogram ack_ns;
  double dispatch_total = 0.0;
  double ack_total = 0.0;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::optional<RunOutcome> outcome = warm;
  const auto t0 = Clock::now();
  for (int pair = 0; pair < 1 || since(t0) < a.seconds; ++pair) {
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (pair % 2 == 0)) {
        LayerTrace trace;
        const auto out = c.call(seed, true, "traced", observe(trace));
        if (!out) continue;
        traced_walls.push_back(out->wall_s);
        const LayerTrace::Totals& t = trace.totals();
        if (!first) first = t;
        if (!outcome) outcome = out;
        dispatch_ns.merge(t.dispatch_ns);
        ack_ns.merge(t.ack_ns);
        dispatch_total += t.dispatch_total_ns;
        ack_total += t.ack_total_ns;
      } else if (const auto out = c.call(seed, true, "untraced")) {
        untraced_walls.push_back(out->wall_s);
      }
    }
  }
  // Without a clean traced call the run has already failed; the metrics are
  // still all printed (as zeros where nothing was read).
  const LayerTrace::Totals t = first.value_or(LayerTrace::Totals{});
  if (!outcome) outcome = RunOutcome{};
  const double mean_cwnd =
      ratio(t.cwnd_sum, static_cast<double>(t.cwnd_samples));
  std::fprintf(stderr,
               "  harness shapes: depth %zu, bottleneck %.6g bit/s %s buffer "
               "%zu, n %zu, mean cwnd %.3f\n",
               t.heap_hiwater, t.bottleneck.bandwidth_bps,
               t.bottleneck.queue == net::QueueKind::kRed ? "RED" : "drop-tail",
               t.bottleneck.buffer_pkts, t.rla_receivers, mean_cwnd);
  const auto u = [](auto v) { return static_cast<double>(v); };
  return {
      {"sim.dispatches_per_sim_s", u(t.dispatched) / sim_s, "1/sim-s"},
      {"sim.heap_hiwater", u(t.heap_hiwater), "entries"},
      {"sim.dispatch_yield",
       ratio(u(t.dispatched), u(t.scheduled + t.rescheduled)), "ratio"},
      {"sim.dispatch_ns.p50", dispatch_ns.quantile(0.50), "ns"},
      {"sim.dispatch_ns.p99", dispatch_ns.quantile(0.99), "ns"},
      {"sim.event_ns", perfbench::event_ns(t.heap_hiwater, seed), "ns"},
      {"net.hops_per_sim_s", u(t.hops) / sim_s, "1/sim-s"},
      {"net.inflight_hiwater", u(t.inflight_hiwater), "packets"},
      {"net.queue_drop_rate",
       ratio(u(t.dropped), u(t.enqueued + t.dropped)), "ratio"},
      {"net.red_draws_per_sim_s", u(t.red_draws) / sim_s, "1/sim-s"},
      {"net.pacer_draws_per_sim_s", u(t.pacer_draws) / sim_s, "1/sim-s"},
      {"net.hop_ns", perfbench::hop_ns(t.bottleneck, seed), "ns"},
      {"rla.acks_per_sim_s", u(t.rla_acks) / sim_s, "1/sim-s"},
      {"rla.ack_ns.p50", ack_ns.quantile(0.50), "ns"},
      {"rla.ack_ns.p99", ack_ns.quantile(0.99), "ns"},
      {"rla.ack_share", ratio(ack_total, dispatch_total), "ratio"},
      {"rla.sender_bytes_per_rcvr",
       ratio(u(t.rla_state_bytes), u(t.rla_receivers)), "B"},
      {"rla.rexmits_per_sim_s", u(outcome->rla_rexmits) / sim_s, "1/sim-s"},
      {"cc.census_ns_per_signal",
       perfbench::census_ns_per_signal(static_cast<int>(t.rla_receivers), seed),
       "ns"},
      {"cc.scoreboard_ns_per_ack", perfbench::scoreboard_ns_per_ack(mean_cwnd),
       "ns"},
      {"tcp.flows_opened_per_sim_s", u(t.tcp_flows_opened) / sim_s, "1/sim-s"},
      {"tcp.timeouts_per_sim_s", u(outcome->tcp_timeouts) / sim_s, "1/sim-s"},
      {"trace.overhead",
       ratio(median(traced_walls), median(untraced_walls)), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spin-fraction F]\n");
    return 2;
  }
  Workload w{};
  try {
    w = perfbench::parse_workload(args->workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu, %s\n", args->workload.c_str(),
               static_cast<unsigned long long>(args->seed),
               args->trace ? "traced pass" : "end to end");
  Checker checker(w);
  try {
    const Metrics m = args->trace ? per_layer(*args, w, checker)
                                  : end_to_end(*args, w, checker);
    print_result(checker, m);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
