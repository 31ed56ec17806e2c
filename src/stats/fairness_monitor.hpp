// Continuous fairness telemetry: a timer-polled sliding-window Jain index
// over a set of flows (its demand-aware form is part (c) of ROADMAP "Runs
// that explain themselves").
//
// The paper's Theorems I/II bound the *ratio* of the RLA session's
// throughput to TCP's; the Jain index J = (sum x)^2 / (n * sum x^2)
// compresses the same per-window throughput vector into one number in
// (1/n, 1] — J = 1 is a perfectly fair window, J = 1/n is one flow
// starving the rest.  The monitor emits one FairnessSample per window so
// benches can plot a time series and report the minimum (the worst
// transient), not just the run-long average that hides convergence.
//
// Application-limited exclusion: a flow that WON'T use its share — a web
// flow between requests, a finite flow's tail, a source that has not
// started — is not evidence about a flow that CAN'T get its share.  Each
// probe carries an app_limited() predicate; a flow that reports limited at
// either window edge (or made no progress at all while limited) is dropped
// from that window's index, and the sample records how many flows were
// excluded.  With every flow excluded the window yields no index
// (jain = -1) and is skipped by min/mean.
//
// Determinism: the monitor draws no randomness and, when config.window is
// 0 (the default everywhere), arms no timer and touches nothing — the four
// historical figure benches stay byte-identical with the monitor compiled
// in but idle.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rlacast::stats {

struct FairnessMonitorConfig {
  /// Sliding-window length in seconds; 0 disables the monitor entirely
  /// (no timer, no samples).
  sim::SimTime window = 0.0;
  /// First window starts here (benches pass the warmup boundary).
  sim::SimTime start = 0.0;
  /// No windows start at or after this time; 0 = run forever.
  sim::SimTime stop = 0.0;
};

/// One monitored flow: a name for reports, a cumulative delivered-packets
/// reader, and the application-limited predicate sampled at window edges.
struct FlowProbe {
  std::string name;
  std::function<double()> delivered;     // cumulative packets acked
  std::function<bool()> app_limited;     // true = don't count this window
};

/// One completed window.
struct FairnessSample {
  sim::SimTime t_end = 0.0;  // window [t_end - window, t_end]
  /// Jain index over the network-limited flows; -1 when every flow was
  /// application-limited (no evidence this window).
  double jain = -1.0;
  int flows_counted = 0;
  int flows_app_limited = 0;
  /// Per-flow throughput (pps) this window, probe order; -1 for excluded
  /// flows so series stay column-aligned.
  std::vector<double> throughput_pps;
};

class FairnessMonitor {
 public:
  /// Probes may be added until the first window closes. The monitor arms
  /// its timer lazily on the first add_probe call (and only if
  /// config.window > 0), so an unconfigured monitor is inert.
  FairnessMonitor(sim::Simulator& sim, FairnessMonitorConfig config);

  void add_probe(FlowProbe probe);

  bool enabled() const { return config_.window > 0.0; }
  const std::vector<FairnessSample>& samples() const { return samples_; }

  /// Minimum/mean Jain index over windows that produced evidence (jain >=
  /// 0); -1 when no window did.
  double min_jain() const;
  double mean_jain() const;

  /// J = (sum x)^2 / (n * sum x^2) over xs; -1 for an empty vector, 1.0
  /// when every entry is 0 (all-idle is trivially fair). Never NaN: a
  /// non-finite result degrades to the -1 "no evidence" sentinel.
  static double jain_index(const std::vector<double>& xs);

 private:
  void on_window();

  sim::Simulator& sim_;
  FairnessMonitorConfig config_;
  sim::Timer timer_;
  bool armed_ = false;
  sim::SimTime window_start_ = 0.0;

  struct ProbeState {
    FlowProbe probe;
    double delivered_at_start = 0.0;
    bool limited_at_start = true;  // pre-start flows begin excluded
  };
  std::vector<ProbeState> probes_;
  std::vector<FairnessSample> samples_;
};

}  // namespace rlacast::stats
