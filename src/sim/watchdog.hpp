// Watchdog: periodic invariant checker riding inside a simulation run.
//
// A Watchdog ticks at a fixed simulated period and evaluates registered
// checks — each a named predicate returning an empty string when healthy or
// a human-readable description of the violation.  Violations are recorded
// (with the simulated time they were observed) rather than thrown, so a run
// completes and the caller can report every invariant that broke.
//
// A built-in event-horizon progress check guards against the failure mode
// invariant checks cannot express from inside a wedged simulation: if the
// engine dispatches (almost) nothing across several consecutive ticks while
// events are still pending, the simulation is livelocked and a violation is
// recorded.  The watchdog reads simulated time only; bounding a run's wall
// time is the experiment runner's job (exp::RunnerOptions::timeout_seconds
// kills the run's process at the deadline).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rlacast::sim {

class Watchdog {
 public:
  struct Violation {
    std::string check;    // name of the check that fired
    std::string detail;   // what the check reported
    SimTime at = 0.0;     // simulated time of observation
  };

  /// `period` is the simulated interval between ticks.
  Watchdog(Simulator& sim, SimTime period);

  /// Registers a named invariant.  `check` returns "" when healthy, else a
  /// description of the violation.  Checks run at every tick, in
  /// registration order.  A check that keeps failing is recorded once per
  /// distinct detail string (no flooding).
  void add_check(std::string name, std::function<std::string()> check);

  /// Number of consecutive no-progress ticks (engine dispatching <= 1 event
  /// per tick while events remain pending) tolerated before the built-in
  /// progress check records a livelock violation.  0 disables the check.
  void set_progress_grace(int ticks) { progress_grace_ = ticks; }

  /// Starts ticking.  Call once, after the scenario is wired and before the
  /// event loop runs; the watchdog re-arms itself while events remain.
  void start();

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  std::uint64_t ticks() const { return ticks_; }

  /// One-line rendering of all violations ("" when ok) for error reporting.
  std::string report() const;

 private:
  void tick();
  void record(const std::string& check, const std::string& detail);

  Simulator& sim_;
  SimTime period_;
  std::vector<std::pair<std::string, std::function<std::string()>>> checks_;
  std::vector<Violation> violations_;
  int progress_grace_ = 5;
  int stalled_ticks_ = 0;
  std::uint64_t last_dispatched_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace rlacast::sim
