// Simulator: the top-level context object for a run.
//
// Owns the scheduler and the seed sequence.  Every component in the network
// substrate receives a Simulator& at construction; there is no global state,
// so tests can run many simulators side by side.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "replay/snapshot.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rlacast::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t master_seed = 1)
      : seeds_(master_seed) {}

  /// Detaches the scheduler from any installed observer — an observer (a
  /// replay Recorder taking its final checkpoint) routinely outlives the
  /// Simulator.
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return scheduler_.now(); }

  /// Schedules a callback `delay` seconds from now.
  EventId after(SimTime delay, Scheduler::Callback cb) {
    return scheduler_.schedule_at(now() + delay, std::move(cb));
  }

  /// Schedules a callback at an absolute time.
  EventId at(SimTime when, Scheduler::Callback cb) {
    return scheduler_.schedule_at(when, std::move(cb));
  }

  /// Retargets a pending event in place (see Scheduler::reschedule_at).
  EventId reschedule_at(EventId id, SimTime when) {
    return scheduler_.reschedule_at(id, when);
  }

  void cancel(EventId id) { scheduler_.cancel(id); }

  void run_until(SimTime until) { scheduler_.run_until(until); }
  void run_all() { scheduler_.run_all(); }

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  const SeedSequence& seeds() const { return seeds_; }

  /// Creates a named deterministic random stream.  Stream labels must be
  /// unique within a run (each component owns its randomness); a duplicate
  /// label trips an assert in debug builds — two streams with one label
  /// would be correlated AND would corrupt the per-stream draw cursors the
  /// replay journal keys on.
  Rng rng_stream(std::string_view component);

  /// Installs (or clears, with nullptr) the determinism observer for this
  /// run: the scheduler reports dispatches to it, every subsequently
  /// created RNG stream reports its draws, and the scheduler itself is
  /// attached for checkpoints under the id "scheduler".  Install before
  /// building the network — streams created earlier go unobserved.
  void set_observer(replay::RunObserver* observer);
  replay::RunObserver* observer() const { return observer_; }

 private:
  Scheduler scheduler_;
  SeedSequence seeds_;
  replay::RunObserver* observer_ = nullptr;
#ifndef NDEBUG
  std::vector<std::string> stream_labels_;  // duplicate-label audit
#endif
};

/// A restartable one-shot timer bound to a simulator, used for protocol
/// retransmission timers, monitor ticks, and rate pacing.
///
/// Re-arming an armed timer retargets the pending event in place through the
/// scheduler's handle API — the event's inline callback stays in its slab
/// slot, so the ACK-clocked "restart the rexmit timer on every ACK" pattern
/// performs zero heap allocations and no cancel+reschedule churn.
class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}

  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer `delay` seconds from now.
  void schedule(SimTime delay) { schedule_at(sim_.now() + delay); }

  /// (Re)arms the timer to fire at absolute time `when`.
  void schedule_at(SimTime when) {
    expiry_ = when;
    if (id_ != kInvalidEventId) {
      // Armed: retarget the pending event in place.
      id_ = sim_.reschedule_at(id_, when);
      if (id_ != kInvalidEventId) return;
    }
    auto fire = [this] {
      id_ = kInvalidEventId;
      on_fire_();
    };
    static_assert(SmallCallback::fits_inline<decltype(fire)>(),
                  "timer events must use the inline callback path");
    id_ = sim_.at(when, std::move(fire));
  }

  void cancel() {
    if (id_ != kInvalidEventId) {
      sim_.cancel(id_);
      id_ = kInvalidEventId;
    }
  }

  bool armed() const { return id_ != kInvalidEventId; }

  /// Absolute expiry time of the currently armed timer (meaningless if not
  /// armed).
  SimTime expiry() const { return expiry_; }

 private:
  Simulator& sim_;
  std::function<void()> on_fire_;
  EventId id_ = kInvalidEventId;
  SimTime expiry_ = 0.0;
};

}  // namespace rlacast::sim
