// Deterministic random-number streams.
//
// Every stochastic component (RED drop decisions, RLA listening coin flips,
// random sender overhead used to break phase effects, start-time jitter)
// draws from its own named stream.  Streams are derived from a single master
// seed, so (a) runs are exactly reproducible, and (b) changing the amount of
// randomness one component consumes does not perturb the others — essential
// when comparing drop-tail vs RED runs of the same scenario.
//
// Each stream also audits itself: draw_count() is a monotonic cursor over
// the distribution-level draws made so far, and when the owning Simulator
// carries a replay::RunObserver every draw is reported as (stream id, draw
// index) — the raw material of the run journal.  A helper like chance()
// that is implemented in terms of uniform() counts as ONE draw.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>

#include "replay/snapshot.hpp"

namespace rlacast::sim {

/// A single random stream. Thin wrapper over a 64-bit Mersenne twister with
/// the distributions this project needs.
///
/// The twister's 2.5 kB of state is built on the heap at the stream's first
/// draw, from the seed kept until then: many streams (a RED queue that never
/// reaches min_th, a web connection's unused pacers) never draw, and a
/// stream that does draws exactly what an eagerly seeded engine would.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {}

  /// An observed stream: every draw is reported to `observer` under
  /// `stream_id` (assigned by the observer at stream creation).
  Rng(std::uint64_t seed, replay::RunObserver* observer,
      std::uint32_t stream_id)
      : seed_(seed), observer_(observer), stream_id_(stream_id) {}

  /// Uniform double in [0, 1).
  double uniform() {
    note_draw();
    return unit_(engine());
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    note_draw();
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
  }

  /// Exponentially distributed double with the given mean.
  double exponential(double mean) {
    note_draw();
    return std::exponential_distribution<double>(1.0 / mean)(engine());
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Number of distribution-level draws made from this stream so far.
  /// Monotonic; equal across two runs iff the component consumed the same
  /// amount of randomness in both.
  std::uint64_t draw_count() const { return draws_; }

  /// The underlying engine, seeded on first use.
  std::mt19937_64& engine() {
    if (!engine_) engine_ = std::make_unique<std::mt19937_64>(seed_);
    return *engine_;
  }

 private:
  void note_draw() {
    ++draws_;
    if (observer_ != nullptr) observer_->on_draw(stream_id_, draws_);
  }

  std::unique_ptr<std::mt19937_64> engine_;  // null until the first draw
  std::uint64_t seed_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::uint64_t draws_ = 0;
  replay::RunObserver* observer_ = nullptr;
  std::uint32_t stream_id_ = 0;
};

/// Derives per-component seeds from a master seed and a component name, via
/// FNV-1a hashing followed by splitmix64 finalization.  Deterministic across
/// platforms (no dependence on std::hash).
class SeedSequence {
 public:
  explicit SeedSequence(std::uint64_t master_seed) : master_(master_seed) {}

  std::uint64_t seed_for(std::string_view component) const;

  /// Convenience: construct a stream for a component.
  Rng stream(std::string_view component) const {
    return Rng(seed_for(component));
  }

  std::uint64_t master() const { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace rlacast::sim
