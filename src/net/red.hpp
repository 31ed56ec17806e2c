// RED (Random Early Detection) gateway queue.
//
// Implements the estimator and drop policy of Floyd & Jacobson, "Random
// Early Detection Gateways for Congestion Avoidance" (ToN 1993), in the
// variant shipped with ns-2.0 — which is what the paper's evaluation used
// ("other parameters are the default values used in the standard NS2.0 RED
// gateway"):
//
//  * EWMA average queue size, updated on every arrival:
//        avg <- (1 - w_q) * avg + w_q * q
//    with idle-time compensation: when the queue has been empty for time t,
//    the average is aged as if m = t / s small packets had passed
//    (s = mean packet service time): avg <- avg * (1 - w_q)^m.
//  * if avg < min_th: no early drop (count reset);
//    if min_th <= avg < max_th: early-drop with probability
//        p_b = max_p * (avg - min_th) / (max_th - min_th)
//        p_a = p_b / (1 - count * p_b)           [uniformization by count]
//    where `count` is the number of packets since the last drop;
//    if avg >= max_th: forced drop.
//  * A physically full buffer always drops (the avg can lag the real queue).
//
// The paper's runs use min_th = 5, max_th = 15 with a physical buffer of 20.
#pragma once

#include "net/queue.hpp"
#include "sim/random.hpp"

namespace rlacast::net {

struct RedParams {
  std::size_t capacity = 20;   // physical buffer, packets
  double min_th = 5.0;         // packets
  double max_th = 15.0;        // packets
  double w_q = 0.002;          // EWMA gain (ns-2 default)
  double max_p = 0.1;          // ns-2 linterm_ = 10  =>  max_p = 0.1
  // Mean packet service time at the attached link, used for idle aging.
  // Network fills this in from link bandwidth and mean packet size when it
  // attaches the queue; 0 disables idle compensation.
  double mean_pkt_time = 0.0;
  // Byte accounting (ns-2 "queue in bytes" mode): with slot_bytes > 0 the
  // physical capacity is capacity * slot_bytes bytes and the averaged queue
  // length is measured in mean-packet units (bytes / slot_bytes), so ACKs
  // cost proportionally less than data packets. 0 keeps packet counting.
  std::int32_t slot_bytes = 0;
  // ECN: when true, an *early* RED decision marks ECN-capable packets
  // (CE bit) instead of dropping them; forced and overflow drops still
  // drop. Non-ECT packets are dropped as usual.
  bool ecn = false;
};

class RedQueue final : public Queue {
 public:
  RedQueue(RedParams params, sim::Rng rng)
      : params_(params), rng_(std::move(rng)) {}

  double avg() const { return avg_; }
  const RedParams& params() const { return params_; }

  /// Counters split by drop cause, for tests and the EXPERIMENTS writeup.
  std::uint64_t early_drops() const { return early_drops_; }
  std::uint64_t forced_drops() const { return forced_drops_; }
  std::uint64_t overflow_drops() const { return overflow_drops_; }
  std::uint64_t ecn_marks() const { return ecn_marks_; }

  /// Base counters plus the RED estimator internals (EWMA average, count
  /// since last drop, RNG draw cursor) — the state whose divergence is the
  /// classic symptom of an extra or missing early-drop coin flip.
  replay::Snapshot snapshot_state() const override {
    replay::Snapshot s = Queue::snapshot_state();
    s.put("avg", avg_);
    s.put("count", count_);
    s.put("bytes", bytes());
    s.put("idle", idle_);
    s.put("early_drops", early_drops_);
    s.put("forced_drops", forced_drops_);
    s.put("overflow_drops", overflow_drops_);
    s.put("ecn_marks", ecn_marks_);
    s.put("rng_draws", rng_.draw_count());
    return s;
  }

 private:
  Verdict admit(const Packet& p, sim::SimTime now) override;
  void went_idle(sim::SimTime now) override {
    idle_ = true;
    idle_since_ = now;
  }
  void age_idle(sim::SimTime now);

  /// Instantaneous queue length in the unit RED thresholds use (packets, or
  /// mean-packet equivalents in byte mode).
  double measured_length() const {
    return params_.slot_bytes > 0
               ? static_cast<double>(bytes()) / params_.slot_bytes
               : static_cast<double>(length());
  }

  RedParams params_;
  sim::Rng rng_;
  double avg_ = 0.0;
  std::int64_t count_ = -1;  // packets since last early drop; -1 = below min
  bool idle_ = true;
  sim::SimTime idle_since_ = 0.0;
  std::uint64_t early_drops_ = 0;
  std::uint64_t forced_drops_ = 0;
  std::uint64_t overflow_drops_ = 0;
  std::uint64_t ecn_marks_ = 0;
};

}  // namespace rlacast::net
