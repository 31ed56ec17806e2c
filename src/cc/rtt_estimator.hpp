// Jacobson/Karels round-trip-time estimation and RTO computation,
// with Karn's rule applied by the caller (samples from retransmitted
// packets are never fed in).
//
// This is the single estimator both the TCP sender (one instance) and the
// RLA sender (one instance per receiver) use; its constants are the one
// place the shared tuning lives, so a change cannot silently diverge the
// two controllers.
#pragma once

#include <algorithm>

#include "replay/snapshot.hpp"
#include "sim/time.hpp"

namespace rlacast::cc {

class RttEstimator : public replay::Snapshotable {
 public:
  static constexpr double kAlpha = 0.125;  // srtt gain (RFC 6298)
  static constexpr double kBeta = 0.25;    // rttvar gain
  static constexpr sim::SimTime kMinRto = 0.2;
  static constexpr sim::SimTime kMaxRto = 64.0;
  static constexpr sim::SimTime kInitialRto = 3.0;

  void add_sample(sim::SimTime rtt) {
    if (!valid_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2.0;
      valid_ = true;
    } else {
      rttvar_ += kBeta * (std::abs(srtt_ - rtt) - rttvar_);
      srtt_ += kAlpha * (rtt - srtt_);
    }
    rto_ = std::clamp(srtt_ + 4.0 * rttvar_, kMinRto, kMaxRto);
    backoff_ = 1.0;
  }

  /// Exponential backoff after a retransmission timeout.
  void back_off() { backoff_ = std::min(backoff_ * 2.0, 64.0); }

  /// Clears the backoff without a new sample — called on forward progress
  /// (cumulative ACK advance), since Karn's rule blocks samples from
  /// retransmitted packets and would otherwise pin the timer at its
  /// backed-off value after a timeout-driven recovery.
  void reset_backoff() { backoff_ = 1.0; }

  sim::SimTime rto() const {
    return std::min(rto_ * backoff_, kMaxRto);
  }
  sim::SimTime srtt() const { return valid_ ? srtt_ : kInitialRto / 2.0; }
  sim::SimTime rttvar() const { return rttvar_; }
  bool valid() const { return valid_; }

  /// Checkpoint state: the full estimator (bit-exact doubles), so RTT
  /// sample reordering between runs is caught at the next checkpoint.
  replay::Snapshot snapshot_state() const override {
    replay::Snapshot s;
    s.put("valid", valid_);
    s.put("srtt", srtt_);
    s.put("rttvar", rttvar_);
    s.put("rto", rto_);
    s.put("backoff", backoff_);
    return s;
  }

 private:
  bool valid_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  double rto_ = kInitialRto;
  double backoff_ = 1.0;
};

}  // namespace rlacast::cc
