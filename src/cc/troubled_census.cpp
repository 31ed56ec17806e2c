#include "cc/troubled_census.hpp"

#include <algorithm>
#include <cmath>

namespace rlacast::cc {

namespace {

/// Median/MAD clamp the defense applies to reported srtts before srtt_max
/// is taken (see robust_clamped_max).
constexpr double kSrttClampMads = 4.0;

}  // namespace

double robust_clamped_max(std::vector<double>& values, double k_mads) {
  if (values.empty()) return 0.0;
  const auto plain_max = *std::max_element(values.begin(), values.end());
  if (values.size() < 3 || k_mads <= 0.0) return plain_max;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double median = values[mid];
  // Absolute deviations reuse the same buffer (values is scratch).
  for (double& v : values) v = std::abs(v - median);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double mad = values[mid];
  // MAD == 0 means a majority sits exactly at the median; clamp outliers all
  // the way back to it (a tiny slack keeps honest ties unaffected).
  const double hi = median + (mad > 0.0 ? k_mads * 1.4826 * mad : 1e-12);
  return std::min(plain_max, std::max(hi, median));
}

int TroubledCensus::add_receiver() {
  const int idx = core_.add();
  membership_changed(idx, /*now_active=*/true);
  return idx;
}

void TroubledCensus::membership_changed(int i, bool now_active) {
  ++membership_version_;
  active_count_ += now_active ? 1 : -1;
  if (now_active)
    reservoir_.insert(i, core_);
  else
    reservoir_.erase(i, core_, active_count_);
}

void TroubledCensus::clear_troubled(int i) {
  const auto u = static_cast<std::size_t>(i);
  if (core_.troubled[u] != 0) {
    core_.troubled[u] = 0;
    --num_troubled_;
  }
}

void TroubledCensus::set_troubled(int i) {
  const auto u = static_cast<std::size_t>(i);
  if (core_.troubled[u] == 0) {
    core_.troubled[u] = 1;
    flagged_.push_back(i);
    ++num_troubled_;
  }
}

void TroubledCensus::on_signal(int i, sim::SimTime now) {
  if (core_.excluded(i)) return;
  core_.record_signal(i, now);
  ++total_signals_;
  last_signaller_ = i;
  if (defense_.enabled) rate_check(i, now);
}

void TroubledCensus::move(int i, MemberState to) {
  const bool was_out = core_.excluded(i);
  core_.state[static_cast<std::size_t>(i)] = to;
  const bool out = core_.excluded(i);
  if (out) clear_troubled(i);
  if (out != was_out) membership_changed(i, /*now_active=*/was_out);
}

void TroubledCensus::exclude(int i) { move(i, MemberState::kExcluded); }

void TroubledCensus::excise(int i) {
  if (!core_.excluded(i)) move(i, MemberState::kExcised);
}

void TroubledCensus::readmit(int i) {
  if (state(i) != MemberState::kExcised) return;
  core_.reset_epoch(i);
  move(i, MemberState::kActive);
}

void TroubledCensus::rate_check(int i, sim::SimTime now) {
  const auto u = static_cast<std::size_t>(i);
  if (core_.epoch_signal_count(i) < defense_.min_signals) return;
  const double mine = core_.effective_interval(i, now);
  if (mine <= 0.0) return;
  // Median interval over the OTHER sampled members — the same cohort every
  // other census aggregate is taken over.
  interval_scratch_.clear();
  for (const int j : reservoir_.sample()) {
    if (j == i) continue;
    const double e = core_.effective_interval(j, now);
    if (e > 0.0) interval_scratch_.push_back(e);
  }
  // With fewer than 2 honest peers there is no cohort to compare against.
  if (interval_scratch_.size() < 2) return;
  const std::size_t mid = interval_scratch_.size() / 2;
  std::nth_element(interval_scratch_.begin(),
                   interval_scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                   interval_scratch_.end());
  const double median = interval_scratch_[mid];
  const double factor =
      (core_.state[u] == MemberState::kProbation)
          ? defense_.probation_rate_factor
          : defense_.rate_factor;
  // Violation: signalling more than `factor` times faster than the median
  // peer.  The census minimum can be dragged by one liar; the median cannot.
  if (mine * factor < median) quarantine(i, now);
}

void TroubledCensus::quarantine(int i, sim::SimTime now) {
  const int strikes = core_.add_strike(i);
  ++quarantines_;
  if (defense_.max_strikes > 0 && strikes >= defense_.max_strikes) {
    ++strikeouts_;
    move(i, MemberState::kExcluded);
    return;
  }
  // Escalating dwell: strike k serves quarantine_seconds * 2^(k-1).
  const double dwell =
      defense_.quarantine_seconds * std::ldexp(1.0, strikes - 1);
  core_.set_state_until(i, now + dwell);
  next_state_check_ = std::min(next_state_check_, now + dwell);
  move(i, MemberState::kQuarantined);
}

void TroubledCensus::force_quarantine(int i, sim::SimTime now) {
  if (core_.excluded(i)) return;
  quarantine(i, now);
}

std::vector<int> TroubledCensus::advance_states(sim::SimTime now) {
  std::vector<int> rejoined;
  // The historical fast path: with the defense off and nothing ever
  // force-quarantined, there is no state machine to advance.
  if (!defense_.enabled && quarantines_ == 0) return rejoined;
  // Amortized O(1): skip the scan until the earliest pending expiry.
  if (now < next_state_check_) return rejoined;
  next_state_check_ = 1e18;
  for (std::size_t i = 0; i < core_.size(); ++i) {
    const int id = static_cast<int>(i);
    if (core_.state[i] == MemberState::kQuarantined &&
        now >= core_.state_until_of(id)) {
      core_.set_state_until(id, now + defense_.probation_seconds);
      // Fresh census epoch: history earned while lying must not survive
      // the rejoin (and a stale last_signal would poison the interval).
      core_.reset_epoch(id);
      move(id, MemberState::kProbation);
      rejoined.push_back(id);
    } else if (core_.state[i] == MemberState::kProbation &&
               now >= core_.state_until_of(id)) {
      move(id, MemberState::kActive);
    }
    if (core_.state[i] == MemberState::kQuarantined ||
        core_.state[i] == MemberState::kProbation)
      next_state_check_ = std::min(next_state_check_, core_.state_until_of(id));
  }
  return rejoined;
}

double TroubledCensus::min_interval(sim::SimTime now) const {
  double best = -1.0;
  for (const int i : reservoir_.sample()) {
    const double e = core_.effective_interval(i, now);
    if (e < 0.0) continue;
    if (best < 0.0 || e < best) best = e;
  }
  if (last_signaller_ >= 0 && !reservoir_.tracked(last_signaller_)) {
    const double e = core_.effective_interval(last_signaller_, now);
    if (e >= 0.0 && (best < 0.0 || e < best)) best = e;
  }
  return best;
}

int TroubledCensus::recompute(sim::SimTime now) {
  const double min_int = min_interval(now);
  for (const int i : flagged_) {
    const auto u = static_cast<std::size_t>(i);
    core_.troubled[u] = 0;
  }
  flagged_.clear();
  num_troubled_ = 0;
  if (min_int < 0.0) return 0;
  const double bound = eta_ * min_int;

  // Scan the sample; scale the troubled count to the membership.
  int raw = 0;
  const std::vector<int>& sample = reservoir_.sample();
  for (const int i : sample) {
    const double e = core_.effective_interval(i, now);
    // The most-congested receiver satisfies e == min_int; the strict "<"
    // of the paper is made "<=" scaled so that it is always troubled.
    if (e >= 0.0 && e <= bound) {
      core_.troubled[static_cast<std::size_t>(i)] = 1;
      flagged_.push_back(i);
      ++raw;
    }
  }
  // The listening policy consults troubled(signaller) on every signal, so
  // the most recent signaller is always evaluated exactly even when the
  // hash sample skipped it.
  bool signaller_troubled = false;
  if (last_signaller_ >= 0 && !core_.excluded(last_signaller_)) {
    const double e = core_.effective_interval(last_signaller_, now);
    signaller_troubled = e >= 0.0 && e <= bound;
    if (signaller_troubled && !reservoir_.tracked(last_signaller_)) {
      core_.troubled[static_cast<std::size_t>(last_signaller_)] = 1;
      flagged_.push_back(last_signaller_);
    }
  }
  // With the whole membership sampled the scale is exactly 1.
  const double scale =
      sample.empty() ? 0.0
                     : static_cast<double>(active_count_) /
                           static_cast<double>(sample.size());
  num_troubled_ = static_cast<int>(
      std::llround(static_cast<double>(raw) * scale));
  if (raw > 0 || signaller_troubled)
    num_troubled_ = std::max(num_troubled_, 1);
  num_troubled_ = std::min(num_troubled_, active_count_);
  return num_troubled_;
}

void TroubledCensus::note_srtt(int i, double srtt) {
  core_.set_srtt(i, srtt);
  ++srtt_version_;
  robust_valid_ = false;
  // Only sampled (hence active) members enter the aggregate.
  if (!reservoir_.tracked(i)) return;
  if (!srtt_max_valid_ || srtt_max_membership_ != membership_version_) return;
  if (srtt >= srtt_max_cache_) {
    srtt_max_cache_ = srtt;
    srtt_holder_ = i;
  } else if (i == srtt_holder_) {
    // The previous maximum shrank; only a rescan knows the new holder.
    srtt_max_valid_ = false;
  }
}

double TroubledCensus::plain_srtt_max() const {
  if (!srtt_max_valid_ || srtt_max_membership_ != membership_version_) {
    srtt_max_cache_ = 0.0;
    srtt_holder_ = -1;
    for (const int i : reservoir_.sample()) {
      const double v = core_.srtt_of(i);
      if (v >= srtt_max_cache_) {
        srtt_max_cache_ = v;
        srtt_holder_ = i;
      }
    }
    srtt_max_valid_ = true;
    srtt_max_membership_ = membership_version_;
  }
  return srtt_max_cache_;
}

double TroubledCensus::robust_srtt_max() const {
  if (robust_valid_ && robust_srtt_version_ == srtt_version_ &&
      robust_membership_ == membership_version_)
    return robust_cache_;
  srtt_scratch_.clear();
  for (const int i : reservoir_.sample())
    srtt_scratch_.push_back(core_.srtt_of(i));
  robust_cache_ = robust_clamped_max(srtt_scratch_, kSrttClampMads);
  robust_valid_ = true;
  robust_srtt_version_ = srtt_version_;
  robust_membership_ = membership_version_;
  return robust_cache_;
}

double TroubledCensus::srtt_max() const {
  // Hardened path: an srtt-inflating receiver drives pthresh toward 1 for
  // everyone else (their srtt_i/srtt_max ratio collapses), so reported
  // srtts are median/MAD-clamped before the max is taken.
  if (defense_.enabled) return robust_srtt_max();
  return plain_srtt_max();
}

std::size_t TroubledCensus::state_bytes() const {
  return sizeof(*this) + core_.state_bytes() + reservoir_.state_bytes() +
         flagged_.capacity() * sizeof(int) +
         interval_scratch_.capacity() * sizeof(double) +
         srtt_scratch_.capacity() * sizeof(double);
}

}  // namespace rlacast::cc
