#include "rla/receiver_table.hpp"

#include <algorithm>
#include <cassert>

namespace rlacast::rla {

void ReceiverTable::reserve(std::size_t n) {
  node_.reserve(n);
  port_.reserve(n);
  una_.reserve(n);
  last_ack_at_.reserve(n);
  sb_slot_.reserve(n);
  est_slot_.reserve(n);
}

int ReceiverTable::add(net::NodeId node, net::PortId port,
                       net::SeqNum frontier, sim::SimTime now) {
  const int i = static_cast<int>(node_.size());
  node_.push_back(node);
  port_.push_back(port);
  una_.push_back(frontier);
  last_ack_at_.push_back(now);
  sb_slot_.push_back(-1);
  est_slot_.push_back(-1);
  if (frontier_ < frontier) frontier_ = frontier;
  cmin_valid_ = false;
  rto_valid_ = false;
  return i;
}

ReceiverTable::TrackedState& ReceiverTable::ensure_slot(int i) {
  const std::size_t ii = idx(i);
  if (est_slot_[ii] < 0) {
    est_slot_[ii] = static_cast<std::int32_t>(tracked_.size());
    tracked_.emplace_back(rtt_params_);
    // Seed from the shared estimate: a member promoted mid-run should not
    // restart at the cold initial RTO.  (While every active member is
    // tracked the fallback sees no sample and no backoff, so the copy is a
    // fresh estimator.)
    tracked_.back().rtt = fallback_rtt_;
    tracked_ids_.push_back(i);
    rto_valid_ = false;  // i's rto source changed from fallback to its own
  }
  return tracked_[static_cast<std::size_t>(est_slot_[ii])];
}

net::SeqNum ReceiverTable::first_missing(int i) const {
  if (!materialized(i)) return una_[idx(i)];
  return board(i).first_missing();  // cursor-cached, amortized O(1)
}

std::int64_t ReceiverTable::advance(int i, net::SeqNum new_una) {
  const std::size_t ii = idx(i);
  if (materialized(i)) {
    const std::int64_t n = board(i).advance(new_una);
    una_[ii] = board(i).una();
    return n;
  }
  if (new_una <= una_[ii]) return 0;
  const std::int64_t n = new_una - una_[ii];
  // Maintain the compact-min cache: if this receiver held the minimum its
  // departure may exhaust the count; a fresh minimum is found lazily.
  if (cmin_valid_ && una_[ii] == cmin_) {
    if (--cmin_count_ == 0) cmin_valid_ = false;
  }
  una_[ii] = new_una;
  return n;
}

bool ReceiverTable::any_missing(const cc::TroubledCensus& census,
                                net::SeqNum seq) const {
  refresh_compact_min(census);
  // A compact active receiver is missing seq iff una <= seq < frontier;
  // the smallest una decides for all of them.
  if (cmin_any_ && cmin_ <= seq && seq < frontier_) return true;
  for (int i : materialized_) {
    if (census.excluded(i)) continue;
    const cc::Scoreboard& sb = board(i);
    if (seq >= sb.una() && seq < sb.high() && !sb.is_sacked(seq)) return true;
  }
  return false;
}

bool ReceiverTable::sack_effective(int i, const net::SackBlock* blocks,
                                   int n) const {
  const net::SeqNum lo_bound = una_[idx(i)];
  for (int b = 0; b < n; ++b) {
    const net::SeqNum lo = std::max(blocks[b].lo, lo_bound);
    const net::SeqNum hi = std::min(blocks[b].hi, frontier_);
    if (lo < hi) return true;
  }
  return false;
}

cc::Scoreboard& ReceiverTable::materialize(int i) {
  assert(!materialized(i));
  // A diverged receiver is interesting by definition: give it its own RTT
  // estimator alongside its board.
  (void)ensure_slot(i);
  int slot_id;
  if (free_slots_.empty()) {
    pool_.push_back(std::make_unique<cc::Scoreboard>());
    slot_id = static_cast<int>(pool_.size()) - 1;
  } else {
    slot_id = free_slots_.back();
    free_slots_.pop_back();
  }
  sb_slot_[idx(i)] = slot_id;
  materialized_.push_back(i);
  cc::Scoreboard& sb = *pool_[static_cast<std::size_t>(slot_id)];
  sb.reset(una_[idx(i)]);
  for (net::SeqNum s = una_[idx(i)]; s < frontier_; ++s) sb.on_send(s);
  cmin_valid_ = false;  // one fewer compact member
  return sb;
}

void ReceiverTable::reclaim_if_clean(int i) {
  if (!materialized(i)) return;
  cc::Scoreboard& sb = board(i);
  if (!sb.clean() || sb.high() != frontier_) return;
  // Drop the board's per-packet nodes while it sits in the free list —
  // materialize() resets it anyway, and a clean board still spans the full
  // outstanding window, which would otherwise stay resident per pool slot.
  sb.reset(0);
  free_slots_.push_back(sb_slot_[idx(i)]);
  sb_slot_[idx(i)] = -1;
  auto it = std::find(materialized_.begin(), materialized_.end(), i);
  assert(it != materialized_.end());
  *it = materialized_.back();
  materialized_.pop_back();
  cmin_valid_ = false;  // one more compact member
}

void ReceiverTable::on_send(net::SeqNum seq, const cc::TroubledCensus& census) {
  assert(seq == frontier_ && "new packets must be sent in order");
  for (int i : materialized_)
    if (!census.excluded(i)) board(i).on_send(seq);
  frontier_ = seq + 1;
}

void ReceiverTable::reset(int i, net::SeqNum next_seq) {
  const std::size_t ii = idx(i);
  if (materialized(i)) {
    board(i).reset(0);
    free_slots_.push_back(sb_slot_[ii]);
    sb_slot_[ii] = -1;
    auto it = std::find(materialized_.begin(), materialized_.end(), i);
    assert(it != materialized_.end());
    *it = materialized_.back();
    materialized_.pop_back();
  }
  una_[ii] = next_seq;
  cmin_valid_ = false;
}

void ReceiverTable::rtt_back_off_all(const cc::TroubledCensus& census) {
  int tracked_active = 0;
  for (std::size_t s = 0; s < tracked_ids_.size(); ++s) {
    if (census.excluded(tracked_ids_[s])) continue;
    tracked_[s].rtt.back_off();
    ++tracked_active;
  }
  // The fallback stands for the active untracked members (none of them can
  // be excluded individually); with none left it stays fresh for the next
  // member tracked at join.
  if (census.active_count() > tracked_active) fallback_rtt_.back_off();
  rto_valid_ = false;
}

void ReceiverTable::note_rto(int i) {
  if (!rto_valid_) return;
  const double v = rtt(i).rto();
  // Untracked members share the fallback estimator, so the cache
  // holder for any of them is the fallback itself.
  const int holder = tracked(i) ? i : kFallbackHolder;
  if (v >= rto_cache_) {
    rto_cache_ = v;
    rto_holder_ = holder;
  } else if (holder == rto_holder_) {
    rto_valid_ = false;  // the holder shrank; true max unknown
  }
}

void ReceiverTable::refresh_compact_min(
    const cc::TroubledCensus& census) const {
  if (cmin_valid_ && cmin_membership_ == census.membership_version()) return;
  cmin_any_ = false;
  cmin_ = 0;
  cmin_count_ = 0;
  for (std::size_t i = 0; i < una_.size(); ++i) {
    if (sb_slot_[i] >= 0 || census.excluded(static_cast<int>(i))) continue;
    if (!cmin_any_ || una_[i] < cmin_) {
      cmin_any_ = true;
      cmin_ = una_[i];
      cmin_count_ = 1;
    } else if (una_[i] == cmin_) {
      ++cmin_count_;
    }
  }
  cmin_valid_ = true;
  cmin_membership_ = census.membership_version();
}

net::SeqNum ReceiverTable::min_una(const cc::TroubledCensus& census,
                                   net::SeqNum fallback) const {
  refresh_compact_min(census);
  bool any = cmin_any_;
  net::SeqNum m = cmin_any_ ? cmin_ : 0;
  for (int i : materialized_) {
    if (census.excluded(i)) continue;
    const net::SeqNum u = board(i).una();
    if (!any || u < m) {
      any = true;
      m = u;
    }
  }
  return any ? m : fallback;
}

net::SeqNum ReceiverTable::min_first_missing(const cc::TroubledCensus& census,
                                             net::SeqNum fallback) const {
  // Compact members' first_missing == una, so the compact minimum carries
  // over; only materialized boards need the SACK-run walk.
  refresh_compact_min(census);
  bool any = cmin_any_;
  net::SeqNum m = cmin_any_ ? cmin_ : 0;
  for (int i : materialized_) {
    if (census.excluded(i)) continue;
    const net::SeqNum fm = first_missing(i);
    if (!any || fm < m) {
      any = true;
      m = fm;
    }
  }
  return any ? m : fallback;
}

std::int64_t ReceiverTable::max_pipe(const cc::TroubledCensus& census) const {
  // Compact pipes are frontier - una, maximized by the minimum una.
  refresh_compact_min(census);
  std::int64_t m = 0;
  if (cmin_any_) m = frontier_ - cmin_;
  for (int i : materialized_) {
    if (census.excluded(i)) continue;
    m = std::max(m, board(i).pipe());
  }
  return m;
}

sim::SimTime ReceiverTable::max_rto(const cc::TroubledCensus& census) const {
  if (!rto_valid_ || rto_membership_ != census.membership_version()) {
    bool any = false;
    rto_cache_ = 0.0;
    rto_holder_ = -1;
    // O(tracked), not O(N): untracked members all share the fallback.
    int tracked_active = 0;
    for (std::size_t s = 0; s < tracked_ids_.size(); ++s) {
      const int i = tracked_ids_[s];
      if (census.excluded(i)) continue;
      ++tracked_active;
      const double v = tracked_[s].rtt.rto();
      if (!any || v >= rto_cache_) {
        any = true;
        rto_cache_ = v;
        rto_holder_ = i;
      }
    }
    // The fallback only counts while some active member is untracked.
    if (census.active_count() > tracked_active) {
      const double v = fallback_rtt_.rto();
      if (!any || v >= rto_cache_) {
        any = true;
        rto_cache_ = v;
        rto_holder_ = kFallbackHolder;
      }
    }
    rto_valid_ = any;
    rto_membership_ = census.membership_version();
    if (!rto_valid_) return 0.0;
  }
  return rto_cache_;
}

std::size_t ReceiverTable::state_bytes() const {
  std::size_t b = sizeof(*this);
  b += node_.capacity() * sizeof(net::NodeId);
  b += port_.capacity() * sizeof(net::PortId);
  b += una_.capacity() * sizeof(net::SeqNum);
  b += last_ack_at_.capacity() * sizeof(sim::SimTime);
  b += sb_slot_.capacity() * sizeof(int);
  b += est_slot_.capacity() * sizeof(std::int32_t);
  b += tracked_.size() * sizeof(TrackedState);
  b += tracked_ids_.capacity() * sizeof(int);
  b += pool_.capacity() * sizeof(void*);
  for (const auto& sb : pool_) b += sb->state_bytes();
  b += free_slots_.capacity() * sizeof(int);
  b += materialized_.capacity() * sizeof(int);
  return b;
}

}  // namespace rlacast::rla
