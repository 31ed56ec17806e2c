// SoA receiver table of the RLA sender, with lazily materialized SACK
// scoreboards.
//
// The historical sender held one heap-allocated {Scoreboard, RttEstimator}
// bundle per receiver; at paper scale (27) that is fine, at the ROADMAP's
// 10^4..10^6 members the scoreboard maps dominate sender memory and every
// per-ACK aggregate (min una, max rto, max pipe, reach-all frontier) cost an
// O(N) walk.  This table keeps the per-receiver fields in parallel arrays
// and represents the common all-healthy receiver *compactly*: just its
// cumulative point.  A receiver in compact state has, by construction,
//
//     high == sender frontier,  nothing SACKed / lost / retransmitted,
//     pipe == frontier - una,   first_missing == una,
//
// so every scoreboard query is answered in O(1) without a map.  A real
// cc::Scoreboard is materialized from a pool only when an ACK proves the
// receiver diverged (a SACK block above its cumulative point), and is
// reclaimed as soon as it is clean() again — a receiver is only expensive
// WHILE it is losing packets.  Multicast repairs sent to everyone are
// recorded once in the sender's per-packet SendInfo (rexmitted_for_all) and
// replayed onto a board at materialization time, which keeps compact
// receivers out of the repair loops entirely.
//
// Aggregates are cached with holder/count schemes keyed on the census
// membership version, making the hot ACK path allocation-free and O(1)
// amortized (plus O(materialized) for the boards that do exist):
//   * min una over compact active members — count-at-min, rescan only when
//     the last holder advances or the membership/compact set changes;
//   * max rto over active members — holder cache, invalidated only when the
//     holder's own timer shrinks.
//
// The per-receiver {RttEstimator, SignalGrouper} pair — ~112 bytes, by far
// the largest per-receiver cost — lives in pooled *tracked* slots behind a
// 4-byte slot index.  A slot is created for the census's sampled members
// (the sender tracks them at join), signallers (grouper access allocates),
// and materialized receivers; slots are never freed, and they sit in a deque
// so their addresses stay stable for the replay observer's per-receiver
// attach.  Every other member shares one fallback estimator that absorbs
// all of their RTT samples, so rtt(i) of an untracked member reports the
// population estimate.  With the census's default reservoir every member is
// tracked from its join and the fallback is never consulted.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cc/rtt_estimator.hpp"
#include "cc/scoreboard.hpp"
#include "cc/signal_grouper.hpp"
#include "cc/troubled_census.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace rlacast::rla {

class ReceiverTable {
 public:
  explicit ReceiverTable(const cc::RttEstimatorParams& rtt_params)
      : rtt_params_(rtt_params), fallback_rtt_(rtt_params) {}

  /// True when `i` has its own RTT estimator.
  bool tracked(int i) const { return est_slot_[idx(i)] >= 0; }
  /// Allocates `i`'s tracked slot.  The new estimator is seeded from the
  /// shared fallback, so a member promoted mid-run starts at the population
  /// estimate rather than cold (and a member tracked at join, while no
  /// active member is untracked, starts fresh).
  void ensure_tracked(int i) { (void)ensure_slot(i); }
  /// Tracked slots in use.
  std::size_t tracked_count() const { return tracked_ids_.size(); }

  /// Reserves the per-receiver arrays for `n` members.  Purely a capacity
  /// hint (no behavioral change), but state_bytes() reports capacity, and at
  /// n = 10^4 the push_back growth overshoot would otherwise inflate the
  /// rows by ~60%.
  void reserve(std::size_t n);

  /// Appends a receiver whose sequence space starts at `frontier` (late
  /// join) with its liveness clock at `now`. Returns the dense index.
  int add(net::NodeId node, net::PortId port, net::SeqNum frontier,
          sim::SimTime now);

  std::size_t size() const { return node_.size(); }
  net::SeqNum frontier() const { return frontier_; }

  net::NodeId node(int i) const { return node_[idx(i)]; }
  net::PortId port(int i) const { return port_[idx(i)]; }
  sim::SimTime last_ack_at(int i) const { return last_ack_at_[idx(i)]; }
  void note_ack(int i, sim::SimTime now) { last_ack_at_[idx(i)] = now; }
  cc::RttEstimator& rtt(int i) {
    const std::int32_t s = est_slot_[idx(i)];
    return s >= 0 ? tracked_[static_cast<std::size_t>(s)].rtt : fallback_rtt_;
  }
  const cc::RttEstimator& rtt(int i) const {
    const std::int32_t s = est_slot_[idx(i)];
    return s >= 0 ? tracked_[static_cast<std::size_t>(s)].rtt : fallback_rtt_;
  }
  /// The receiver's signal grouper.  Allocates `i`'s tracked slot — a
  /// receiver whose grouper is consulted is signalling, which is exactly the
  /// set worth individual state.
  cc::SignalGrouper& grouper(int i) { return ensure_slot(i).grouper; }

  // --- RTT mutations (routed here to keep the max-rto cache coherent) ------
  void rtt_add_sample(int i, sim::SimTime sample) {
    rtt(i).add_sample(sample);
    note_rto(i);
  }
  void rtt_reset_backoff(int i) {
    rtt(i).reset_backoff();
    note_rto(i);
  }
  /// Timer backoff for every active member (timeout collapse); O(tracked),
  /// rare.  The shared fallback only backs off while it speaks for some
  /// active untracked member, so a later joiner never inherits a backoff.
  void rtt_back_off_all(const cc::TroubledCensus& census);

  // --- scoreboard facade ---------------------------------------------------
  bool materialized(int i) const { return sb_slot_[idx(i)] >= 0; }
  /// The receiver's materialized board (precondition: materialized(i)).
  cc::Scoreboard& board(int i) { return *pool_[slot(i)]; }
  const cc::Scoreboard& board(int i) const { return *pool_[slot(i)]; }
  /// Ids of currently materialized receivers, in no particular order.
  const std::vector<int>& materialized_ids() const { return materialized_; }

  net::SeqNum una(int i) const { return una_[idx(i)]; }
  net::SeqNum high(int i) const {
    return materialized(i) ? board(i).high() : frontier_;
  }
  net::SeqNum first_missing(int i) const;
  std::int64_t pipe(int i) const {
    return materialized(i) ? board(i).pipe() : frontier_ - una_[idx(i)];
  }
  bool is_sacked(int i, net::SeqNum seq) const {
    return materialized(i) && board(i).is_sacked(seq);
  }
  bool is_lost(int i, net::SeqNum seq) const {
    return materialized(i) && board(i).is_lost(seq);
  }
  bool was_retransmitted(int i, net::SeqNum seq) const {
    return materialized(i) && board(i).was_retransmitted(seq);
  }
  net::SeqNum next_to_retransmit(int i) const {
    return materialized(i) ? board(i).next_to_retransmit() : net::kNoSeq;
  }
  std::int64_t lost_count(int i) const {
    return materialized(i) ? board(i).lost_count() : 0;
  }

  /// Cumulative-point advance; returns the number newly acknowledged.
  std::int64_t advance(int i, net::SeqNum new_una);

  /// SACK loss detection; 0 for a compact receiver (nothing is SACKed).
  int detect_losses(int i, int dupthresh) {
    return materialized(i) ? board(i).detect_losses(dupthresh) : 0;
  }

  /// True iff any active receiver is missing `seq` (outstanding for it and
  /// not SACKed) — the always-multicast repair path needs only this bit,
  /// not the full requester list, and it falls out of the compact-min cache
  /// in O(materialized).
  bool any_missing(const cc::TroubledCensus& census, net::SeqNum seq) const;

  /// Would these SACK blocks change a compact receiver's state?  True iff
  /// any block intersects its outstanding window [una, frontier) — the
  /// materialization trigger.
  bool sack_effective(int i, const net::SackBlock* blocks, int n) const;

  /// Materializes receiver `i`'s board from the compact invariant: all of
  /// [una, frontier) outstanding, nothing marked.  The caller (the sender)
  /// replays its global rexmitted_for_all repair flags onto the fresh board
  /// before using it.
  cc::Scoreboard& materialize(int i);

  /// Returns `i` to the compact representation when its board is clean().
  void reclaim_if_clean(int i);

  /// New-data transmission at the frontier: extends every materialized
  /// non-excluded board (compact members track the frontier implicitly).
  void on_send(net::SeqNum seq, const cc::TroubledCensus& census);

  /// Rejoin/restart: back to compact with the sequence space at `next_seq`.
  void reset(int i, net::SeqNum next_seq);

  // --- aggregates over the active membership -------------------------------
  /// Smallest cumulative point over active receivers; `fallback` if none.
  net::SeqNum min_una(const cc::TroubledCensus& census,
                      net::SeqNum fallback) const;
  /// Smallest first_missing over active receivers (the reach-all frontier
  /// candidate); `fallback` if none.
  net::SeqNum min_first_missing(const cc::TroubledCensus& census,
                                net::SeqNum fallback) const;
  /// Largest pipe over active receivers.
  std::int64_t max_pipe(const cc::TroubledCensus& census) const;
  /// Largest retransmission timeout over active receivers.
  sim::SimTime max_rto(const cc::TroubledCensus& census) const;

  std::size_t materialized_count() const { return materialized_.size(); }
  std::size_t pool_size() const { return pool_.size(); }

  /// Resident bytes of the table: SoA arrays, estimators, and the
  /// materialized boards (per-packet map nodes included).
  std::size_t state_bytes() const;

 private:
  /// Pooled per-receiver wide state of a tracked member.
  struct TrackedState {
    explicit TrackedState(const cc::RttEstimatorParams& p) : rtt(p) {}
    cc::RttEstimator rtt;
    cc::SignalGrouper grouper;
  };
  /// note_rto holder id standing for the shared fallback estimator.
  static constexpr int kFallbackHolder = -2;

  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }
  std::size_t slot(int i) const {
    return static_cast<std::size_t>(sb_slot_[idx(i)]);
  }
  TrackedState& ensure_slot(int i);
  void note_rto(int i);
  /// (found, min, count-at-min) over compact active members, cached.
  void refresh_compact_min(const cc::TroubledCensus& census) const;
  void compact_insert(int i);

  cc::RttEstimatorParams rtt_params_;
  net::SeqNum frontier_ = 0;

  // Parallel per-receiver arrays.
  std::vector<net::NodeId> node_;
  std::vector<net::PortId> port_;
  std::vector<net::SeqNum> una_;  // authoritative mirror, compact or not
  std::vector<sim::SimTime> last_ack_at_;
  std::vector<int> sb_slot_;  // pool slot; -1 = compact

  // Slot index per receiver + pooled tracked state + the shared estimator
  // absorbing every untracked member's RTT samples.
  std::vector<std::int32_t> est_slot_;  // -1 = untracked
  std::deque<TrackedState> tracked_;    // stable addresses
  std::vector<int> tracked_ids_;        // receiver id per tracked_ slot
  cc::RttEstimator fallback_rtt_;

  // Scoreboard pool.
  std::vector<std::unique_ptr<cc::Scoreboard>> pool_;
  std::vector<int> free_slots_;
  std::vector<int> materialized_;  // receiver ids with a board

  // min-una-over-compact-active cache (count-at-min scheme).
  mutable bool cmin_valid_ = false;
  mutable bool cmin_any_ = false;   // any compact active member exists
  mutable net::SeqNum cmin_ = 0;
  mutable std::int64_t cmin_count_ = 0;
  mutable std::uint64_t cmin_membership_ = ~0ULL;

  // max-rto-over-active cache (holder scheme).
  mutable bool rto_valid_ = false;
  mutable double rto_cache_ = 0.0;
  mutable int rto_holder_ = -1;
  mutable std::uint64_t rto_membership_ = ~0ULL;
};

}  // namespace rlacast::rla
