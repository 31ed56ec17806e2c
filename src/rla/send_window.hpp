// SendWindow: the RLA sender's per-packet bookkeeping, and the coverage walk
// that samples the per-packet RLA RTT.
//
// The sender's window slides between max_reach_all and the send frontier
// (§3.3 rule 5), so its records cover one contiguous run of sequence
// numbers.  They live in a sim::Ring indexed by `seq - base`: a lookup is an
// index, a first transmission appends, and the reach-all advance pops the
// front.  Steady-state traffic allocates nothing once the ring has grown to
// the session's largest window.
//
// Absent slots.  A record can also be created below the reach-all frontier:
// after a subtree graduates, readmit() thaws members at cumulative points
// under the frontier (whose monotone guard keeps it where it is), and a
// repair of one of their holes asks for its record.  The ring grows at the
// front to hold it, and the slots between it and the old base are *absent*.
// Every lookup and every walk skips absent slots, so the ring answers
// exactly what a map holding only the created records would.
//
// Coverage.  Bit i of a record's acked_mask is set once member i has
// acknowledged the packet, cumulatively or selectively; the packet's RTT is
// sampled the moment the mask covers every active member (`need`).  The
// mask is cached per cc::TroubledCensus::membership_version(), and each
// member keeps a cursor: every record below it already carries the member's
// bit, and since `need` has not changed, re-marking it could complete
// nothing.  A cumulative ACK therefore walks only [max(base, cursor), cum) —
// what it newly covers — and moves the cursor up.  SACK blocks still walk
// their own range, clipped to the ring.  A cursor is only valid under two
// resets:
//   * membership change — every cursor returns to the base, because a
//     packet whose `need` shrank is sampled at the next ACK that covers it
//     (not at the moment of exclusion);
//   * a record created below a cursor (an absent slot filled) lowers that
//     cursor to it, so the fresh record gets walked.
//
// The masks are 64 bits wide: members with index 64 and above take no part
// in the per-packet RTT (the paper's sessions have at most 36 members).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "cc/troubled_census.hpp"
#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace rlacast::rla {

/// One packet's send record: two times, the coverage mask, four flags.
struct SendInfo {
  sim::SimTime first_sent = 0.0;
  sim::SimTime last_rexmit = -1e18;
  /// Bit i set once member i has acknowledged the packet.
  std::uint64_t acked_mask = 0;
  bool ever_rexmitted = false;
  /// Set when the packet was retransmitted to EVERYBODY (multicast repair
  /// or timeout).  Compact receivers don't carry per-packet rexmit flags;
  /// materialization replays this onto the fresh scoreboard so Karn's rule
  /// and the repair rate-limit see the same marks the historical
  /// per-receiver boards held.
  bool rexmitted_for_all = false;
  bool rtt_sampled = false;
  /// False for an absent slot: the ring holds it, but no record was created.
  bool present = false;
};
static_assert(sizeof(SendInfo) == 32, "four flags pack behind the mask");

class SendWindow {
 public:
  /// Members whose ACKs take part in the per-packet RTT.
  static constexpr int kMaxMembers = 64;

  /// Records the first transmission of `seq` at `now`; `seq` is at or
  /// beyond the end of the ring (the send frontier).
  void on_send(net::SeqNum seq, sim::SimTime now);

  /// `seq`'s record, or nullptr when none was created (or it was dropped).
  SendInfo* find(net::SeqNum seq);

  /// `seq`'s record, created with default fields when there is none.
  SendInfo& at(net::SeqNum seq);

  /// Forgets every record below `seq` (the reach-all advance).
  void drop_below(net::SeqNum seq);

  /// Calls fn(seq, record) for every record at or above `from`, ascending.
  template <typename Fn>
  void for_each_from(net::SeqNum from, Fn&& fn) {
    for (net::SeqNum s = std::max(from, base_); s < end(); ++s) {
      SendInfo& info = slot(s);
      if (info.present) fn(s, info);
    }
  }

  /// Member `idx`'s ACK arrived at `now`: marks what its cumulative point
  /// `cum` newly covers and then its `n_sack` SACK blocks, and calls
  /// on_sample(seq, rtt) for every never-retransmitted packet whose
  /// coverage it completed, in ascending order within each range.
  template <typename OnSample>
  void cover(int idx, net::SeqNum cum, const net::SackBlock* sack, int n_sack,
             const cc::TroubledCensus& census, sim::SimTime now,
             OnSample&& on_sample) {
    if (idx >= kMaxMembers) return;
    refresh(census);
    const std::uint64_t bit = 1ULL << idx;
    net::SeqNum& cursor = cursor_[static_cast<std::size_t>(idx)];
    const net::SeqNum to = std::min(cum, end());
    walk(std::max(cursor, base_), to, bit, now, on_sample);
    cursor = std::max(cursor, to);
    for (int b = 0; b < n_sack; ++b)
      walk(std::max(sack[b].lo, base_), std::min(sack[b].hi, end()), bit, now,
           on_sample);
  }

  /// Records held (O(window): absent slots are skipped).
  std::size_t size() const;
  /// Resident bytes of the ring's storage.
  std::size_t state_bytes() const {
    return ring_.capacity() * sizeof(SendInfo);
  }

 private:
  net::SeqNum end() const {
    return base_ + static_cast<net::SeqNum>(ring_.size());
  }
  SendInfo& slot(net::SeqNum seq) {
    return ring_[static_cast<std::size_t>(seq - base_)];
  }
  /// Re-reads `need` and resets every cursor after a membership change.
  void refresh(const cc::TroubledCensus& census);

  template <typename OnSample>
  void walk(net::SeqNum lo, net::SeqNum hi, std::uint64_t bit,
            sim::SimTime now, OnSample& on_sample) {
    for (net::SeqNum s = lo; s < hi; ++s) {
      SendInfo& info = slot(s);
      if (!info.present || info.rtt_sampled) continue;
      info.acked_mask |= bit;
      if ((info.acked_mask & need_) != need_) continue;
      info.rtt_sampled = true;
      if (!info.ever_rexmitted) on_sample(s, now - info.first_sent);
    }
  }

  sim::Ring<SendInfo> ring_;
  net::SeqNum base_ = 0;  // sequence number of ring_[0]
  std::uint64_t version_ = ~0ULL;  // membership version need_ was read at
  std::uint64_t need_ = 0;         // active members below kMaxMembers
  // Per member: every record below its cursor was marked by that member
  // since the last membership change.
  std::array<net::SeqNum, kMaxMembers> cursor_{};
};

}  // namespace rlacast::rla
