// Sender-side SACK scoreboard.
//
// Tracks, for every outstanding packet in [una, high), whether it has been
// selectively acknowledged, declared lost, or retransmitted — the state
// needed for SACK-based loss detection (a packet is lost once dupthresh
// packets above it have been SACKed; the paper uses the same rule: "at least
// three higher"), for the pipe estimate used during recovery, and for Karn's
// rule when taking RTT samples.
//
// Shared by the TCP sender and (one instance per receiver) the RLA sender.
//
// The outstanding window is contiguous, so the per-packet state is one flag
// byte per sequence number in [una, high), held in a ring indexed by
// seq - una: sending appends, advancing the cumulative point pops, and
// every query is an index, not a tree search.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/ring.hpp"

namespace rlacast::cc {

class Scoreboard {
 public:
  /// Lowest outstanding sequence number (cumulative ACK point).
  net::SeqNum una() const { return una_; }

  /// Next sequence number after the highest transmitted one.
  net::SeqNum high() const { return high_; }

  /// Registers transmission of a new packet (must be == high()).
  void on_send(net::SeqNum seq);

  /// Registers a retransmission of an outstanding packet.
  void on_retransmit(net::SeqNum seq);

  /// Forgets that `seq` was retransmitted, making it eligible for
  /// next_to_retransmit() again — used when a retransmission is itself
  /// presumed lost (no ACK within an RTO of the repair).
  void clear_retransmitted(net::SeqNum seq);

  /// Advances the cumulative point; forgets state below it.
  /// Returns the number of packets newly acknowledged.
  std::int64_t advance(net::SeqNum new_una);

  /// Applies SACK blocks. Returns the number of newly SACKed packets.
  int apply_sack(const net::SackBlock* blocks, int n_blocks);

  /// Marks as lost every unSACKed packet with >= dupthresh SACKed packets
  /// above it. Returns the number of packets newly marked.  Walks down from
  /// the top only as far as the previous walks marked: a SACK or loss mark
  /// never clears while its packet is outstanding, so every packet below
  /// that point is marked already.
  int detect_losses(int dupthresh);

  /// Marks every unSACKed outstanding packet as lost and clears their
  /// retransmitted flags (RTO recovery restarts from scratch).
  void mark_all_lost();

  bool is_sacked(net::SeqNum seq) const;
  bool is_lost(net::SeqNum seq) const;
  bool was_retransmitted(net::SeqNum seq) const;

  /// First unSACKed sequence at or above una (the receiver's true
  /// reassembly point once SACKed data above a hole is accounted for).
  /// Amortized O(1): a SACK flag never reverts while the packet is
  /// outstanding, so the scan cursor only ever moves forward.  Without the
  /// cursor this walk is O(hole span) per call, and a receiver whose
  /// cumulative point is pinned (a misbehaving frozen-ACK coalition, or
  /// simply a very long recovery) grows that span without bound — the
  /// reach-all aggregate consults first_missing on every ACK.
  net::SeqNum first_missing() const;

  /// Lowest lost-and-not-yet-retransmitted packet; kNoSeq if none.
  net::SeqNum next_to_retransmit() const;

  /// Conservation-of-packets estimate of the number in flight:
  /// outstanding, not SACKed, and (not lost or retransmitted).
  /// Maintained incrementally — O(1) — because the RLA sender consults one
  /// pipe per receiver on every send decision.
  std::int64_t pipe() const { return pipe_; }

  /// Number of outstanding packets (high - una).
  std::int64_t outstanding() const { return high_ - una_; }

  std::int64_t sacked_count() const { return sacked_count_; }
  std::int64_t lost_count() const { return lost_count_; }
  std::int64_t rexmit_count() const { return rexmit_count_; }

  /// True when no outstanding packet carries any SACK/loss/retransmit mark —
  /// i.e. the board holds no information beyond (una, high).  The RLA
  /// sender's receiver table reclaims materialized boards in this state
  /// back to the compact per-receiver representation.
  bool clean() const {
    return sacked_count_ == 0 && lost_count_ == 0 && rexmit_count_ == 0;
  }

  /// Resident bytes: the flag ring's storage plus the object itself.
  std::size_t state_bytes() const { return sizeof(*this) + flags_.capacity(); }

  /// Drops all per-packet state and frees its storage (session restart,
  /// or a board parked in a pool).
  void reset(net::SeqNum next_seq);

 private:
  enum Flag : std::uint8_t { kSacked = 1, kLost = 2, kRexmitted = 4 };

  /// In-pipe predicate: not SACKed and (not lost, or repaired).
  static bool in_pipe(std::uint8_t f) {
    return (f & kSacked) == 0 && ((f & kLost) == 0 || (f & kRexmitted) != 0);
  }

  bool holds(net::SeqNum seq) const { return seq >= una_ && seq < high_; }
  std::uint8_t flags(net::SeqNum seq) const {
    return flags_[static_cast<std::size_t>(seq - una_)];
  }
  std::uint8_t& flags(net::SeqNum seq) {
    return flags_[static_cast<std::size_t>(seq - una_)];
  }

  sim::Ring<std::uint8_t> flags_;  // one Flag set per seq in [una_, high_)
  net::SeqNum una_ = 0;
  net::SeqNum high_ = 0;
  mutable net::SeqNum fm_cursor_ = 0;  // first_missing scan cursor
  // Every outstanding packet below this is SACKed or marked lost.
  net::SeqNum marked_below_ = 0;
  std::int64_t sacked_count_ = 0;
  std::int64_t lost_count_ = 0;  // lost and not SACKed since
  std::int64_t rexmit_count_ = 0;  // entries with the rexmitted flag set
  std::int64_t pipe_ = 0;
};

}  // namespace rlacast::cc
