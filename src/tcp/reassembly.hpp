// Receiver-side reassembly and SACK generation (RFC 2018 semantics, with
// packet-granularity sequence numbers as used throughout this project).
//
// Tracks which sequence numbers have arrived, exposes the cumulative ACK
// (first missing seq), and produces up to kMaxSackBlocks SACK blocks above
// the cumulative point, most-recently-updated first — the ordering RFC 2018
// prescribes so that a lost ACK does not lose SACK information.
//
// Out-of-order data is stored as disjoint [lo, hi) intervals, so every
// operation is O(log blocks) regardless of how long a hole persists — a
// receiver stuck behind one missing packet (e.g. after the sender dropped it
// via the §4.3 slow-receiver option) must not degrade to linear scans.  An
// in-order arrival inserts no interval (it can only absorb the block right
// above it), and the recency list is a fixed array: the in-order receive
// path performs no heap allocation.
#pragma once

#include <array>
#include <cstddef>
#include <map>

#include "net/packet.hpp"

namespace rlacast::tcp {

class ReassemblyBuffer {
 public:
  /// Records arrival of `seq`. Returns true if the packet was new
  /// (not a duplicate).
  bool add(net::SeqNum seq);

  /// Fast-forwards the cumulative point to `seq` (stream resumption for a
  /// receiver that joined an in-progress multicast session: everything
  /// below its first packet is not owed to it). Only valid while nothing
  /// has been received.
  void start_at(net::SeqNum seq);

  /// First sequence number not yet received; all seqs below have arrived.
  net::SeqNum cum_ack() const { return cum_; }

  /// True if `seq` has been received (cumulatively or out of order).
  bool has(net::SeqNum seq) const;

  /// Fills `blocks` (size >= max_blocks) with SACK blocks above the
  /// cumulative ACK, most recently updated first. Returns the count.
  int sack_blocks(net::SackBlock* blocks, int max_blocks) const;

  /// Highest received seq + 1 (0 if nothing yet).
  net::SeqNum highest() const { return highest_; }

  /// Out-of-order backlog in packets (diagnostics / buffer accounting).
  std::size_t ooo_count() const { return ooo_pkts_; }

  /// Number of disjoint out-of-order blocks currently held.
  std::size_t block_count() const { return blocks_.size(); }

 private:
  /// The maximal contiguous received block containing `seq`, which must be
  /// a received, above-cum sequence number.
  net::SackBlock block_around(net::SeqNum seq) const;

  /// Records `seq` as the newest arrival, forgetting the oldest beyond
  /// kRecent.
  void note_recent(net::SeqNum seq);

  static constexpr std::size_t kRecent = 16;  // power of two: wrap by mask

  net::SeqNum cum_ = 0;
  net::SeqNum highest_ = 0;
  std::map<net::SeqNum, net::SeqNum> blocks_;  // disjoint lo -> hi, all > cum_
  std::size_t ooo_pkts_ = 0;
  // Recently arrived seqs, newest at recent_head_, as a ring.
  std::array<net::SeqNum, kRecent> recent_{};
  std::size_t recent_head_ = 0;
  std::size_t recent_count_ = 0;
};

}  // namespace rlacast::tcp
