#include "tcp/reassembly.hpp"

#include <algorithm>

namespace rlacast::tcp {

void ReassemblyBuffer::start_at(net::SeqNum seq) {
  if (cum_ != 0 || !blocks_.empty()) return;  // already receiving: no-op
  cum_ = seq;
  highest_ = seq;
}

bool ReassemblyBuffer::add(net::SeqNum seq) {
  if (seq == cum_) {
    // In order: the cumulative point moves, absorbing the buffered block
    // that now starts at it, if any (every block starts above cum_).
    cum_ = seq + 1;
    auto front = blocks_.begin();
    if (front != blocks_.end() && front->first == cum_) {
      ooo_pkts_ -= static_cast<std::size_t>(front->second - front->first);
      cum_ = front->second;
      blocks_.erase(front);
    }
    highest_ = std::max(highest_, cum_);
    note_recent(seq);
    return true;
  }
  if (seq < cum_ || has(seq)) return false;  // duplicate

  highest_ = std::max(highest_, seq + 1);
  ++ooo_pkts_;

  // Insert [seq, seq+1) and merge with neighbours.  seq > cum_, so the
  // merged block still starts above the cumulative point.
  net::SeqNum lo = seq, hi = seq + 1;
  // Predecessor block ending exactly at seq merges from the left.
  auto it = blocks_.upper_bound(seq);
  if (it != blocks_.begin()) {
    auto prev = std::prev(it);
    if (prev->second == seq) {
      lo = prev->first;
      blocks_.erase(prev);
    }
  }
  // Successor block starting exactly at seq+1 merges from the right.
  it = blocks_.find(hi);
  if (it != blocks_.end()) {
    hi = it->second;
    blocks_.erase(it);
  }
  blocks_[lo] = hi;

  note_recent(seq);  // recency list for SACK generation
  return true;
}

void ReassemblyBuffer::note_recent(net::SeqNum seq) {
  recent_head_ = (recent_head_ + kRecent - 1) & (kRecent - 1);
  recent_[recent_head_] = seq;
  if (recent_count_ < kRecent) ++recent_count_;
}

bool ReassemblyBuffer::has(net::SeqNum seq) const {
  if (seq < cum_) return true;
  auto it = blocks_.upper_bound(seq);
  if (it == blocks_.begin()) return false;
  return std::prev(it)->second > seq;
}

net::SackBlock ReassemblyBuffer::block_around(net::SeqNum seq) const {
  auto it = blocks_.upper_bound(seq);
  if (it == blocks_.begin()) return {seq, seq + 1};  // unreachable if received
  --it;
  return {it->first, it->second};
}

int ReassemblyBuffer::sack_blocks(net::SackBlock* blocks,
                                  int max_blocks) const {
  int n = 0;
  for (std::size_t i = 0; i < recent_count_; ++i) {
    const net::SeqNum seq = recent_[(recent_head_ + i) & (kRecent - 1)];
    if (seq < cum_) continue;  // swallowed by the cumulative ACK
    const net::SackBlock b = block_around(seq);
    bool dup = false;
    for (int i = 0; i < n; ++i)
      if (blocks[i] == b) {
        dup = true;
        break;
      }
    if (dup) continue;
    blocks[n++] = b;
    if (n == max_blocks) break;
  }
  return n;
}

}  // namespace rlacast::tcp
