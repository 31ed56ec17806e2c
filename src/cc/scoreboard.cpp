#include "cc/scoreboard.hpp"

#include <algorithm>
#include <cassert>

namespace rlacast::cc {

void Scoreboard::on_send(net::SeqNum seq) {
  assert(seq == high_ && "new packets must be sent in order");
  flags_.push_back(0);
  high_ = seq + 1;
  ++pipe_;  // fresh packet: unSACKed, not lost
}

void Scoreboard::on_retransmit(net::SeqNum seq) {
  if (!holds(seq)) return;
  std::uint8_t& f = flags(seq);
  const bool was_in_pipe = in_pipe(f);
  if ((f & kRexmitted) == 0) ++rexmit_count_;
  f |= kRexmitted;
  if (!was_in_pipe && in_pipe(f)) ++pipe_;  // repair re-enters
}

void Scoreboard::clear_retransmitted(net::SeqNum seq) {
  if (!holds(seq)) return;
  std::uint8_t& f = flags(seq);
  const bool was_in_pipe = in_pipe(f);
  if ((f & kRexmitted) != 0) --rexmit_count_;
  f &= static_cast<std::uint8_t>(~kRexmitted);
  if (was_in_pipe && !in_pipe(f)) --pipe_;  // presumed lost again
}

std::int64_t Scoreboard::advance(net::SeqNum new_una) {
  if (new_una <= una_) return 0;
  const std::int64_t n = new_una - una_;
  const std::int64_t drop = std::min<std::int64_t>(n, high_ - una_);
  for (std::int64_t i = 0; i < drop; ++i) {
    const std::uint8_t f = flags_.front();
    flags_.pop_front();
    if ((f & kSacked) != 0) --sacked_count_;
    if ((f & (kLost | kSacked)) == kLost) --lost_count_;
    if ((f & kRexmitted) != 0) --rexmit_count_;
    if (in_pipe(f)) --pipe_;
  }
  una_ = new_una;
  if (high_ < una_) high_ = una_;
  return n;
}

int Scoreboard::apply_sack(const net::SackBlock* blocks, int n_blocks) {
  int newly = 0;
  for (int b = 0; b < n_blocks; ++b) {
    const net::SeqNum hi = std::min(blocks[b].hi, high_);
    for (net::SeqNum seq = std::max(blocks[b].lo, una_); seq < hi; ++seq) {
      std::uint8_t& f = flags(seq);
      if ((f & kSacked) != 0) continue;
      if (in_pipe(f)) --pipe_;  // SACKed packets leave the pipe
      f |= kSacked;
      ++sacked_count_;
      if ((f & kLost) != 0) --lost_count_;  // spurious loss mark
      ++newly;
    }
  }
  return newly;
}

int Scoreboard::detect_losses(int dupthresh) {
  // Nothing has dupthresh SACKed packets above it while fewer are SACKed in
  // all — the common case of an in-order window, answered without a walk.
  if (sacked_count_ < dupthresh) return 0;
  // Walk from the top, counting SACKed packets above the cursor; everything
  // below the dupthresh-th SACKed packet that is itself unSACKed is lost.
  // Below marked_below_ every packet is SACKed or lost already, so the walk
  // stops there.
  const std::size_t floor = static_cast<std::size_t>(
      std::max(marked_below_, una_) - una_);
  int newly = 0;
  int sacked_above = 0;
  for (std::size_t i = flags_.size(); i-- > floor;) {
    std::uint8_t& f = flags_[i];
    if ((f & kSacked) != 0) {
      if (++sacked_above == dupthresh)
        marked_below_ =
            std::max(marked_below_, una_ + static_cast<net::SeqNum>(i));
      continue;
    }
    if (sacked_above >= dupthresh && (f & kLost) == 0) {
      const bool was_in_pipe = in_pipe(f);
      f |= kLost;
      ++lost_count_;
      ++newly;
      if (was_in_pipe && !in_pipe(f)) --pipe_;
    }
  }
  return newly;
}

void Scoreboard::mark_all_lost() {
  marked_below_ = high_;
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    std::uint8_t& f = flags_[i];
    if ((f & kSacked) != 0) continue;
    const bool was_in_pipe = in_pipe(f);
    if ((f & kLost) == 0) {
      f |= kLost;
      ++lost_count_;
    }
    if ((f & kRexmitted) != 0) --rexmit_count_;
    f &= static_cast<std::uint8_t>(~kRexmitted);
    if (was_in_pipe && !in_pipe(f)) --pipe_;
  }
}

bool Scoreboard::is_sacked(net::SeqNum seq) const {
  return holds(seq) && (flags(seq) & kSacked) != 0;
}

net::SeqNum Scoreboard::first_missing() const {
  if (fm_cursor_ < una_) fm_cursor_ = una_;
  while (fm_cursor_ < high_ && (flags(fm_cursor_) & kSacked) != 0)
    ++fm_cursor_;
  return fm_cursor_;
}

bool Scoreboard::is_lost(net::SeqNum seq) const {
  return holds(seq) && (flags(seq) & kLost) != 0;
}

bool Scoreboard::was_retransmitted(net::SeqNum seq) const {
  return holds(seq) && (flags(seq) & kRexmitted) != 0;
}

net::SeqNum Scoreboard::next_to_retransmit() const {
  if (lost_count_ == 0) return net::kNoSeq;  // no unSACKed loss at all
  for (std::size_t i = 0; i < flags_.size(); ++i)
    if ((flags_[i] & (kLost | kSacked | kRexmitted)) == kLost)
      return una_ + static_cast<net::SeqNum>(i);
  return net::kNoSeq;
}

void Scoreboard::reset(net::SeqNum next_seq) {
  flags_ = {};
  una_ = high_ = next_seq;
  fm_cursor_ = next_seq;  // pooled boards get reused at lower sequences
  marked_below_ = next_seq;
  sacked_count_ = lost_count_ = rexmit_count_ = 0;
  pipe_ = 0;
}

}  // namespace rlacast::cc
