#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace rlacast::sim {

namespace {

using Key = unsigned __int128;

/// IEEE-754 bits of a non-negative time; these order like the values.
/// Adding +0.0 folds -0.0 (whose sign bit would sort it last) into +0.0.
std::uint64_t time_bits(SimTime t) {
  return std::bit_cast<std::uint64_t>(t + 0.0);
}

/// The heap order: (time_bits, seq) as one unsigned 128-bit integer, so a
/// comparison is a single branch-free wide compare.
Key key_of(std::uint64_t bits, std::uint64_t seq) {
  return (static_cast<Key>(bits) << 64) | seq;
}

}  // namespace

bool Scheduler::decode_live(EventId id, std::uint32_t& slot) const {
  if (id == kInvalidEventId) return false;
  const auto raw = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (raw == 0 || raw > slots_.size()) return false;
  slot = raw - 1;
  const Slot& s = slots_[slot];
  return s.gen == static_cast<std::uint32_t>(id >> 32) &&
         static_cast<bool>(s.cb);
}

// 4-ary heap over key_of(), moved by hole rather than by swaps.  Keys are
// unique (sequence numbers are), so no comparison ever ties.

void Scheduler::sift_up(std::size_t i, HeapEntry e) {
  const Key k = key_of(e.time_bits, e.seq);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    const HeapEntry& p = heap_[parent];
    if (key_of(p.time_bits, p.seq) < k) break;
    heap_[i] = p;
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::sift_down(std::size_t i, HeapEntry e) {
  const Key k = key_of(e.time_bits, e.seq);
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    Key best_key = key_of(heap_[first].time_bits, heap_[first].seq);
    for (std::size_t c = first + 1; c < last; ++c) {
      const Key ck = key_of(heap_[c].time_bits, heap_[c].seq);
      const bool less = ck < best_key;
      best = less ? c : best;
      best_key = less ? ck : best_key;
    }
    if (k < best_key) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Scheduler::heap_push(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.queued_at = s.at;
  s.queued_seq = s.seq;
  const HeapEntry e{time_bits(s.at), s.seq, slot};
  if (root_held_) {
    // The dispatched event's entry still sits at the root, and it orders
    // before every key that may be scheduled now: replace it.
    root_held_ = false;
    sift_down(0, e);
  } else {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, e);
  }
  counters_.heap_hiwater = std::max(counters_.heap_hiwater, heap_.size());
}

void Scheduler::heap_pop() {
  assert(!heap_.empty());
  root_held_ = false;  // a held root is the entry popped
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // kills outstanding ids for this slot
  s.queued_seq = 0;  // and orphans its heap entry
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId Scheduler::schedule_at_seq(SimTime at, std::uint64_t seq,
                                   Callback cb) {
  assert(!passed(at, seq) && "key must order after the dispatched event");
  assert(seq != 0 && seq < next_seq_ && "sequence number not from take_seq");
  assert(cb && "scheduling an empty callback");
  std::uint32_t slot;
  if (free_head_ != kNoFree) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    counters_.slab_capacity = slots_.size();
  }
  Slot& s = slots_[slot];
  if (cb.on_heap()) ++counters_.callback_heap_fallbacks;
  s.cb = std::move(cb);
  s.at = at;
  s.seq = seq;
  heap_push(slot);
  ++live_events_;
  ++counters_.scheduled;
  counters_.slab_live_hiwater =
      std::max(counters_.slab_live_hiwater, live_events_);
  return pack(slot, s.gen);
}

EventId Scheduler::reschedule_at(EventId id, SimTime at) {
  assert(at >= now_ && "cannot schedule into the past");
  std::uint32_t slot;
  if (!decode_live(id, slot)) return kInvalidEventId;
  // Retarget in place: the callback stays put and a fresh (time, sequence)
  // key is taken — so a rescheduled event orders exactly as if it had been
  // cancelled and rescheduled.  The generation bump retires the old id.
  Slot& s = slots_[slot];
  ++s.gen;
  s.at = at;
  s.seq = take_seq();
  // The fresh sequence number exceeds the queued entry's, so a time no
  // earlier than the entry's leaves the entry a lower bound on the key:
  // skim() re-queues it under the new key when it surfaces.  An earlier
  // time needs an entry of its own; the old one is orphaned by it.
  if (at < s.queued_at) heap_push(slot);
  ++counters_.rescheduled;
  return pack(slot, s.gen);
}

void Scheduler::cancel(EventId id) {
  // Only a live event may be cancelled; anything else must be a no-op or
  // the live-event accounting would drift. The generation check makes that
  // exact: an id is live only while its slot still carries its generation.
  std::uint32_t slot;
  if (!decode_live(id, slot)) return;
  slots_[slot].cb.reset();
  release_slot(slot);
  --live_events_;
  ++counters_.cancelled;
  // Tidy: drop dead keys that already surfaced, and empty the heap outright
  // when nothing live remains — a fully-cancelled scheduler reports
  // empty()/next_time() == kNever without a dispatch attempt.
  if (live_events_ == 0) {
    heap_.clear();
    root_held_ = false;
  } else {
    skim();
  }
}

void Scheduler::skim() const {
  auto* self = const_cast<Scheduler*>(this);
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    Slot& s = self->slots_[top.slot];
    if (s.queued_seq != top.seq) {
      self->heap_pop();  // dead: its slot was freed or re-queued since
    } else if (s.seq != top.seq) {
      // Retargeted later while queued: re-queue under the recorded key.
      s.queued_at = s.at;
      s.queued_seq = s.seq;
      self->sift_down(0, HeapEntry{time_bits(s.at), s.seq, top.slot});
    } else {
      return;
    }
  }
}

SimTime Scheduler::next_time() const {
  skim();
  return heap_.empty() ? kNever : slots_[heap_[0].slot].at;
}

bool Scheduler::run_one() {
  skim();
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0].slot;
  // Move the callback out and free the slot before invoking, so re-entrant
  // scheduling from the callback (which may reuse this very slot) is safe.
  Slot& s = slots_[slot];
  now_ = s.at;
  now_seq_ = s.seq;
  Callback cb = std::move(s.cb);  // leaves the slot empty
  release_slot(slot);  // the root entry is dead from here on
  --live_events_;
  ++counters_.dispatched;
  // The entry stays at the root, held, while the callback runs: its first
  // heap_push() replaces it with one sift_down, and a skim() or heap_pop()
  // in between drops it like any dead entry.
  root_held_ = true;
  if (observer_ != nullptr) observer_->on_dispatch(counters_.dispatched, now_);
  cb();
  if (root_held_) heap_pop();  // nothing was pushed
  return true;
}

replay::Snapshot Scheduler::snapshot_state() const {
  replay::Snapshot s;
  s.put("now", now_);
  s.put("next_seq", next_seq_);
  s.put("live_events", live_events_);
  // A held root is the dispatched event's entry, already out of the heap
  // as far as any history is concerned.
  s.put("heap_size", heap_.size() - (root_held_ ? 1 : 0));
  s.put("scheduled", counters_.scheduled);
  s.put("cancelled", counters_.cancelled);
  s.put("rescheduled", counters_.rescheduled);
  s.put("dispatched", counters_.dispatched);
  s.put("callback_heap_fallbacks", counters_.callback_heap_fallbacks);
  s.put("heap_hiwater", counters_.heap_hiwater);
  s.put("slab_capacity", counters_.slab_capacity);
  s.put("slab_live_hiwater", counters_.slab_live_hiwater);
  s.put("fault_drops", counters_.fault_drops);
  s.put("fault_duplicates", counters_.fault_duplicates);
  return s;
}

void Scheduler::run_until(SimTime until) {
  while (true) {
    const SimTime t = next_time();
    if (t == kNever || t > until) break;
    run_one();
  }
  if (!heap_.empty()) now_ = until;
  // Every event due by now_ has run, so every key reserved so far at a time
  // not after now_ has passed.
  now_seq_ = next_seq_ - 1;
}

void Scheduler::run_all() {
  while (run_one()) {
  }
  now_seq_ = next_seq_ - 1;
}

}  // namespace rlacast::sim
