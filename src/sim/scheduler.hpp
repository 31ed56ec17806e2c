// Event scheduler: the heart of the discrete-event engine.
//
// Storage is a generation-tagged slab: every scheduled event occupies a slot
// holding its callback in-line (see SmallCallback), and the EventId handed
// back at scheduling time packs (slot index, generation).  Cancellation is
// O(1) — bump the slot's generation, free the slot — with no hashing and no
// per-event container churn; the dead heap entry is skimmed lazily when it
// surfaces.  Scheduling a typical event (timer re-arm, link pipeline leg)
// performs zero heap allocations.
//
// Every event has a (time, sequence) dispatch key.  The sequence number
// makes ordering of simultaneous events deterministic (FIFO within a
// timestamp), which in turn makes every simulation in this repository
// exactly reproducible for a given seed.  Keys live in a 4-ary min-heap
// that holds about one entry per event *source*, not per event:
//  * FIFO sources (sim::TimedFifo: a link's propagation pipe, a pacer's
//    departures) reserve each packet's sequence number with take_seq() when
//    the packet enters the FIFO, keep (time, seq) beside it, and arm only
//    the head with schedule_at_seq() — the dispatch keys are exactly those
//    an event per packet would have had;
//  * a link reserves its serializer end's key when a packet starts and
//    schedules the event under it only if another packet comes to wait;
//    passed() tells whether a reserved key is still ahead of the clock;
//  * reschedule_at() moving an event no earlier than its queued heap entry
//    only records the new key in the slot; the entry is re-queued under it
//    when it reaches the top.  That is what makes TCP-style "restart the
//    rexmit timer on every ACK" churn cost no heap operation at all;
//  * run_one() leaves the dispatched entry at the root, held, while the
//    callback runs.  The callback's first push replaces it with a single
//    sift_down (a dispatch that schedules one event costs one sift, not a
//    pop's sift_down plus a push's sift_up); it is popped afterwards only
//    if nothing was pushed.  Every key scheduled from a callback orders
//    after the dispatched one, and keys are unique, so the dispatch order
//    is the one a pop-then-push heap gives.
// A heap entry is identified by (slot, seq): it stands for its slot only
// while the slot's queued sequence number matches, so entries orphaned by
// cancels, earlier-time retargets and slot reuse are recognised on sight.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "replay/snapshot.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "stats/engine_counters.hpp"

namespace rlacast::sim {

/// Identifier of a scheduled event; usable to cancel it before it fires.
/// Packs (generation << 32) | (slot + 1): the +1 keeps 0 free as the
/// invalid id, and the generation makes ids single-use — a slot reused by a
/// later event yields a different id, so cancelling a stale handle is a
/// guaranteed no-op.
using EventId = std::uint64_t;

/// Invalid/none event id. Scheduler never returns this value.
inline constexpr EventId kInvalidEventId = 0;

class Scheduler : public replay::Snapshotable {
 public:
  using Callback = SmallCallback;

  /// Schedules `cb` to run at absolute time `at`. `at` must be >= now().
  /// Equivalent to schedule_at_seq(at, take_seq(), cb).
  EventId schedule_at(SimTime at, Callback cb) {
    return schedule_at_seq(at, take_seq(), std::move(cb));
  }

  /// Reserves the next dispatch sequence number without scheduling
  /// anything.  A FIFO event source calls this where it would otherwise
  /// schedule one event per element, keeps the number beside the element,
  /// and arms only its head (schedule_at_seq) — so the source holds one
  /// heap entry, and every element still dispatches under the key it would
  /// have had with an event of its own.
  std::uint64_t take_seq() { return next_seq_++; }

  /// Schedules `cb` under the key (at, seq), where `seq` came from
  /// take_seq() and has not been used.  The key must not have passed()
  /// (a FIFO source's keys increase in both components).
  EventId schedule_at_seq(SimTime at, std::uint64_t seq, Callback cb);

  /// True when the key (at, seq) orders at or before the event being
  /// dispatched, i.e. an event under that key would already have run.
  /// Once run_until()/run_all() has returned, every key reserved before
  /// the return at a time not after now() has passed; keys reserved later
  /// have not.
  bool passed(SimTime at, std::uint64_t seq) const {
    return at < now_ || (at == now_ && seq <= now_seq_);
  }

  /// Retargets a pending event to fire at `at` instead, keeping its stored
  /// callback (no destroy/reconstruct, no slot churn).  The event takes a
  /// fresh sequence number, exactly as if it were cancelled and scheduled
  /// anew.  Returns the event's new id (the old id dies); returns
  /// kInvalidEventId — scheduling nothing — when `id` is no longer live
  /// (already fired or cancelled), in which case the caller schedules
  /// afresh.  A retarget to a time not earlier than the event's queued heap
  /// entry touches no heap; an earlier one pushes a new entry.
  EventId reschedule_at(EventId id, SimTime at);

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op.
  void cancel(EventId id);

  /// True if no runnable (non-cancelled) events remain.
  bool empty() const { return live_events_ == 0; }

  /// Number of runnable events still pending.
  std::size_t pending() const { return live_events_; }

  /// Current simulation time: the timestamp of the last dispatched event.
  SimTime now() const { return now_; }

  /// Timestamp of the next runnable event; kNever if none.  Logically const:
  /// may lazily discard dead entries from the internal heap and re-queue
  /// retargeted ones.
  SimTime next_time() const;

  /// Dispatches the next event. Returns false if none remain.
  bool run_one();

  /// Dispatches events until the clock passes `until` or no events remain.
  /// Events at exactly `until` are dispatched. Leaves now() == until if the
  /// horizon was reached with events still pending beyond it.
  void run_until(SimTime until);

  /// Dispatches everything. Intended for tests with finite event chains.
  void run_all();

  /// Total number of events dispatched so far (for micro-benchmarks).
  std::uint64_t dispatched() const { return counters_.dispatched; }

  /// Cumulative engine counters (schedule/cancel/dispatch volume, heap and
  /// slab high-water marks, callback heap fallbacks).
  const stats::EngineCounters& counters() const { return counters_; }

  /// Mutable counter access for engine-adjacent components that account
  /// through the scheduler's counter block (the links' fault-injection
  /// drop/duplicate totals live here, beside the queue-drop statistics
  /// they must stay distinguishable from).
  stats::EngineCounters& counters_mut() { return counters_; }

  /// Installs (or clears, with nullptr) the determinism observer: every
  /// dispatch is reported as (sequence number, event time) immediately
  /// before the callback runs, so draws made inside the callback follow
  /// their dispatch record in the journal.
  void set_observer(replay::RunObserver* observer) { observer_ = observer; }
  replay::RunObserver* observer() const { return observer_; }

  /// Full engine-state checkpoint: clock, live-event census, sequence
  /// cursor, and every EngineCounters field. Two runs agree here iff the
  /// scheduler went through bit-identical histories.
  replay::Snapshot snapshot_state() const override;

 private:
  /// Heap key + slab reference. Trivially copyable: sifts move no
  /// callbacks.  `time_bits` is the IEEE-754 pattern of the (non-negative)
  /// time, so (time_bits, seq) orders exactly like (time, seq) and compares
  /// as one unsigned 128-bit integer.
  struct HeapEntry {
    std::uint64_t time_bits;
    std::uint64_t seq;  // FIFO tie-break among equal timestamps
    std::uint32_t slot;
  };

  /// One slab slot: the callback and the event's dispatch key live here.
  /// `gen` advances on every disarm (fire, cancel) and retarget so
  /// outstanding ids referring to the old incarnation die.
  struct Slot {
    Callback cb;
    SimTime at = 0.0;           // the event's key
    std::uint64_t seq = 0;
    SimTime queued_at = 0.0;    // key of the heap entry standing for it;
    std::uint64_t queued_seq = 0;  // 0 while the slot is free
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoFree;  // free-list link while unarmed
  };

  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// True and decoded when `id` refers to a currently-armed event.
  bool decode_live(EventId id, std::uint32_t& slot) const;

  /// Queues a heap entry standing for `slot` under the slot's current key.
  void heap_push(std::uint32_t slot);
  void heap_pop();
  void sift_up(std::size_t i, HeapEntry e);
  void sift_down(std::size_t i, HeapEntry e);

  /// Settles the heap top: discards dead entries and re-queues entries
  /// whose slot was retargeted later, until the top is an event due under
  /// exactly its key (or the heap is empty).  Changes only the heap and
  /// the slots' queued keys, never an event's key, hence callable from
  /// const queries.
  void skim() const;

  /// Returns `slot` to the free list after bumping its generation.
  void release_slot(std::uint32_t slot);

  // The heap is storage for *keys*; dead entries are cache garbage skimmed
  // lazily, so const queries may reshape it.
  mutable std::vector<HeapEntry> heap_;
  // heap_[0] is the dispatched event's (dead) entry, kept for the
  // callback's first push to replace; cleared by that push or any pop.
  bool root_held_ = false;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  SimTime now_ = 0.0;
  std::uint64_t now_seq_ = 0;  // with now_, the key passed() compares with
  std::uint64_t next_seq_ = 1;
  std::size_t live_events_ = 0;
  stats::EngineCounters counters_;
  replay::RunObserver* observer_ = nullptr;
};

}  // namespace rlacast::sim
