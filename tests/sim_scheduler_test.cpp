// Unit tests for the discrete-event scheduler: ordering, determinism,
// cancellation, and clock semantics — the invariants everything else in the
// simulator relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_fifo.hpp"

namespace rlacast::sim {
namespace {

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, SimultaneousEventsAreFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(1.0, [&] { fired = true; });
  s.cancel(id);
  s.run_all();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelAfterFireIsHarmless) {
  Scheduler s;
  int count = 0;
  const EventId id = s.schedule_at(1.0, [&] { ++count; });
  s.schedule_at(2.0, [&] { ++count; });
  s.run_one();
  s.cancel(id);  // already fired; must not corrupt accounting
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, DoubleCancelIsHarmless) {
  Scheduler s;
  const EventId id = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  s.cancel(id);
  s.cancel(id);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(5.0, [&] { ++fired; });
  s.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, EventAtHorizonIsDispatched) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(2.0, [&] { fired = true; });
  s.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, ReentrantSchedulingFromCallback) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] {
    order.push_back(1);
    s.schedule_at(1.5, [&] { order.push_back(2); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, ChainOfEventsAdvancesClock) {
  Scheduler s;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) s.schedule_at(s.now() + 0.5, hop);
  };
  s.schedule_at(0.5, hop);
  s.run_all();
  EXPECT_EQ(hops, 100);
  EXPECT_DOUBLE_EQ(s.now(), 50.0);
  EXPECT_EQ(s.dispatched(), 100u);
}

TEST(Scheduler, NextTimeIsConstAndSkipsCancelled) {
  Scheduler s;
  const EventId early = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  s.cancel(early);
  const Scheduler& cs = s;  // next_time() must be callable on a const ref
  EXPECT_DOUBLE_EQ(cs.next_time(), 2.0);
}

TEST(Scheduler, CancellingEverythingReportsEmptyWithoutDispatch) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i)
    ids.push_back(s.schedule_at(1.0 + i, [] { ADD_FAILURE() << "fired"; }));
  for (const EventId id : ids) s.cancel(id);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_DOUBLE_EQ(s.next_time(), kNever);
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(s.dispatched(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Scheduler, StaleIdCannotCancelASlotsNextTenant) {
  Scheduler s;
  bool first = false, second = false;
  const EventId a = s.schedule_at(1.0, [&] { first = true; });
  s.cancel(a);  // frees the slot
  const EventId b = s.schedule_at(2.0, [&] { second = true; });  // reuses it
  EXPECT_NE(a, b);
  s.cancel(a);  // stale generation: must not touch b
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Scheduler, IdsStayUniqueAcrossManyGenerationsOfOneSlot) {
  Scheduler s;
  EventId prev = kInvalidEventId;
  for (int gen = 0; gen < 1000; ++gen) {
    const EventId id = s.schedule_at(1.0, [] {});
    EXPECT_NE(id, prev);
    prev = id;
    s.cancel(id);
  }
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RescheduleRetargetsInPlace) {
  Scheduler s;
  std::vector<int> order;
  const EventId id = s.schedule_at(5.0, [&] { order.push_back(1); });
  const EventId id2 = s.reschedule_at(id, 1.0);  // earlier: a new heap key
  ASSERT_NE(id2, kInvalidEventId);
  EXPECT_NE(id2, id);
  const EventId id3 = s.reschedule_at(id2, 3.0);  // later: no heap key
  ASSERT_NE(id3, kInvalidEventId);
  EXPECT_NE(id3, id2);
  s.schedule_at(2.0, [&] { order.push_back(2); });
  // Both pre-reschedule ids are stale, including the one a later-time
  // retarget retired without touching the heap; cancelling them is a no-op.
  s.cancel(id);
  s.cancel(id2);
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.counters().heap_hiwater, 3u);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(s.dispatched(), 2u);
}

TEST(Scheduler, ReservedSequenceOrdersAsOfTheReservation) {
  // A key reserved with take_seq() orders among simultaneous events as if
  // the event had been scheduled at the moment of the reservation.
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t early = s.take_seq();
  s.schedule_at(1.0, [&] { order.push_back(2); });
  const std::uint64_t late = s.take_seq();
  s.schedule_at_seq(1.0, late, [&] { order.push_back(3); });
  s.schedule_at_seq(1.0, early, [&] { order.push_back(1); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, PassedComparesWithTheDispatchedKey) {
  Scheduler s;
  EXPECT_TRUE(s.passed(0.0, 0));  // the key every clock starts from
  const std::uint64_t reserved = s.take_seq();
  EXPECT_FALSE(s.passed(0.0, reserved));
  bool checked = false;
  s.schedule_at(1.0, [&] {
    const std::uint64_t later = s.take_seq();
    EXPECT_TRUE(s.passed(0.5, later));       // an earlier time
    EXPECT_TRUE(s.passed(1.0, reserved));    // this time, a smaller seq
    EXPECT_FALSE(s.passed(1.0, later));      // this time, reserved after
    EXPECT_FALSE(s.passed(1.5, reserved));   // a later time
    checked = true;
  });
  s.schedule_at(3.0, [] {});
  s.run_until(2.0);
  EXPECT_TRUE(checked);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  // Between runs, every key reserved before the return at a time up to
  // now() has passed; keys reserved afterwards have not.
  EXPECT_TRUE(s.passed(2.0, reserved));
  const std::uint64_t fresh = s.take_seq();
  EXPECT_TRUE(s.passed(2.0, fresh - 1));
  EXPECT_FALSE(s.passed(2.0, fresh));
  s.schedule_at_seq(2.0, fresh, [] {});
  s.run_all();
  EXPECT_TRUE(s.passed(3.0, fresh));
}

TEST(Scheduler, RescheduleOrdersLikeCancelPlusReschedule) {
  // Retargeting onto an occupied timestamp consumes a fresh sequence number,
  // so the moved event fires after events already booked at that time.
  Scheduler s;
  std::vector<int> order;
  const EventId id = s.schedule_at(0.5, [&] { order.push_back(0); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.reschedule_at(id, 1.0);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Scheduler, RescheduleOfDeadIdReturnsInvalid) {
  Scheduler s;
  int fires = 0;
  const EventId fired = s.schedule_at(1.0, [&] { ++fires; });
  s.run_one();
  EXPECT_EQ(s.reschedule_at(fired, 2.0), kInvalidEventId);
  const EventId cancelled = s.schedule_at(2.0, [&] { ++fires; });
  s.cancel(cancelled);
  EXPECT_EQ(s.reschedule_at(cancelled, 3.0), kInvalidEventId);
  EXPECT_EQ(s.reschedule_at(kInvalidEventId, 3.0), kInvalidEventId);
  s.run_all();
  EXPECT_EQ(fires, 1);
}

// Randomized differential test: the slab scheduler against a naive reference
// that keeps every event in a flat vector and linearly scans for the minimum
// (time, sequence) key.  Timestamps are quantized so simultaneous events are
// common and the FIFO tie-break is genuinely exercised.  Sequence numbers
// reserved with take_seq() are spent later, in random order, through
// schedule_at_seq(), as the FIFO event sources spend them.
TEST(Scheduler, RandomizedStressMatchesNaiveReference) {
  struct RefEvent {
    SimTime at;
    std::uint64_t seq;
    int marker;
    bool alive;
  };
  Scheduler s;
  Rng rng(0x5eed5eedULL);
  std::vector<RefEvent> ref;
  std::vector<int> real_order, ref_order;
  // Outstanding handles: (real id, index into ref). Entries may refer to
  // events that already fired — exactly the staleness cancel/reschedule
  // must tolerate.
  std::vector<std::pair<EventId, std::size_t>> handles;
  // Reserved and not yet spent: (scheduler sequence, reference sequence).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reserved;
  std::uint64_t ref_seq = 1;
  int next_marker = 0;

  auto ref_run_one = [&]() -> bool {
    std::size_t best = ref.size();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (!ref[i].alive) continue;
      if (best == ref.size() || ref[i].at < ref[best].at ||
          (ref[i].at == ref[best].at && ref[i].seq < ref[best].seq))
        best = i;
    }
    if (best == ref.size()) return false;
    ref_order.push_back(ref[best].marker);
    ref[best].alive = false;
    return true;
  };

  for (int op = 0; op < 20000; ++op) {
    const double r = rng.uniform();
    if (r < 0.40) {
      const SimTime at = s.now() + 0.5 * rng.uniform_int(0, 8);
      const int m = next_marker++;
      const EventId id =
          s.schedule_at(at, [&real_order, m] { real_order.push_back(m); });
      handles.emplace_back(id, ref.size());
      ref.push_back({at, ref_seq++, m, true});
    } else if (r < 0.45) {
      reserved.emplace_back(s.take_seq(), ref_seq++);
    } else if (r < 0.52 && !reserved.empty()) {
      // Spend a reservation strictly in the future, so its key orders after
      // everything already dispatched.
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reserved.size()) - 1));
      const SimTime at = s.now() + 0.5 * rng.uniform_int(1, 8);
      const int m = next_marker++;
      const EventId id = s.schedule_at_seq(
          at, reserved[k].first, [&real_order, m] { real_order.push_back(m); });
      handles.emplace_back(id, ref.size());
      ref.push_back({at, reserved[k].second, m, true});
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (r < 0.65 && !handles.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      s.cancel(handles[k].first);  // may be stale: no-op in both worlds
      ref[handles[k].second].alive = false;
      handles.erase(handles.begin() +
                    static_cast<std::ptrdiff_t>(k));
    } else if (r < 0.80 && !handles.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const SimTime at = s.now() + 0.5 * rng.uniform_int(0, 8);
      const EventId nid = s.reschedule_at(handles[k].first, at);
      // The slab must report dead exactly when the reference does.
      ASSERT_EQ(nid != kInvalidEventId, ref[handles[k].second].alive);
      if (nid != kInvalidEventId) {
        const int m = ref[handles[k].second].marker;
        ref[handles[k].second].alive = false;
        handles[k] = {nid, ref.size()};
        ref.push_back({at, ref_seq++, m, true});
      } else {
        handles.erase(handles.begin() +
                      static_cast<std::ptrdiff_t>(k));
      }
    } else {
      ASSERT_EQ(s.run_one(), ref_run_one());
    }
  }
  while (ref_run_one()) {
  }
  s.run_all();
  ASSERT_EQ(real_order.size(), ref_order.size());
  EXPECT_EQ(real_order, ref_order);
  EXPECT_TRUE(s.empty());
}

// Callbacks that act on the scheduler themselves, checked against the naive
// reference of RandomizedStressMatchesNaiveReference.  Every dispatch runs
// with the dispatched entry held at the heap root; each callback schedules
// zero to two events and, in random order among those, cancels, retargets
// earlier or later, and asks next_time() and pending() — so the held entry
// meets every way a callback can replace, skim or pop it.  The reference
// checks each dispatch as it happens: it must be the reference's earliest
// live event.
TEST(Scheduler, CallbacksActingOnTheSchedulerMatchNaiveReference) {
  struct RefEvent {
    SimTime at;
    std::uint64_t seq;
    int marker;
    bool alive;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Scheduler s;
    Rng rng(seed);
    std::vector<RefEvent> ref;
    // (real id, index into ref); may refer to events that already fired.
    std::vector<std::pair<EventId, std::size_t>> handles;
    std::uint64_t ref_seq = 1;
    int next_marker = 0;
    int dispatches = 0;
    std::size_t alive = 0;
    std::function<void(int)> on_fire;

    auto ref_earliest = [&] {
      std::size_t best = ref.size();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!ref[i].alive) continue;
        if (best == ref.size() || ref[i].at < ref[best].at ||
            (ref[i].at == ref[best].at && ref[i].seq < ref[best].seq))
          best = i;
      }
      return best;
    };
    auto schedule = [&](SimTime at) {
      const int m = next_marker++;
      const EventId id = s.schedule_at(at, [&on_fire, m] { on_fire(m); });
      handles.emplace_back(id, ref.size());
      ref.push_back({at, ref_seq++, m, true});
      ++alive;
    };
    // Half the picks come from the newest handles, which are mostly live.
    auto any_handle = [&] {
      const auto n = static_cast<std::int64_t>(handles.size());
      const std::int64_t lo =
          rng.chance(0.5) ? std::max<std::int64_t>(0, n - 8) : 0;
      return static_cast<std::size_t>(rng.uniform_int(lo, n - 1));
    };
    on_fire = [&](int m) {
      if (::testing::Test::HasFatalFailure()) return;
      const std::size_t best = ref_earliest();
      ASSERT_LT(best, ref.size()) << "dispatch " << dispatches;
      ASSERT_EQ(ref[best].marker, m) << "dispatch " << dispatches;
      ASSERT_EQ(ref[best].at, s.now()) << "dispatch " << dispatches;
      ref[best].alive = false;
      --alive;
      ++dispatches;
      // 'S' schedules; 'C' cancels, 'R' retargets and 'N' queries.  The
      // population alternates, every 1000 dispatches, between a deep heap
      // and one of at most two events, where a callback often cancels the
      // last live event before it schedules; from dispatch 20000 on, the
      // callbacks schedule nothing and the heap drains.
      std::vector<char> acts;
      const bool drain = dispatches >= 20000;
      const std::size_t cap = (dispatches / 1000) % 2 == 0 ? 300 : 2;
      const std::int64_t n_sched =
          !drain && alive < cap ? (rng.uniform_int(0, 4) + 1) / 2 : 0;
      for (std::int64_t i = 0; i < n_sched; ++i) acts.push_back('S');
      for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i)
        acts.push_back("CRN"[rng.uniform_int(0, 2)]);
      for (std::size_t i = acts.size(); i > 1; --i)
        std::swap(acts[i - 1], acts[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(i) - 1))]);
      for (const char a : acts) {
        if (a == 'S') {
          schedule(s.now() + 0.5 * rng.uniform_int(0, 8));
        } else if (a == 'C' && !handles.empty()) {
          const std::size_t k = any_handle();
          s.cancel(handles[k].first);  // may be stale, or this very event
          if (ref[handles[k].second].alive) --alive;
          ref[handles[k].second].alive = false;
        } else if (a == 'R' && !handles.empty()) {
          // Earlier or later than the event's current time, never past.
          const std::size_t k = any_handle();
          const SimTime at = s.now() + 0.5 * rng.uniform_int(0, 8);
          const EventId nid = s.reschedule_at(handles[k].first, at);
          ASSERT_EQ(nid != kInvalidEventId, ref[handles[k].second].alive);
          if (nid != kInvalidEventId) {
            const int marker = ref[handles[k].second].marker;
            ref[handles[k].second].alive = false;
            handles[k] = {nid, ref.size()};
            ref.push_back({at, ref_seq++, marker, true});
          }
        } else if (a == 'N') {
          const std::size_t next = ref_earliest();
          ASSERT_EQ(s.next_time(), next == ref.size() ? kNever : ref[next].at);
          ASSERT_EQ(s.pending(), alive);
        }
      }
      if (!drain && alive == 0) schedule(s.now() + 0.5 * rng.uniform_int(0, 8));
      if (handles.size() > 600)
        handles.erase(handles.begin(), handles.begin() + 300);
    };

    for (int i = 0; i < 64; ++i) schedule(0.5 * rng.uniform_int(0, 8));
    s.run_all();
    EXPECT_GE(dispatches, 20000) << "seed " << seed;
    EXPECT_EQ(ref_earliest(), ref.size()) << "seed " << seed;
    EXPECT_TRUE(s.empty()) << "seed " << seed;
  }
}

// TimedFifo against one event per value: the same random mix of pushes,
// plain events and pushes made from inside the sink, run once through a
// TimedFifo and once scheduling every value as its own event, must dispatch
// in the same order.  Times are quantized so values tie with each other and
// with plain events.  The FIFO holds one scheduler event exactly while it
// is non-empty.
std::vector<int> fifo_dispatch_order(std::uint64_t seed, bool use_fifo) {
  struct Sink {
    std::function<void(int)>* deliver;
    void operator()(int v) const { (*deliver)(v); }
  };
  Scheduler s;
  Rng rng(seed);
  std::vector<int> order;
  std::function<void(int)> deliver;
  TimedFifo<int, Sink> fifo(s, Sink{&deliver});
  SimTime last = 0.0;  // pushed times must not decrease
  int next_value = 0;
  std::size_t plain_pending = 0;
  auto push = [&] {
    last = std::max(last, s.now()) + 0.5 * rng.uniform_int(0, 2);
    const int v = next_value++;
    if (use_fifo)
      fifo.push(last, v);
    else
      s.schedule_at(last, [&deliver, v] { deliver(v); });
  };
  deliver = [&](int v) {
    order.push_back(v);
    if (rng.chance(0.3)) push();  // re-entrant push from the sink
  };
  for (int step = 0; step < 5000; ++step) {
    const double r = rng.uniform();
    if (r < 0.35) {
      push();
    } else if (r < 0.55) {
      const int tag = -1 - step;
      ++plain_pending;
      s.schedule_at(s.now() + 0.5 * rng.uniform_int(0, 2),
                    [&order, &plain_pending, tag] {
                      order.push_back(tag);
                      --plain_pending;
                    });
    } else {
      s.run_one();
    }
    if (use_fifo) {
      EXPECT_EQ(s.pending(), plain_pending + (fifo.empty() ? 0u : 1u))
          << "step " << step;
    }
  }
  s.run_all();
  EXPECT_TRUE(fifo.empty());
  return order;
}

TEST(TimedFifo, DispatchesLikeOneEventPerValue) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<int> fifo = fifo_dispatch_order(seed, true);
    const std::vector<int> per_value = fifo_dispatch_order(seed, false);
    ASSERT_GT(fifo.size(), 2000u);
    EXPECT_EQ(fifo, per_value) << "seed " << seed;
  }
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  double t1 = -1, t2 = -1;
  sim.after(1.0, [&] {
    t1 = sim.now();
    sim.after(2.0, [&] { t2 = sim.now(); });
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 3.0);
}

TEST(Timer, ScheduleFireAndReschedule) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule(1.0);
  EXPECT_TRUE(t.armed());
  t.schedule(2.0);  // reschedule replaces the first
  sim.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Timer, CancelPreventsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule(1.0);
  t.cancel();
  sim.run_all();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.schedule(1.0);
  }
  sim.run_all();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmFromCallbackMakesPeriodicTimer) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] {});
  Timer periodic(sim, [&] {
    if (++fires < 5) periodic.schedule(1.0);
  });
  periodic.schedule(1.0);
  sim.run_all();
  EXPECT_EQ(fires, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

}  // namespace
}  // namespace rlacast::sim
