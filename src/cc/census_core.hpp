// Flat SoA storage core of the troubled-receiver census, plus the
// deterministic bottom-k sample reservoir that picks the members the census
// aggregates scan.
//
// CensusCore keeps two kinds of per-member fields:
//
//  * dense columns indexed by member id: the troubled flag, the defense
//    state, and a slot index;
//  * the WIDE stats — interval EWMA, signal counters, srtt mirror, defense
//    clocks — in pooled slots, one column per field.  Every sampled member
//    holds a slot (SampleReservoir allocates it on entry); anyone else gets
//    one on first use (signallers, quarantined members).  Slots are never
//    freed, since strike history must survive rejoins.
//
// With the default reservoir, which holds every member, slots are handed out
// in join order, so slot == member id and the census scan streams the
// columns like a dense table.  A bounded reservoir keeps the pool at about
// reservoir + ever-signalled members, and a member that never loses a packet
// costs ~7 bytes — what makes the sampled sender's per-receiver memory
// sublinear.
//
// All policy — the troubled rule, the defense state machine, sampling
// estimates — stays in cc::TroubledCensus; this file is pure bookkeeping.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace rlacast::cc {

/// Census sampling knobs (see cc::TroubledCensus).
struct CensusSampleParams {
  /// Reservoir capacity k. The default holds every member, so every census
  /// decision is exact; at k << N the num_trouble estimate has relative
  /// standard error ~ sqrt((1-f)/(f*k)) for troubled fraction f (see
  /// DESIGN.md).
  std::size_t reservoir = std::numeric_limits<std::size_t>::max();
};

/// Membership state of one receiver in the hardened census.
enum class MemberState : std::uint8_t {
  kActive,       // full participant
  kProbation,    // rejoined, watched under the stricter rate factor
  kQuarantined,  // timed exclusion (counts as excluded())
  kExcluded,     // permanent (leave, silent-drop, slow-drop, strike-out)
};

/// The member table. cc::TroubledCensus is the only driver; all access to
/// the wide per-member stats goes through the accessors below.
class CensusCore {
 public:
  explicit CensusCore(double interval_gain) : gain_(interval_gain) {}

  /// Reserves `members` dense rows and `slots` wide-stat slots (capacity
  /// hint only; state_bytes() reports capacity, so growth overshoot is not
  /// free).
  void reserve(std::size_t members, std::size_t slots);

  /// Appends one member (without a slot); returns its dense id.
  int add();

  std::size_t size() const { return state.size(); }

  bool excluded(int i) const {
    const MemberState s = state[static_cast<std::size_t>(i)];
    return s == MemberState::kQuarantined || s == MemberState::kExcluded;
  }

  /// Gives member `i` a wide-stat slot unless it has one; returns the slot.
  std::size_t ensure_slot(int i);

  /// EWMA + counter update for one congestion signal (no policy).
  void record_signal(int i, sim::SimTime now);

  /// Fresh census epoch on rejoin: history earned while quarantined must
  /// not survive (a stale last_signal would poison the interval).
  void reset_epoch(int i);

  /// Effective congestion-signal interval of member `i` (see
  /// cc::TroubledCensus): max(EWMA, time since last signal); negative while
  /// the member is excluded or has no signal in its current epoch.
  double effective_interval(int i, sim::SimTime now) const;

  // --- wide per-member stats; a member without a slot reads as fresh -------
  double srtt_of(int i) const;
  /// Mirrors member `i`'s srtt into its slot.  A member without one is
  /// unsampled and has never signalled, so no census aggregate reads its
  /// srtt and storing it would defeat the pool.
  void set_srtt(int i, double srtt);
  sim::SimTime last_signal_at(int i) const;
  std::uint64_t signal_count(int i) const;
  std::uint64_t epoch_signal_count(int i) const;
  int strike_count(int i) const;
  /// Increments and returns `i`'s strike count (allocates its slot).
  int add_strike(int i);
  sim::SimTime state_until_of(int i) const;
  void set_state_until(int i, sim::SimTime t);

  /// Resident bytes of the member table (capacity-based).
  std::size_t state_bytes() const;

  // Dense per-member flag arrays, indexed by receiver id.
  std::vector<std::uint8_t> troubled;  // current troubled flag
  std::vector<MemberState> state;      // defense state machine

 private:
  /// Member `i`'s slot, or -1 when it has none.
  std::int32_t slot(int i) const { return slot_[static_cast<std::size_t>(i)]; }

  double gain_;
  std::vector<std::int32_t> slot_;  // per member

  // Pooled wide stats, one column per field, indexed by slot.  The interval
  // EWMA carries no initialized flag: it holds a sample exactly when the
  // current epoch has seen two signals.
  std::vector<double> interval_;              // signal-interval EWMA
  std::vector<sim::SimTime> last_signal_;     // most recent signal time
  std::vector<std::uint64_t> epoch_signals_;  // since join / last rejoin
  std::vector<std::uint64_t> signals_;        // lifetime count
  std::vector<double> srtt_;                  // sender-reported srtt mirror
  std::vector<sim::SimTime> state_until_;     // quarantine/probation expiry
  std::vector<int> strikes_;                  // defense strike count
};

/// Bottom-k hash sample over the active census members: the k active ids
/// with the smallest splitmix64 hash of their id.  The hash is a pure
/// function of the id, so the sample is a deterministic function of the
/// active set and no RNG stream is consumed (record/replay stays
/// bit-identical).
///
/// While no active member is left out — always, at the default capacity —
/// a join appends and a leave just drops the member.  Once k is reached a
/// join only costs O(k) when it displaces the largest sampled hash, and a
/// leave that opens a place for a left-out member rebuilds from the
/// membership in O(N); membership changes are rare next to signals.
class SampleReservoir {
 public:
  /// Sets the capacity and rebuilds the sample over `core`'s active members.
  void configure(std::size_t capacity, CensusCore& core);

  std::size_t capacity() const { return capacity_; }

  /// Capacity hint for `n` members.
  void reserve(std::size_t n);

  /// Member `i` became active (join or rejoin).
  void insert(int i, CensusCore& core);

  /// Member `i` became inactive, leaving `active` active members; refills
  /// the freed place from `core` when a left-out member can take it.
  void erase(int i, CensusCore& core, int active);

  /// True when `i` is currently one of the sampled members.
  bool tracked(int i) const {
    return static_cast<std::size_t>(i) < in_sample_.size() &&
           in_sample_[static_cast<std::size_t>(i)] != 0;
  }

  /// Sampled member ids in ascending order.
  const std::vector<int>& sample() const { return ids_; }

  std::size_t state_bytes() const {
    return ids_.capacity() * sizeof(int) + in_sample_.capacity();
  }

 private:
  struct Entry {
    std::uint64_t hash;
    int id;
    bool operator<(const Entry& o) const {
      return hash != o.hash ? hash < o.hash : id < o.id;
    }
  };

  static Entry entry(int i);
  /// Adds `i` to the sample and gives it a slot in `core`.
  void admit(int i, CensusCore& core);
  void rebuild(CensusCore& core);
  void find_largest();

  std::size_t capacity_ = std::numeric_limits<std::size_t>::max();
  std::vector<int> ids_;                 // sampled ids, ascending
  std::vector<std::uint8_t> in_sample_;  // per-member flag
  Entry largest_{0, -1};                 // evicted first from a full sample
};

}  // namespace rlacast::cc
