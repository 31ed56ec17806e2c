#include "cc/census_core.hpp"

#include <algorithm>

namespace rlacast::cc {

void CensusCore::reserve(std::size_t members, std::size_t slots) {
  troubled.reserve(members);
  state.reserve(members);
  slot_.reserve(members);
  interval_.reserve(slots);
  last_signal_.reserve(slots);
  epoch_signals_.reserve(slots);
  signals_.reserve(slots);
  srtt_.reserve(slots);
  state_until_.reserve(slots);
  strikes_.reserve(slots);
}

int CensusCore::add() {
  troubled.push_back(0);
  state.push_back(MemberState::kActive);
  slot_.push_back(-1);
  return static_cast<int>(state.size()) - 1;
}

std::size_t CensusCore::ensure_slot(int i) {
  std::int32_t& s = slot_[static_cast<std::size_t>(i)];
  if (s < 0) {
    s = static_cast<std::int32_t>(interval_.size());
    interval_.push_back(0.0);
    last_signal_.push_back(sim::kNever);
    epoch_signals_.push_back(0);
    signals_.push_back(0);
    srtt_.push_back(0.0);
    state_until_.push_back(0.0);
    strikes_.push_back(0);
  }
  return static_cast<std::size_t>(s);
}

void CensusCore::record_signal(int i, sim::SimTime now) {
  const std::size_t s = ensure_slot(i);
  const sim::SimTime gap = now - last_signal_[s];
  if (epoch_signals_[s] == 1)
    interval_[s] = gap;  // the EWMA's first sample
  else if (epoch_signals_[s] > 1)
    interval_[s] += gain_ * (gap - interval_[s]);
  last_signal_[s] = now;
  ++signals_[s];
  ++epoch_signals_[s];
}

void CensusCore::reset_epoch(int i) {
  // A member with no slot has no history to forget.
  if (slot(i) < 0) return;
  const auto s = static_cast<std::size_t>(slot(i));
  last_signal_[s] = sim::kNever;
  epoch_signals_[s] = 0;
}

double CensusCore::effective_interval(int i, sim::SimTime now) const {
  if (slot(i) < 0 || excluded(i)) return -1.0;
  const auto s = static_cast<std::size_t>(slot(i));
  if (epoch_signals_[s] == 0) return -1.0;
  const double since_last = now - last_signal_[s];
  if (epoch_signals_[s] == 1) return std::max(since_last, 1e-12);
  return std::max(interval_[s], since_last);
}

double CensusCore::srtt_of(int i) const {
  return slot(i) < 0 ? 0.0 : srtt_[static_cast<std::size_t>(slot(i))];
}

void CensusCore::set_srtt(int i, double srtt) {
  if (slot(i) >= 0) srtt_[static_cast<std::size_t>(slot(i))] = srtt;
}

sim::SimTime CensusCore::last_signal_at(int i) const {
  return slot(i) < 0 ? sim::kNever
                     : last_signal_[static_cast<std::size_t>(slot(i))];
}

std::uint64_t CensusCore::signal_count(int i) const {
  return slot(i) < 0 ? 0 : signals_[static_cast<std::size_t>(slot(i))];
}

std::uint64_t CensusCore::epoch_signal_count(int i) const {
  return slot(i) < 0 ? 0 : epoch_signals_[static_cast<std::size_t>(slot(i))];
}

int CensusCore::strike_count(int i) const {
  return slot(i) < 0 ? 0 : strikes_[static_cast<std::size_t>(slot(i))];
}

int CensusCore::add_strike(int i) { return ++strikes_[ensure_slot(i)]; }

sim::SimTime CensusCore::state_until_of(int i) const {
  return slot(i) < 0 ? 0.0 : state_until_[static_cast<std::size_t>(slot(i))];
}

void CensusCore::set_state_until(int i, sim::SimTime t) {
  state_until_[ensure_slot(i)] = t;
}

std::size_t CensusCore::state_bytes() const {
  return troubled.capacity() + state.capacity() * sizeof(MemberState) +
         slot_.capacity() * sizeof(std::int32_t) +
         interval_.capacity() * sizeof(double) +
         last_signal_.capacity() * sizeof(sim::SimTime) +
         epoch_signals_.capacity() * sizeof(std::uint64_t) +
         signals_.capacity() * sizeof(std::uint64_t) +
         srtt_.capacity() * sizeof(double) +
         state_until_.capacity() * sizeof(sim::SimTime) +
         strikes_.capacity() * sizeof(int);
}

SampleReservoir::Entry SampleReservoir::entry(int i) {
  // splitmix64 finalizer of (seed + id): a fixed bijection, so the sample is
  // a deterministic function of the active set and consumes no RNG.
  constexpr std::uint64_t kSeed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t x = kSeed + static_cast<std::uint64_t>(i);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return Entry{x ^ (x >> 31), i};
}

void SampleReservoir::configure(std::size_t capacity, CensusCore& core) {
  capacity_ = capacity;
  rebuild(core);
}

void SampleReservoir::reserve(std::size_t n) {
  in_sample_.reserve(n);
  ids_.reserve(std::min(n, capacity_));
}

void SampleReservoir::insert(int i, CensusCore& core) {
  if (static_cast<std::size_t>(i) >= in_sample_.size())
    in_sample_.resize(static_cast<std::size_t>(i) + 1, 0);
  if (ids_.size() >= capacity_) {
    // Full: `i` only enters by displacing the largest sampled hash.
    if (capacity_ == 0 || !(entry(i) < largest_)) return;
    in_sample_[static_cast<std::size_t>(largest_.id)] = 0;
    ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), largest_.id));
  }
  admit(i, core);
  if (ids_.size() == capacity_) find_largest();
}

void SampleReservoir::erase(int i, CensusCore& core, int active) {
  if (!tracked(i)) return;
  in_sample_[static_cast<std::size_t>(i)] = 0;
  ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), i));
  // Some active member is left out: only a rescan knows which one has the
  // smallest hash and takes the freed place.
  if (static_cast<std::size_t>(active) > ids_.size()) rebuild(core);
}

void SampleReservoir::admit(int i, CensusCore& core) {
  // Joins arrive in id order, so the append is the common case.
  if (ids_.empty() || ids_.back() < i)
    ids_.push_back(i);
  else
    ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), i), i);
  in_sample_[static_cast<std::size_t>(i)] = 1;
  core.ensure_slot(i);
}

void SampleReservoir::rebuild(CensusCore& core) {
  std::vector<Entry> active;
  for (std::size_t i = 0; i < core.size(); ++i)
    if (!core.excluded(static_cast<int>(i)))
      active.push_back(entry(static_cast<int>(i)));
  if (active.size() > capacity_) {
    std::nth_element(active.begin(),
                     active.begin() + static_cast<std::ptrdiff_t>(capacity_),
                     active.end());
    active.resize(capacity_);
  }
  std::sort(active.begin(), active.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  ids_.clear();
  in_sample_.assign(std::max(in_sample_.size(), core.size()), 0);
  for (const Entry& e : active) admit(e.id, core);
  if (ids_.size() == capacity_ && capacity_ > 0) find_largest();
}

void SampleReservoir::find_largest() {
  largest_ = entry(ids_.front());
  for (const int id : ids_) largest_ = std::max(largest_, entry(id));
}

}  // namespace rlacast::cc
