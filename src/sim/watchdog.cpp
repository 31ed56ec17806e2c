#include "sim/watchdog.hpp"

#include <utility>

namespace rlacast::sim {

Watchdog::Watchdog(Simulator& sim, SimTime period)
    : sim_(sim), period_(period) {}

void Watchdog::add_check(std::string name,
                         std::function<std::string()> check) {
  checks_.emplace_back(std::move(name), std::move(check));
}

void Watchdog::start() {
  last_dispatched_ = sim_.scheduler().counters().dispatched;
  sim_.after(period_, [this] { tick(); });
}

void Watchdog::record(const std::string& check, const std::string& detail) {
  for (const Violation& v : violations_) {
    if (v.check == check && v.detail == detail) return;  // no flooding
  }
  violations_.push_back(Violation{check, detail, sim_.now()});
}

void Watchdog::tick() {
  ++ticks_;

  for (const auto& [name, check] : checks_) {
    const std::string detail = check();
    if (!detail.empty()) record(name, detail);
  }

  // Event-horizon progress: the tick itself is one dispatch, so a wedged
  // engine shows a per-tick delta of exactly 1 while work stays pending.
  const std::uint64_t dispatched = sim_.scheduler().counters().dispatched;
  if (progress_grace_ > 0) {
    if (dispatched - last_dispatched_ <= 1 &&
        sim_.scheduler().pending() > 1) {
      if (++stalled_ticks_ >= progress_grace_) {
        record("event-progress",
               "no event progress for " + std::to_string(stalled_ticks_) +
                   " consecutive ticks with " +
                   std::to_string(sim_.scheduler().pending()) +
                   " events pending");
        stalled_ticks_ = 0;  // re-arm so a later stall is also caught
      }
    } else {
      stalled_ticks_ = 0;
    }
  }
  last_dispatched_ = dispatched;

  // Re-arm only while the simulation still has other work: a lone watchdog
  // must not keep an otherwise-finished run alive forever.
  if (sim_.scheduler().pending() > 0) {
    sim_.after(period_, [this] { tick(); });
  }
}

std::string Watchdog::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    if (!out.empty()) out += "; ";
    out += v.check + " @t=" + std::to_string(v.at) + ": " + v.detail;
  }
  return out;
}

}  // namespace rlacast::sim
