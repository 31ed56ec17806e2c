// LayerTrace: the RunObserver of the benchmark's traced pass.
//
// It is installed through the runners' existing `instrument` hook and reads
// every layer from outside the program, through the replay observer
// interface alone:
//  * it timestamps each on_dispatch call — the gap to the next one is one
//    callback plus the next heap pop;
//  * it counts RNG draws per stream family (on_stream / on_draw);
//  * it keeps the scheduler, every link and queue, every RLA sender and
//    every TCP window that `attach` hands it, and reads them on `detach`,
//    while they are still alive;
//  * it charges a dispatch to the RLA sender when the sender's
//    acks_received() advanced during it.
// Like every observer it is passive: no draws, no scheduling, no mutation,
// so a traced run's result rows are bit-identical to an untraced run's.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "replay/snapshot.hpp"

namespace rlacast::cc {
class Window;
}
namespace rlacast::rla {
class RlaSender;
}
namespace rlacast::sim {
class Scheduler;
}

namespace perfbench {

/// Log-linear histogram of nanosecond durations: exact below 32 ns, then 32
/// buckets per octave (about 3 % wide). Quantiles interpolate linearly
/// inside the bucket that holds the rank.
class NsHistogram {
 public:
  void add(std::int64_t ns);
  void merge(const NsHistogram& other);
  /// q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSub = 32;
  static constexpr int kOctaves = 44;  // covers up to 2^47 ns
  std::array<std::uint64_t, kSub * kOctaves> counts_{};
  std::uint64_t count_ = 0;
};

class LayerTrace final : public rlacast::replay::RunObserver {
 public:
  /// Everything the trace read off one run. Complete once the runner has
  /// returned (every component detached on teardown).
  struct Totals {
    // Scheduler counters, read when the simulator detaches it.
    std::uint64_t dispatched = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t rescheduled = 0;
    std::size_t heap_hiwater = 0;
    // Links and their queues, each read when its link detaches.
    std::uint64_t hops = 0;  // sum of packets_delivered()
    std::size_t inflight_hiwater = 0;
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
    /// Configuration of the slowest link: the workload's bottleneck.
    rlacast::net::LinkConfig bottleneck{};
    // RNG draws per family.
    std::uint64_t red_draws = 0;    // red-queue-* streams
    std::uint64_t pacer_draws = 0;  // senders' *-overhead-* streams
    // RLA senders, read when each detaches.
    std::uint64_t rla_acks = 0;
    std::size_t rla_state_bytes = 0;
    std::size_t rla_receivers = 0;
    // TCP: one tcp-*/window attach per TcpSender built, and the cwnd of the
    // live windows sampled every kCwndSamplePeriod simulated seconds.
    std::uint64_t tcp_flows_opened = 0;
    double cwnd_sum = 0.0;
    std::uint64_t cwnd_samples = 0;
    // Dispatch timing.
    NsHistogram dispatch_ns;
    NsHistogram ack_ns;  // dispatches during which RLA ACKs were handled
    double dispatch_total_ns = 0.0;
    double ack_total_ns = 0.0;
  };

  static constexpr double kCwndSamplePeriod = 0.1;

  const Totals& totals() const { return t_; }

  std::uint32_t on_stream(std::string_view label) override;
  void on_draw(std::uint32_t stream, std::uint64_t index) override;
  void on_dispatch(std::uint64_t seq, double at) override;
  void attach(std::string id,
              const rlacast::replay::Snapshotable* component) override;
  void detach(const rlacast::replay::Snapshotable* component) override;

 private:
  enum class Family : std::uint8_t { kOther, kRed, kPacer };

  std::uint64_t live_acks() const;
  void sample_windows(double at);

  Totals t_;
  std::vector<Family> stream_family_;
  const rlacast::sim::Scheduler* scheduler_ = nullptr;
  std::vector<const rlacast::net::Link*> links_;
  std::vector<const rlacast::rla::RlaSender*> rla_;
  std::vector<const rlacast::cc::Window*> windows_;
  std::uint64_t retired_acks_ = 0;  // acks of RLA senders already detached
  std::uint64_t prev_acks_ = 0;
  bool have_bottleneck_ = false;
  std::int64_t prev_ns_ = 0;
  bool have_prev_ = false;
  double next_sample_ = 0.0;
};

}  // namespace perfbench
