#include "layer_trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "cc/window.hpp"
#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "net/red.hpp"
#include "rla/rla_sender.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

using namespace rlacast;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The entry of `v` that is `component` (compared as Snapshotable, so the
/// base-class pointer adjustment of multiply-derived components is right).
template <typename T>
auto find_component(std::vector<const T*>& v,
                    const replay::Snapshotable* component) {
  return std::find_if(v.begin(), v.end(), [component](const T* p) {
    return static_cast<const replay::Snapshotable*>(p) == component;
  });
}

net::LinkConfig config_of(const net::Link& link) {
  net::LinkConfig c;
  c.bandwidth_bps = link.bandwidth_bps();
  c.delay = link.delay();
  if (const auto* red = dynamic_cast<const net::RedQueue*>(&link.queue())) {
    c.queue = net::QueueKind::kRed;
    c.red = red->params();
    c.buffer_pkts = red->params().capacity;
    c.queue_slot_bytes = red->params().slot_bytes;
  } else if (const auto* dt =
                 dynamic_cast<const net::DropTailQueue*>(&link.queue())) {
    c.queue = net::QueueKind::kDropTail;
    c.buffer_pkts = dt->capacity();
    // Byte mode always runs with the LinkConfig default slot size.
    c.queue_slot_bytes = dt->byte_mode() ? net::kDataPacketBytes : 0;
  }
  return c;
}

}  // namespace

// --- NsHistogram -------------------------------------------------------------

void NsHistogram::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(
      std::clamp<std::int64_t>(ns, 0, (std::int64_t{1} << 47) - 1));
  std::size_t idx = 0;
  if (v < kSub) {
    idx = v;
  } else {
    const int e = std::bit_width(v) - 1;  // >= 5
    const auto sub = static_cast<std::size_t>((v >> (e - 5)) - kSub);
    idx = static_cast<std::size_t>(e - 4) * kSub + sub;
  }
  ++counts_[idx];
  ++count_;
}

void NsHistogram::merge(const NsHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double NsHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double c = static_cast<double>(counts_[i]);
    if (cum + c >= target) {
      double lo = 0.0;
      double width = 1.0;
      if (i < kSub) {
        lo = static_cast<double>(i);
      } else {
        const int e = static_cast<int>(i / kSub) + 4;
        const double unit = static_cast<double>(std::uint64_t{1} << (e - 5));
        lo = static_cast<double>(kSub + i % kSub) * unit;
        width = unit;
      }
      return lo + width * (target - cum) / c;
    }
    cum += c;
  }
  return 0.0;
}

// --- LayerTrace --------------------------------------------------------------

std::uint32_t LayerTrace::on_stream(std::string_view label) {
  Family f = Family::kOther;
  if (label.starts_with("red-queue-"))
    f = Family::kRed;
  else if (label.starts_with("tcp-overhead-") ||
           label.starts_with("rla-overhead-"))
    f = Family::kPacer;  // the senders' SendPacer jitter streams
  stream_family_.push_back(f);
  return static_cast<std::uint32_t>(stream_family_.size() - 1);
}

void LayerTrace::on_draw(std::uint32_t stream, std::uint64_t /*index*/) {
  if (stream >= stream_family_.size()) return;
  switch (stream_family_[stream]) {
    case Family::kRed:
      ++t_.red_draws;
      break;
    case Family::kPacer:
      ++t_.pacer_draws;
      break;
    case Family::kOther:
      break;
  }
}

std::uint64_t LayerTrace::live_acks() const {
  std::uint64_t n = retired_acks_;
  for (const rla::RlaSender* s : rla_) n += s->acks_received();
  return n;
}

void LayerTrace::on_dispatch(std::uint64_t /*seq*/, double at) {
  const std::int64_t now = now_ns();
  if (have_prev_) {
    // The interval that just closed belongs to the previous dispatch.
    const std::int64_t d = now - prev_ns_;
    t_.dispatch_ns.add(d);
    t_.dispatch_total_ns += static_cast<double>(d);
    const std::uint64_t acks = live_acks();
    if (acks != prev_acks_) {
      t_.ack_ns.add(d);
      t_.ack_total_ns += static_cast<double>(d);
      prev_acks_ = acks;
    }
  }
  if (at >= next_sample_) sample_windows(at);
  have_prev_ = true;
  prev_ns_ = now_ns();  // keep the trace's own bookkeeping out of the next gap
}

void LayerTrace::sample_windows(double at) {
  while (next_sample_ <= at) next_sample_ += kCwndSamplePeriod;
  for (const cc::Window* w : windows_) {
    t_.cwnd_sum += w->cwnd();
    ++t_.cwnd_samples;
  }
}

void LayerTrace::attach(std::string id, const replay::Snapshotable* component) {
  if (id == "scheduler") {
    scheduler_ = dynamic_cast<const sim::Scheduler*>(component);
  } else if (id.starts_with("link-") && !id.ends_with("/queue")) {
    if (const auto* l = dynamic_cast<const net::Link*>(component))
      links_.push_back(l);
  } else if (id.starts_with("rla-") && id.find('/') == std::string::npos) {
    if (const auto* s = dynamic_cast<const rla::RlaSender*>(component))
      rla_.push_back(s);
  } else if (id.starts_with("tcp-") && id.ends_with("/window")) {
    ++t_.tcp_flows_opened;
    if (const auto* w = dynamic_cast<const cc::Window*>(component))
      windows_.push_back(w);
  }
}

void LayerTrace::detach(const replay::Snapshotable* component) {
  if (component == nullptr) return;
  if (scheduler_ != nullptr && component == scheduler_) {
    const stats::EngineCounters& c = scheduler_->counters();
    t_.dispatched = c.dispatched;
    t_.scheduled = c.scheduled;
    t_.rescheduled = c.rescheduled;
    t_.heap_hiwater = c.heap_hiwater;
    scheduler_ = nullptr;
    return;
  }
  if (const auto link = find_component(links_, component);
      link != links_.end()) {
    const net::Link& l = **link;
    t_.hops += l.packets_delivered();
    t_.inflight_hiwater = std::max(t_.inflight_hiwater, l.in_flight_hiwater());
    t_.enqueued += l.queue().stats().enqueued;
    t_.dropped += l.queue().stats().dropped;
    if (!have_bottleneck_ ||
        l.bandwidth_bps() < t_.bottleneck.bandwidth_bps) {
      t_.bottleneck = config_of(l);
      have_bottleneck_ = true;
    }
    links_.erase(link);
    return;
  }
  if (const auto sender = find_component(rla_, component);
      sender != rla_.end()) {
    const rla::RlaSender& s = **sender;
    retired_acks_ += s.acks_received();
    t_.rla_acks += s.acks_received();
    t_.rla_state_bytes += s.state_bytes();
    t_.rla_receivers += s.receiver_count();
    rla_.erase(sender);
    return;
  }
  if (const auto w = find_component(windows_, component); w != windows_.end())
    windows_.erase(w);
}

}  // namespace perfbench
