#include "net/link.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "net/network.hpp"

namespace rlacast::net {

Link::Link(sim::Simulator& sim, Network& network, NodeId from, NodeId to,
           double bandwidth_bps, sim::SimTime delay,
           std::unique_ptr<Queue> queue)
    : sim_(sim),
      network_(network),
      from_(from),
      to_(to),
      bandwidth_bps_(bandwidth_bps),
      delay_(delay),
      queue_(std::move(queue)),
      pipe_(sim.scheduler(), Deliver{&network, to}) {
  if (replay::RunObserver* obs = sim_.observer()) {
    const std::string id =
        "link-" + std::to_string(from_) + "-" + std::to_string(to_);
    obs->attach(id, this);
    obs->attach(id + "/queue", queue_.get());
  }
}

Link::~Link() {
  if (replay::RunObserver* obs = sim_.observer()) {
    obs->detach(this);
    obs->detach(queue_.get());
  }
}

replay::Snapshot Link::snapshot_state() const {
  replay::Snapshot s;
  s.put("busy", serializing());
  s.put("pipe", pipe_.size());
  s.put("inflight_hiwater", inflight_hiwater_);
  s.put("delivered", packets_delivered());
  s.put("bytes_delivered", bytes_delivered());
  s.put("drops", drops_);
  s.put("fault_drops", fault_drops_);
  s.put("fault_duplicates", fault_duplicates_);
  s.put("last_arrival", last_arrival_);
  return s;
}

void Link::transmit(const Packet& p) {
  if (fault_ != nullptr && fault_->down(sim_.now())) {
    // Interface outage: the packet is discarded at the link entrance, never
    // entering the queue (distinct from a congestion drop).
    ++fault_drops_;
    ++sim_.scheduler().counters_mut().fault_drops;
    return;
  }
  if (!serializing()) {
    // The queue holds packets only while the transmitter is busy, so a free
    // transmitter finds it empty: the packet takes the queue's admission
    // decision and goes straight onto the wire.
    const Queue::Verdict v = queue_->pass_through(p, sim_.now());
    if (v == Queue::Verdict::kDrop) {
      ++drops_;
      return;
    }
    start(p, v == Queue::Verdict::kMark);
    return;
  }
  if (!queue_->enqueue(p, sim_.now())) {
    ++drops_;  // queue overflow: the hop discards the packet
    return;
  }
  if (!end_armed_) arm_end();  // the first packet to wait needs the event
}

void Link::start(const Packet& p, bool ce) {
  busy_until_ = sim_.now() + tx_time(p.size_bytes);
  tx_bytes_ = p.size_bytes;
  if (fault_ == nullptr) {
    pipe_.push(busy_until_ + delay_, p).ce |= ce;
  } else {
    // Faulted wire: the packet may be lost, duplicated, or jittered on its
    // propagation leg.  Queue dynamics above are untouched.
    const LinkFaultHook::WireVerdict v = fault_->wire(p, busy_until_);
    if (v.lost) {
      ++fault_drops_;
      ++sim_.scheduler().counters_mut().fault_drops;
      tx_bytes_ = -1;
    } else {
      // The pipe pops FIFO, so a jittered arrival must never overtake an
      // earlier one: clamp each arrival to be monotone in start order.
      const sim::SimTime jitter = v.extra_delay > 0.0 ? v.extra_delay : 0.0;
      sim::SimTime arrive_at = busy_until_ + delay_ + jitter;
      if (arrive_at < last_arrival_) arrive_at = last_arrival_;
      last_arrival_ = arrive_at;
      if (v.duplicated) {
        ++fault_duplicates_;
        ++sim_.scheduler().counters_mut().fault_duplicates;
        pipe_.push(arrive_at, p).ce |= ce;  // the extra copy; original follows
      }
      pipe_.push(arrive_at, p).ce |= ce;
    }
  }
  if (tx_bytes_ >= 0) {
    ++delivered_;
    bytes_delivered_ += static_cast<std::uint64_t>(tx_bytes_);
  }
  inflight_hiwater_ = std::max(inflight_hiwater_, pipe_.size());
  end_seq_ = sim_.scheduler().take_seq();
}

void Link::arm_end() {
  end_armed_ = true;
  auto done = [this] { on_serialized(); };
  static_assert(sim::SmallCallback::fits_inline<decltype(done)>(),
                "link pipeline events must use the inline callback path");
  sim_.scheduler().schedule_at_seq(busy_until_, end_seq_, std::move(done));
}

void Link::on_serialized() {
  // Serialization end with a packet waiting: serve it straight from its
  // queue slot, and stay armed for the next end while packets still wait.
  end_armed_ = false;
  start(queue_->front(), false);
  queue_->pop(sim_.now());
  if (queue_->length() != 0) arm_end();
}

void Link::Deliver::operator()(const Packet& p) const {
  network->deliver(to, p);
}

}  // namespace rlacast::net
