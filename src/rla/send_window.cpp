#include "rla/send_window.hpp"

#include <cassert>

namespace rlacast::rla {

void SendWindow::on_send(net::SeqNum seq, sim::SimTime now) {
  assert(seq >= end() && "first transmissions extend the window");
  SendInfo& info = at(seq);
  info.first_sent = now;
}

SendInfo* SendWindow::find(net::SeqNum seq) {
  if (seq < base_ || seq >= end()) return nullptr;
  SendInfo& info = slot(seq);
  return info.present ? &info : nullptr;
}

SendInfo& SendWindow::at(net::SeqNum seq) {
  if (seq >= end()) {
    // Beyond every cursor (none passes the end): no cursor to lower.
    while (seq >= end()) ring_.push_back(SendInfo{});
    SendInfo& info = slot(seq);
    info.present = true;
    return info;
  }
  for (; seq < base_; --base_) ring_.push_front(SendInfo{});
  SendInfo& info = slot(seq);
  if (!info.present) {
    info.present = true;
    for (net::SeqNum& c : cursor_) c = std::min(c, seq);
  }
  return info;
}

void SendWindow::drop_below(net::SeqNum seq) {
  for (; base_ < seq && !ring_.empty(); ++base_) ring_.pop_front();
}

std::size_t SendWindow::size() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) n += ring_[i].present;
  return n;
}

void SendWindow::refresh(const cc::TroubledCensus& census) {
  if (census.membership_version() == version_) return;
  version_ = census.membership_version();
  need_ = 0;
  const std::size_t n = std::min<std::size_t>(census.receiver_count(),
                                              kMaxMembers);
  for (std::size_t i = 0; i < n; ++i)
    if (!census.excluded(static_cast<int>(i))) need_ |= 1ULL << i;
  cursor_.fill(base_);
}

}  // namespace rlacast::rla
