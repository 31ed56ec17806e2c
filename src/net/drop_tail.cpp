#include "net/drop_tail.hpp"

namespace rlacast::net {

Queue::Verdict DropTailQueue::admit(const Packet& p, sim::SimTime /*now*/) {
  const bool full =
      byte_mode()
          ? bytes() + p.size_bytes >
                static_cast<std::int64_t>(capacity_) * slot_bytes_
          : length() >= capacity_;
  return full ? Verdict::kDrop : Verdict::kAccept;
}

}  // namespace rlacast::net
