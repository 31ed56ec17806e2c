// RLA multicast receiver.
//
// Subscribes to the session's multicast group, reassembles the packet
// stream, and acknowledges every received data packet (multicast original,
// multicast retransmission, or unicast retransmission) with a unicast
// SACK-format ACK carrying its receiver id — the same ACK format as TCP
// SACK, per §3.3 rule 1.
#pragma once

#include "net/agent.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"
#include "tcp/reassembly.hpp"

namespace rlacast::rla {

/// Interception point for outgoing ACKs, consulted just before an ACK is
/// handed to the pacer. fault::ReceiverAdversary implements this to model
/// misbehaving receivers (srtt liars, signal storms, mutes) without the
/// receiver itself knowing it is lying; nullptr (the default) is the honest
/// receiver. The tap may rewrite the ACK in place, suppress it, or ask for
/// extra verbatim copies (NACK implosion).
class AckTap {
 public:
  struct Verdict {
    bool suppress = false;  // drop the ACK instead of sending it
    int extra_copies = 0;   // send this many additional copies after it
  };

  virtual ~AckTap() = default;
  virtual Verdict on_ack(net::Packet& ack, sim::SimTime now) = 0;
};

struct RlaReceiverOptions {
  /// Late-join stream resumption: the first data packet received defines
  /// the start of this receiver's stream (everything earlier is not owed).
  /// Enable for receivers joining an in-progress session.
  bool resume_at_first_packet = false;
  /// Random per-ACK processing time, Uniform(0, max). Essential with
  /// drop-tail gateways: a multicast packet reaches all receivers of a
  /// balanced tree at the same instant, so without receiver-side jitter
  /// their ACKs hit shared reverse queues as a simultaneous burst and the
  /// tail of the burst is deterministically dropped every round — the §3.1
  /// phase effect on the feedback path.
  sim::SimTime max_ack_overhead = 0.0;
};

class RlaReceiver final : public net::Agent {
 public:
  using Options = RlaReceiverOptions;

  /// `id` is this receiver's index within the session (echoed in ACKs).
  RlaReceiver(net::Network& network, net::NodeId node, net::PortId port,
              net::GroupId group, net::NodeId sender_node,
              net::PortId sender_port, int id, Options options = {});

  void on_receive(const net::Packet& p) override;

  /// Crash fault: a silenced receiver still gets packets (it is still in
  /// the multicast tree) but processes and acknowledges nothing — exactly
  /// what the sender sees when a receiver host dies.
  void set_silenced(bool silenced) { silenced_ = silenced; }
  bool silenced() const { return silenced_; }

  /// Installs (or clears, with nullptr) the outgoing-ACK tap. Not owned.
  void set_ack_tap(AckTap* tap) { ack_tap_ = tap; }
  AckTap* ack_tap() const { return ack_tap_; }

  int id() const { return id_; }
  const tcp::ReassemblyBuffer& buffer() const { return buf_; }
  std::uint64_t data_packets_received() const { return received_; }
  std::uint64_t duplicates_received() const { return duplicates_; }

 private:
  net::Network& network_;
  net::NodeId node_;
  net::PortId port_;
  net::GroupId group_;
  net::NodeId sender_node_;
  net::PortId sender_port_;
  int id_;
  Options options_;

  net::SendPacer ack_pacer_;
  tcp::ReassemblyBuffer buf_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  bool silenced_ = false;
  AckTap* ack_tap_ = nullptr;
};

}  // namespace rlacast::rla
