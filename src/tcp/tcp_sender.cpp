#include "tcp/tcp_sender.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace rlacast::tcp {

namespace {

/// SACK loss rule and Reno/Tahoe fast-retransmit threshold.
constexpr int kDupThresh = 3;

std::unique_ptr<cc::LossResponsePolicy> make_policy(TcpVariant variant) {
  switch (variant) {
    case TcpVariant::kSack:
      return std::make_unique<cc::TcpSackPolicy>();
    case TcpVariant::kReno:
      return std::make_unique<cc::TcpRenoPolicy>();
    case TcpVariant::kTahoe:
      return std::make_unique<cc::TcpTahoePolicy>();
    case TcpVariant::kVegas:
      return std::make_unique<cc::DelayBasedPolicy>();
    case TcpVariant::kBbr:
      return std::make_unique<cc::BbrRatePolicy>();
  }
  return nullptr;
}

}  // namespace

TcpSender::TcpSender(net::Network& network, net::NodeId node, net::PortId port,
                     net::NodeId dst_node, net::PortId dst_port,
                     net::FlowId flow, TcpParams params)
    : network_(network),
      sim_(network.simulator()),
      node_(node),
      port_(port),
      dst_node_(dst_node),
      dst_port_(dst_port),
      flow_(flow),
      params_(params),
      pacer_(sim_, network,
             sim_.rng_stream("tcp-overhead-" + std::to_string(flow)),
             params.max_send_overhead),
      win_(cc::WindowParams{.initial_cwnd = params.initial_cwnd,
                            .initial_ssthresh = params.initial_ssthresh,
                            .max_cwnd = params.max_cwnd}),
      rto_(sim_, [this] { on_timeout(); }),
      policy_(make_policy(params.variant)),
      pace_timer_(sim_, [this] { pace_bbr(); }) {
  network_.attach(node_, port_, this);
  meas_.note_cwnd(0.0, win_.cwnd());
  if (replay::RunObserver* obs = sim_.observer()) {
    const std::string id = "tcp-" + std::to_string(flow_);
    obs->attach(id + "/window", &win_);
    obs->attach(id + "/rtt", &peer_.rtt);
  }
}

TcpSender::~TcpSender() {
  if (replay::RunObserver* obs = sim_.observer()) {
    obs->detach(&win_);
    obs->detach(&peer_.rtt);
  }
}

void TcpSender::start_at(sim::SimTime when) {
  sim_.at(when, [this] {
    started_ = true;
    meas_.note_cwnd(sim_.now(), win_.cwnd());
    send_what_we_can();
  });
}

cc::SignalContext TcpSender::signal_ctx(bool from_ecn) const {
  cc::SignalContext ctx;
  ctx.now = sim_.now();
  ctx.srtt = peer_.rtt.srtt();
  ctx.from_ecn = from_ecn;
  return ctx;
}

void TcpSender::apply_cut(cc::CutAction action) {
  if (cc::apply_cut_action(win_, *policy_, action))
    meas_.note_cwnd(sim_.now(), win_.cwnd());
}

void TcpSender::grow_window() {
  win_.grow(1);
  meas_.note_cwnd(sim_.now(), win_.cwnd());
}

void TcpSender::on_receive(const net::Packet& p) {
  if (p.type == net::PacketType::kAck) on_ack(p);
}

void TcpSender::on_ack(const net::Packet& ack) {
  if (done_) return;  // stray ACKs after a finite flow completed

  // --- RTT sampling, Karn's rule: skip samples echoed off retransmissions.
  // The receiver echoes (in ack.seq) the data seq that triggered this ACK
  // and (in ack.ts_echo) that packet's send timestamp.
  if (ack.seq != net::kNoSeq && !peer_.sb.was_retransmitted(ack.seq) &&
      ack.ts_echo > 0.0) {
    const double sample = sim_.now() - ack.ts_echo;
    peer_.rtt.add_sample(sample);
    meas_.note_rtt(sim_.now(), sample);
    if (params_.variant == TcpVariant::kVegas) on_rtt_sample_vegas(sample);
  }

  // --- cumulative advance (common to all variants).
  const std::int64_t newly_acked = peer_.sb.advance(ack.ack);
  if (newly_acked > 0) {
    meas_.note_acked(newly_acked);
    peer_.rtt.reset_backoff();  // forward progress clears backoff (Karn)
  }
  if (params_.variant == TcpVariant::kBbr)
    on_delivery_sample_bbr(ack, newly_acked);
  maybe_complete();
  if (done_) return;

  // ECN: an echoed CE mark is a congestion signal, honoured at most once
  // per recovery episode (like a loss, but with nothing to retransmit).
  if (params_.ecn && ack.ece) {
    grouper_.refresh(peer_.sb.una());
    if (!grouper_.in_episode()) {
      grouper_.open_episode(peer_.sb.high());
      apply_cut(policy_->on_signal(signal_ctx(/*from_ecn=*/true)));
      meas_.note_congestion_signal();
      meas_.note_window_cut();
    }
  }

  switch (params_.variant) {
    case TcpVariant::kSack:
      on_ack_sack(ack, newly_acked);
      break;
    case TcpVariant::kReno:
    case TcpVariant::kTahoe:
    case TcpVariant::kVegas:  // Reno loss mechanics, delay-gradient growth
      on_ack_reno(ack, newly_acked);
      break;
    case TcpVariant::kBbr:  // SACK scoreboard mechanics, model-set window
      on_ack_sack(ack, newly_acked);
      break;
  }

  if (peer_.sb.outstanding() > 0)
    restart_rexmit_timer();
  else
    rto_.cancel();

  send_what_we_can();
}

void TcpSender::on_ack_sack(const net::Packet& ack,
                            std::int64_t newly_acked) {
  peer_.sb.apply_sack(ack.sack.data(), ack.n_sack);
  const int new_losses = peer_.sb.detect_losses(kDupThresh);

  // Recovery state machine: one halving per loss episode. A policy that
  // answers kNone (the BBR-style competitor) registers the signal but no
  // window cut.
  grouper_.refresh(peer_.sb.una());
  if (new_losses > 0 && !grouper_.in_episode()) {
    grouper_.open_episode(peer_.sb.high());
    const cc::CutAction action =
        policy_->on_signal(signal_ctx(/*from_ecn=*/false));
    meas_.note_congestion_signal();
    if (action != cc::CutAction::kNone) meas_.note_window_cut();
    apply_cut(action);
  }

  if (params_.variant == TcpVariant::kBbr) {
    // The model, not ACK counting, sets the window: per-round bookkeeping,
    // then cap cwnd at cwnd_gain * estimated BDP.
    if (newly_acked > 0 && peer_.sb.una() >= bbr_round_end_) {
      bbr_round_end_ = peer_.sb.high();
      bbr_.on_round(sim_.now());
    }
    const double cap = bbr_.cwnd_cap();
    if (win_.cwnd() != cap) {
      win_.set_cwnd(cap);
      meas_.note_cwnd(sim_.now(), win_.cwnd());
    }
    return;
  }

  // Window growth (not during recovery, per ns-2 sack1).
  if (newly_acked > 0 && !grouper_.in_episode()) grow_window();
}

void TcpSender::on_ack_reno(const net::Packet& ack,
                            std::int64_t newly_acked) {
  (void)ack;  // Reno/Tahoe ignore the SACK blocks entirely
  if (newly_acked == 0) {
    if (peer_.sb.outstanding() == 0) return;  // stray ACK
    ++dupacks_;
    if (!grouper_.in_episode() && dupacks_ == kDupThresh) {
      // Fast retransmit.
      meas_.note_congestion_signal();
      meas_.note_window_cut();
      peer_.sb.on_retransmit(peer_.sb.una());
      send_packet(peer_.sb.una(), /*rexmit=*/true);
      const cc::CutAction action =
          policy_->on_signal(signal_ctx(/*from_ecn=*/false));
      if (action == cc::CutAction::kCollapse) {
        // Tahoe: no fast recovery — collapse and slow-start.
        apply_cut(action);
        dupacks_ = 0;
      } else {
        // Reno: halve and inflate by the dupacks already seen.
        grouper_.open_episode(peer_.sb.high());
        apply_cut(action);
        inflation_ = static_cast<double>(kDupThresh);
      }
    } else if (grouper_.in_episode()) {
      inflation_ += 1.0;  // every further dupack means a packet left the pipe
    }
    return;
  }

  // New cumulative ACK.
  dupacks_ = 0;
  if (grouper_.in_episode()) {
    grouper_.refresh(peer_.sb.una());
    if (!grouper_.in_episode()) {
      inflation_ = 0.0;  // full recovery: deflate
    } else {
      // Partial ACK (NewReno behaviour): the next hole is also gone;
      // retransmit it immediately and stay in recovery.
      peer_.sb.on_retransmit(peer_.sb.una());
      send_packet(peer_.sb.una(), /*rexmit=*/true);
      inflation_ = std::max(0.0, inflation_ - static_cast<double>(newly_acked));
      return;
    }
  }
  if (params_.variant == TcpVariant::kVegas) {
    // Vegas growth: exponential only until the backlog estimate says the
    // pipe is full, then one +-1 decision per RTT (epoch = one window of
    // data cumulatively acknowledged).
    if (win_.in_slow_start() && !vegas_.slow_start_done(win_.cwnd())) {
      grow_window();
    } else if (peer_.sb.una() >= vegas_epoch_end_) {
      vegas_epoch_end_ = peer_.sb.high();
      switch (vegas_.decide(win_.cwnd())) {
        case cc::DelayGradient::Verdict::kIncrease:
          win_.set_cwnd(win_.cwnd() + 1.0);
          meas_.note_cwnd(sim_.now(), win_.cwnd());
          break;
        case cc::DelayGradient::Verdict::kDecrease:
          win_.set_cwnd(win_.cwnd() - 1.0);
          meas_.note_cwnd(sim_.now(), win_.cwnd());
          break;
        case cc::DelayGradient::Verdict::kHold:
          break;
      }
    }
    return;
  }
  grow_window();
}

void TcpSender::on_rtt_sample_vegas(double sample) {
  vegas_.add_sample(sample);
}

void TcpSender::on_delivery_sample_bbr(const net::Packet& ack,
                                       std::int64_t newly_acked) {
  delivered_ += newly_acked;
  // Rate sample (BBR's delivered-count idea): throughput seen by the packet
  // this ACK answers = delivered packets since it was sent / elapsed.
  // Karn-filtered like RTT: retransmitted packets give ambiguous samples.
  if (ack.seq != net::kNoSeq && !peer_.sb.was_retransmitted(ack.seq) &&
      ack.ts_echo > 0.0) {
    const auto it = delivery_records_.find(ack.seq);
    if (it != delivery_records_.end()) {
      const sim::SimTime interval = sim_.now() - it->second.sent_at;
      const auto delta =
          static_cast<double>(delivered_ - it->second.delivered_at_send);
      bbr_.on_sample(sim_.now(), delta, interval, sim_.now() - ack.ts_echo);
    }
  }
  // Records at or below una can never produce another sample.
  delivery_records_.erase(delivery_records_.begin(),
                          delivery_records_.lower_bound(peer_.sb.una()));
}

void TcpSender::send_what_we_can() {
  if (!started_ || done_) return;
  if (params_.variant == TcpVariant::kBbr) {
    // Paced, not window-burst: (re)start the pacing loop if it is idle.
    // While the pacer is ahead of the window/flow limit it disarms itself
    // and this ACK-clocked restart picks sending back up.
    if (!pace_timer_.armed()) pace_bbr();
    return;
  }
  const auto cwnd = static_cast<std::int64_t>(win_.cwnd());
  if (params_.variant == TcpVariant::kSack) {
    while (true) {
      const net::SeqNum rexmit = peer_.sb.next_to_retransmit();
      if (rexmit != net::kNoSeq) {
        if (peer_.sb.pipe() >= cwnd) break;
        send_packet(rexmit, /*rexmit=*/true);
        continue;
      }
      // New data: bounded by the window from una, the pipe, and (finite
      // flows) the amount of data the application has.
      if (peer_.sb.high() >= flow_limit()) break;
      if (peer_.sb.high() >= peer_.sb.una() + cwnd) break;
      if (peer_.sb.pipe() >= cwnd) break;
      send_packet(peer_.sb.high(), /*rexmit=*/false);
    }
    return;
  }
  // Reno/Tahoe/Vegas: plain window from una, inflated during fast recovery.
  const auto wnd = static_cast<std::int64_t>(win_.cwnd() + inflation_);
  while (peer_.sb.high() < peer_.sb.una() + wnd &&
         peer_.sb.high() < flow_limit())
    send_packet(peer_.sb.high(), /*rexmit=*/false);
}

void TcpSender::pace_bbr() {
  if (!started_ || done_) return;
  const auto cwnd = static_cast<std::int64_t>(win_.cwnd());
  if (!send_one_eligible(cwnd)) return;  // limited: next ACK restarts pacing
  const double rate = std::max(bbr_.pacing_rate_pps(), 1e-3);
  pace_timer_.schedule(1.0 / rate);
}

bool TcpSender::send_one_eligible(std::int64_t cwnd) {
  // SACK-style eligibility, one packet: retransmissions first, then new
  // data, both capped by the in-flight (pipe) limit.
  const net::SeqNum rexmit = peer_.sb.next_to_retransmit();
  if (rexmit != net::kNoSeq) {
    if (peer_.sb.pipe() >= cwnd) return false;
    send_packet(rexmit, /*rexmit=*/true);
    return true;
  }
  if (peer_.sb.high() >= flow_limit()) return false;
  if (peer_.sb.high() >= peer_.sb.una() + cwnd) return false;
  if (peer_.sb.pipe() >= cwnd) return false;
  send_packet(peer_.sb.high(), /*rexmit=*/false);
  return true;
}

net::SeqNum TcpSender::flow_limit() const {
  return params_.flow_packets > 0 ? params_.flow_packets
                                  : std::numeric_limits<net::SeqNum>::max();
}

bool TcpSender::app_limited() const {
  if (!started_ || done_) return true;
  if (params_.flow_packets <= 0) return false;
  // Tail of a finite flow: every packet has been handed to the network at
  // least once, so new data can no longer fill the window.
  return peer_.sb.high() >= params_.flow_packets;
}

void TcpSender::maybe_complete() {
  if (done_ || params_.flow_packets <= 0) return;
  if (peer_.sb.una() < params_.flow_packets) return;
  done_ = true;
  rto_.cancel();
  pace_timer_.cancel();
  if (on_complete_) on_complete_();
}

void TcpSender::send_packet(net::SeqNum seq, bool rexmit) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.flow = flow_;
  p.src = node_;
  p.dst = dst_node_;
  p.src_port = port_;
  p.dst_port = dst_port_;
  p.size_bytes = net::kDataPacketBytes;
  p.seq = seq;
  p.ts_echo = sim_.now();
  p.is_rexmit = rexmit;
  p.ect = params_.ecn;

  if (rexmit)
    peer_.sb.on_retransmit(seq);
  else
    peer_.sb.on_send(seq);

  // BBR rate samples need the delivered count at (first) send time.
  if (params_.variant == TcpVariant::kBbr && !rexmit)
    delivery_records_[seq] = DeliveryRecord{delivered_, sim_.now()};

  pacer_.send(p);
  rto_.ensure_armed(peer_.rtt.rto());
}

void TcpSender::restart_rexmit_timer() { rto_.restart(peer_.rtt.rto()); }

void TcpSender::on_timeout() {
  if (done_ || peer_.sb.outstanding() == 0) return;
  meas_.note_timeout();
  meas_.note_congestion_signal();
  // Loss-based variants always collapse on RTO; the BBR-style sender only
  // collapses (and forgets its bandwidth model) when the SAME data stalls
  // through consecutive timeouts — a single RTO is just the model being
  // slow, not the path being gone.
  bool repeated_stall = true;
  if (params_.variant == TcpVariant::kBbr) {
    repeated_stall = peer_.sb.una() == last_timeout_una_;
    last_timeout_una_ = peer_.sb.una();
    if (repeated_stall) bbr_.reset_bw();
  }
  const cc::CutAction action = policy_->on_timeout(repeated_stall);
  if (action != cc::CutAction::kNone) meas_.note_window_cut();
  apply_cut(action);
  grouper_.close_episode();
  dupacks_ = 0;
  inflation_ = 0.0;
  peer_.rtt.back_off();
  peer_.sb.mark_all_lost();
  if (params_.variant != TcpVariant::kSack &&
      params_.variant != TcpVariant::kBbr) {
    // Go-back-N restart: retransmit the first outstanding packet now; the
    // rest follow as the window re-opens.
    send_packet(peer_.sb.una(), /*rexmit=*/true);
  }
  restart_rexmit_timer();
  send_what_we_can();
}

}  // namespace rlacast::tcp
