#include "rla/rla_sender.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace rlacast::rla {

namespace {

/// "At least three higher" SACK loss rule (§3.3 rule 1).
constexpr int kDupThresh = 3;

/// EWMA gain of awnd, the moving average of cwnd used by the forced-cut
/// guard. Updated once per reach-all acknowledgment.
constexpr double kAwndGain = 0.01;

// Frontier watchdog (RlaParams::frontier_watchdog).
/// Stall threshold in units of the current max receiver RTO.
constexpr double kWatchdogStallRtos = 3.0;
/// Absolute floor of the stall threshold, seconds.
constexpr sim::SimTime kWatchdogMinStall = 1.0;
/// ACKs that must arrive during the stall before receivers are blamed — a
/// frozen frontier with no ACK flow at all is loss, not pinning.
constexpr std::uint64_t kWatchdogMinAcks = 32;
/// Cum-withholding bound.  A receiver can freeze its cumulative ACK while
/// SACKing everything above it: reach-all then advances through
/// first_missing (no frontier stall for the watchdog to see), but advance()
/// never prunes its scoreboard, whose per-packet state — and the cost of
/// every SACK walk across it — grows without bound.  An honest receiver's
/// SACK lead over its own cumulative point is bounded by the congestion
/// window; one whose lead exceeds this many packets is withholding and is
/// quarantined like a frontier pinner.
constexpr std::int64_t kMaxSackLead = 2048;

// Subtree excision and re-admission (RlaParams::degrade).
/// Detection poll period.
constexpr sim::SimTime kSubtreeCheckPeriod = 0.25;
/// Re-admission ramp tick; each tick multicasts one burst of catch-up
/// retransmissions for every ramping subtree.
constexpr sim::SimTime kRampTick = 0.05;
/// First ramp burst, in packets; doubles each tick (slow-start shape) up to
/// kRampMaxBurst.
constexpr int kRampInitialBurst = 2;
constexpr int kRampMaxBurst = 64;
/// The rejoining subtree graduates (census re-admission) once the gap
/// between its members' cumulative point and the send frontier is at most
/// this many packets; the ordinary repair path closes the rest.
constexpr std::int64_t kHandoverPackets = 8;

}  // namespace

RlaSender::RlaSender(net::Network& network, net::NodeId node, net::PortId port,
                     net::GroupId group, net::FlowId flow, RlaParams params)
    : network_(network),
      sim_(network.simulator()),
      node_(node),
      port_(port),
      group_(group),
      flow_(flow),
      params_(params),
      pacer_(sim_, network,
             sim_.rng_stream("rla-overhead-" + std::to_string(flow)),
             params.max_send_overhead),
      listen_rng_(sim_.rng_stream("rla-listen-" + std::to_string(flow))),
      rto_(sim_, [this] { on_timeout(); }),
      census_(params.eta, params.signal_interval_gain),
      policy_(cc::RlaPolicyParams{.forced_cut_factor = params.forced_cut_factor,
                                  .rtt_exponent = params.rtt_exponent,
                                  .fairness_weight = params.fairness_weight,
                                  .fixed_pthresh = params.fixed_pthresh},
              census_, listen_rng_),
      win_(cc::WindowParams{.initial_cwnd = params.initial_cwnd,
                            .initial_ssthresh = params.initial_ssthresh,
                            .max_cwnd = params.max_cwnd,
                            .fairness_weight = params.fairness_weight}),
      awnd_(params.initial_cwnd) {
  census_.set_defense(params_.defense);
  census_.configure_sampling(params_.census);
  network_.attach(node_, port_, this);
  meas_.note_cwnd(0.0, win_.cwnd());
  if (replay::RunObserver* obs = sim_.observer()) {
    const std::string id = "rla-" + std::to_string(flow_);
    obs->attach(id, this);
    obs->attach(id + "/window", &win_);
    obs->attach(id + "/census", &census_);
  }
}

RlaSender::~RlaSender() {
  if (replay::RunObserver* obs = sim_.observer()) {
    obs->detach(this);
    obs->detach(&win_);
    obs->detach(&census_);
    for (std::size_t i = 0; i < table_.size(); ++i)
      if (table_.tracked(static_cast<int>(i)))
        obs->detach(&table_.rtt(static_cast<int>(i)));
  }
}

replay::Snapshot RlaSender::snapshot_state() const {
  replay::Snapshot s;
  s.put("next_seq", next_seq_);
  s.put("max_reach_all", max_reach_all_);
  s.put("awnd", awnd_);
  s.put("last_window_cut", last_window_cut_);
  s.put("acks_received", acks_received_);
  s.put("mcast_rexmits", mcast_rexmits_);
  s.put("ucast_rexmits", ucast_rexmits_);
  s.put("silent_drops", silent_drops_);
  s.put("receivers", table_.size());
  s.put("listen_rng_draws", listen_rng_.draw_count());
  s.put("materialized", table_.materialized_count());
  s.put("watchdog_quarantines", watchdog_quarantines_);
  s.put("subtree_excisions", subtree_excisions_);
  s.put("subtree_readmissions", subtree_readmissions_);
  return s;
}

int RlaSender::add_receiver(net::NodeId node, net::PortId port) {
  // Late join: the newcomer's sequence space starts at the send frontier —
  // it is not owed data transmitted before it existed, and it must not drag
  // max_reach_all below the already-acknowledged prefix. (Beyond 64
  // receivers, per-packet RTT coverage masks saturate and SendWindow::cover
  // skips the extra indices; everything else scales.)
  const int idx = table_.add(node, port, next_seq_, sim_.now());
  const int census_idx = census_.add_receiver();
  (void)census_idx;
  assert(idx == census_idx && "table and census indices must stay aligned");
  // Sampled members get their own estimator up front so the census reads
  // their real srtt, not the shared fallback's.
  const bool tracked = census_.tracked(idx);
  if (tracked) table_.ensure_tracked(idx);
  // Seed the census srtt mirror with the estimator's pre-sample value so
  // srtt_max over never-heard-from receivers matches the historical scan.
  census_.note_srtt(idx, table_.rtt(idx).srtt());
  // Per-receiver estimator snapshots for the members tracked at join — all
  // of them at the default reservoir; a bounded one would otherwise attach
  // N observers it refuses to pay memory for.  The set is a deterministic
  // function of the join sequence, so record and replay agree.
  if (tracked)
    if (replay::RunObserver* obs = sim_.observer())
      obs->attach(
          "rla-" + std::to_string(flow_) + "/rtt-" + std::to_string(idx),
          &table_.rtt(idx));
  return idx;
}

void RlaSender::remove_receiver(int idx) {
  if (idx < 0 || static_cast<std::size_t>(idx) >= table_.size()) return;
  if (census_.state(idx) == cc::MemberState::kExcluded) return;
  exclude({idx}, Exit::kLeave);
}

void RlaSender::exclude(const std::vector<int>& members, Exit cause) {
  const sim::SimTime now = sim_.now();
  for (const int m : members) {
    if (cause == Exit::kQuarantine)
      census_.force_quarantine(m, now);
    else if (cause == Exit::kExcision)
      census_.excise(m);
    else
      census_.exclude(m);
  }
  if (cause == Exit::kQuarantine) watchdog_quarantines_ += members.size();
  if (cause == Exit::kSilent) silent_drops_ += members.size();
  census_.recompute(now);
  // The excluded members may have been the slowest: recompute the frontier
  // over the rest and resume sending into the room that opened.
  advance_reach_all();
  if (cause == Exit::kExcision) restart_timeout_timer();
  // A §4.3 drop happens mid-ACK: on_ack's own tail clocks the next sends.
  if (cause != Exit::kSlowDrop) send_new_data(params_.max_burst);
}

void RlaSender::readmit(int member, net::SeqNum cum) {
  census_.readmit(member);  // no-op after a served quarantine (kProbation)
  table_.reset(member, cum);
  table_.note_ack(member, sim_.now());
  census_.note_srtt(member, table_.rtt(member).srtt());
}

void RlaSender::start_at(sim::SimTime when) {
  sim_.at(when, [this] {
    started_ = true;
    last_frontier_progress_ = sim_.now();
    meas_.note_cwnd(sim_.now(), win_.cwnd());
    send_new_data(params_.max_burst);
  });
}

net::SeqNum RlaSender::min_last_ack() const {
  return table_.min_una(census_, next_seq_);
}

double RlaSender::pthresh_for(int rcvr) const {
  return policy_.pthresh(srtt_of(rcvr), census_.srtt_max());
}

std::size_t RlaSender::state_bytes() const {
  return sizeof(*this) + table_.state_bytes() + census_.state_bytes() +
         window_.state_bytes();
}

std::size_t RlaSender::baseline_state_bytes() const {
  // The pre-table layout: one heap ReceiverState per receiver — scoreboard,
  // RTT estimator, signal grouper, endpoint/liveness fields — with a map
  // node per outstanding packet in EVERY receiver's scoreboard (a healthy
  // receiver tracked the full window too) — plus a map node per packet sent
  // around a 48-byte send record (each of its three flags padded to 8
  // bytes).
  struct LegacySendInfo {
    sim::SimTime first_sent;
    bool ever_rexmitted;
    sim::SimTime last_rexmit;
    bool rexmitted_for_all;
    std::uint64_t acked_mask;
    bool rtt_sampled;
  };
  const std::size_t per_node =
      sizeof(net::SeqNum) + 3 * sizeof(bool) + 4 * sizeof(void*);
  std::size_t b = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const int idx = static_cast<int>(i);
    b += sizeof(void*);  // rcvrs_ vector slot
    b += sizeof(cc::Scoreboard) + sizeof(cc::RttEstimator) +
         sizeof(cc::SignalGrouper) + sizeof(net::NodeId) +
         sizeof(net::PortId) + sizeof(sim::SimTime);
    b += static_cast<std::size_t>(
             std::max<net::SeqNum>(0, table_.high(idx) - table_.una(idx))) *
         per_node;
  }
  b += window_.size() *
       (sizeof(net::SeqNum) + sizeof(LegacySendInfo) + 4 * sizeof(void*));
  return b;
}

void RlaSender::on_receive(const net::Packet& p) {
  if (p.type != net::PacketType::kAck) return;
  const int idx = p.receiver_id;
  if (idx < 0 || static_cast<std::size_t>(idx) >= table_.size()) return;
  // Quarantine/probation clock. Polled before the excluded() gate so the
  // quarantined member's own ACKs can drive its release; a served
  // quarantine rejoins at the send frontier, like a late joiner.
  if (params_.defense.enabled || params_.frontier_watchdog)
    for (const int r : census_.advance_states(sim_.now()))
      readmit(r, next_seq_);
  // Structural heal detection, also ahead of the excluded() gate: an ACK
  // from an excised subtree member is the only signal that its partition
  // healed.  The member stays excluded until its subtree's re-admission
  // ramp graduates.
  if (census_.state(idx) == cc::MemberState::kExcised) note_heal_ack(p, idx);
  // A stale ACK from a departed/dropped receiver (in flight at leave time,
  // or a crashed receiver coming back) must not touch frozen scoreboard or
  // census state.
  if (census_.excluded(idx)) return;
  ++acks_received_;
  table_.note_ack(idx, sim_.now());
  on_ack(p, idx);
}

cc::Scoreboard& RlaSender::ensure_board(int idx) {
  if (table_.materialized(idx)) return table_.board(idx);
  cc::Scoreboard& sb = table_.materialize(idx);
  // Replay the repairs that were multicast to everybody while this receiver
  // was compact; per-receiver (unicast) repairs always materialized the
  // target at repair time, so the global flags are the complete set.
  window_.for_each_from(sb.una(), [&sb](net::SeqNum seq, const SendInfo& info) {
    if (info.rexmitted_for_all) sb.on_retransmit(seq);
  });
  return sb;
}

void RlaSender::sb_on_retransmit(int idx, net::SeqNum seq) {
  if (!table_.materialized(idx) && seq < table_.una(idx))
    return;  // below the cumulative point: the historical board forgot it
  ensure_board(idx).on_retransmit(seq);
}

void RlaSender::on_ack(const net::Packet& ack, int idx) {
  // Per-receiver RTT estimate (Karn: skip samples off retransmitted seqs —
  // a multicast retransmission poisons the echo for every receiver, so the
  // global ever_rexmitted flag is the correct guard).
  if (ack.seq != net::kNoSeq && ack.ts_echo > 0.0) {
    const SendInfo* info = window_.find(ack.seq);
    const bool clean = info == nullptr || !info->ever_rexmitted;
    if (clean && !table_.was_retransmitted(idx, ack.seq)) {
      // A reservoir rebuild can admit a member after its add; promote it on
      // its next RTT sample so the census mirrors its own estimate.
      if (!table_.tracked(idx) && census_.tracked(idx))
        table_.ensure_tracked(idx);
      table_.rtt_add_sample(idx, sim_.now() - ack.ts_echo);
      census_.note_srtt(idx, table_.rtt(idx).srtt());
    }
  }

  if (table_.advance(idx, ack.ack) > 0) table_.rtt_reset_backoff(idx);
  if (table_.materialized(idx)) {
    table_.board(idx).apply_sack(ack.sack.data(), ack.n_sack);
  } else if (ack.n_sack > 0 &&
             table_.sack_effective(idx, ack.sack.data(), ack.n_sack)) {
    // First evidence this receiver diverged from the healthy prefix: give
    // it a real scoreboard.
    ensure_board(idx).apply_sack(ack.sack.data(), ack.n_sack);
  }
  // Cum-withholding guard (see kMaxSackLead): a
  // receiver SACKing far ahead of its frozen cumulative point starves
  // advance() of pruning while evading the frontier-stall check.  Its board
  // is the largest sender-side structure an adversary can grow, so the
  // bound is enforced on the hot ACK path, where the lead is O(1) to read.
  if (params_.frontier_watchdog && table_.materialized(idx) &&
      table_.first_missing(idx) - table_.una(idx) > kMaxSackLead) {
    exclude({idx}, Exit::kQuarantine);
    return;
  }
  // The per-packet RLA RTT — time until the LAST receiver's ACK, the
  // quantity eq. (5) bounds — is sampled the moment coverage completes, so
  // head-of-line repairs of *other* packets do not inflate it.
  window_.cover(idx, ack.ack, ack.sack.data(), ack.n_sack, census_,
                sim_.now(), [this](net::SeqNum, double rtt) {
                  meas_.note_rtt(sim_.now(), rtt);
                });
  const int new_losses = table_.detect_losses(idx, kDupThresh);

  // Rule 2: a new congestion period only starts beyond 2*srtt_i of the last
  // one; losses inside the window are grouped into the same signal. An ECN
  // echo is a congestion indication of equal rank — it enters the same
  // grouping, so a mark plus losses in one buffer period stay one signal.
  if (new_losses > 0 || (params_.ecn && ack.ece)) {
    const double srtt = table_.rtt(idx).srtt();
    if (table_.grouper(idx).try_open_period(sim_.now(),
                                            params_.grouping_rtts * srtt))
      handle_congestion_signal(idx);
  }

  // A lost *retransmission* would otherwise only be recoverable by the full
  // timeout: re-arm the head-of-line hole for repair once the previous
  // repair has clearly failed (no ACK within this receiver's RTO of it).
  if (!census_.excluded(idx)) {
    const net::SeqNum hol = table_.first_missing(idx);
    if (hol < table_.high(idx) && table_.is_lost(idx, hol) &&
        table_.was_retransmitted(idx, hol)) {
      const SendInfo* info = window_.find(hol);
      if (info != nullptr &&
          sim_.now() - info->last_rexmit > table_.rtt(idx).rto())
        table_.board(idx).clear_retransmitted(hol);
    }
  }

  // Retransmission handling is independent of the listening decision: every
  // newly detected hole is repaired. (The signal handler above may have
  // excluded this receiver via the slow-drop option — then its holes are
  // nobody's problem anymore.)
  net::SeqNum s;
  while (!census_.excluded(idx) &&
         (s = table_.next_to_retransmit(idx)) != net::kNoSeq)
    maybe_retransmit(s, idx, ack.urgent_rexmit_request);

  // New data is clocked by reach-all advances (inside advance_reach_all),
  // mirroring TCP's cumulative-ACK clocking: one send trigger per packet
  // acknowledged by all, so the multicast sender's arrival pattern at the
  // bottleneck stays as bursty as its TCP competitors' (§3.1 requires the
  // senders to "send packets in a fashion similar to the TCP senders" for
  // the equal-congestion-frequency argument to hold). A SACK-only ACK that
  // shrank some pipe still triggers a conservation send below, or recovery
  // could stall the session.
  ++acks_since_progress_;
  advance_reach_all();
  if (table_.lost_count(idx) > 0) send_new_data(params_.max_burst);
  check_frontier_watchdog();
  // Recovery over: hand the board back to the pool and go compact again.
  table_.reclaim_if_clean(idx);
}

void RlaSender::handle_congestion_signal(int idx) {
  meas_.note_congestion_signal();
  census_.on_signal(idx, sim_.now());
  census_.recompute(sim_.now());
  maybe_drop_slowest(idx);

  // The §3.3 cut rules — troubled-census consult, forced-cut guard,
  // randomized listening — live in cc::RlaPolicy.
  cc::SignalContext ctx;
  ctx.now = sim_.now();
  ctx.receiver = idx;
  ctx.srtt = table_.rtt(idx).srtt();
  ctx.srtt_max = census_.srtt_max();
  ctx.awnd = awnd_;
  ctx.last_cut = last_window_cut_;
  const cc::CutAction action = policy_.on_signal(ctx);
  if (cc::apply_cut_action(win_, policy_, action)) {
    meas_.note_cwnd(sim_.now(), win_.cwnd());
    last_window_cut_ = sim_.now();
    meas_.note_window_cut();
    if (action == cc::CutAction::kForcedHalve) meas_.note_forced_cut();
  }
}

void RlaSender::advance_reach_all() {
  const net::SeqNum reach = table_.min_first_missing(census_, next_seq_);
  if (reach <= max_reach_all_) return;

  const std::int64_t m = reach - max_reach_all_;
  // Rule 4: growth is driven by packets acknowledged by ALL receivers.
  win_.grow(m);
  meas_.note_cwnd(sim_.now(), win_.cwnd());
  awnd_ += kAwndGain * (win_.cwnd() - awnd_);
  meas_.note_acked(m);

  // RTT sampling happens in window_.cover() the instant the last
  // receiver's ACK covers a packet; here the bookkeeping below the new reach
  // point is simply discarded.
  window_.drop_below(reach);
  max_reach_all_ = reach;
  last_frontier_progress_ = sim_.now();
  acks_since_progress_ = 0;
  restart_timeout_timer();
  send_new_data(params_.max_burst);
}

void RlaSender::check_frontier_watchdog() {
  if (!params_.frontier_watchdog || !started_) return;
  if (next_seq_ <= max_reach_all_) return;  // frontier caught up: no stall
  if (acks_since_progress_ < kWatchdogMinAcks) return;
  const sim::SimTime stall = sim_.now() - last_frontier_progress_;
  const sim::SimTime bound =
      std::max(kWatchdogStallRtos * std::max(table_.max_rto(census_),
                                             cc::RttEstimator::kMinRto),
               kWatchdogMinStall);
  if (stall < bound) return;
  // The frontier is pinned while ACKs keep flowing.  Blame receivers only
  // once the blocking packet has actually been repaired at least once — an
  // unrepaired hole is the retransmit path's business, not a liveness hole.
  const SendInfo* blocking = window_.find(max_reach_all_);
  if (blocking == nullptr || !blocking->ever_rexmitted) return;

  std::vector<int> pinners;
  int active = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const int idx = static_cast<int>(i);
    if (census_.excluded(idx)) continue;
    ++active;
    if (table_.first_missing(idx) <= max_reach_all_) pinners.push_back(idx);
  }
  // Everyone is pinned: a genuine shared loss, owned by the timeout path.
  if (pinners.empty() || static_cast<int>(pinners.size()) >= active) return;

  // The survivors define a new frontier; its stall clock starts now.
  last_frontier_progress_ = sim_.now();
  acks_since_progress_ = 0;
  exclude(pinners, Exit::kQuarantine);
}

void RlaSender::maybe_retransmit(net::SeqNum seq, int requester_idx,
                                 bool urgent) {
  // After a subtree graduates, `seq` may sit below max_reach_all_: the
  // window then holds a record there (see SendWindow).
  SendInfo& info = window_.at(seq);
  // Rate-limit repairs of the same packet: one per max-srtt unless urgent.
  const double guard = std::max(census_.srtt_max(), 1e-3);
  if (!urgent && sim_.now() - info.last_rexmit < guard) {
    // Mark per-receiver so next_to_retransmit() makes progress; the packet
    // is already on its way (or will be re-repaired after the guard).
    sb_on_retransmit(requester_idx, seq);
    return;
  }

  // The paper's simulations multicast every repair (rexmit_thresh = 0): the
  // missing-receiver list is then only an emptiness test, answered by the
  // compact-min cache without touching the healthy membership.
  if (params_.rexmit_thresh == 0 && !urgent) {
    if (!table_.any_missing(census_, seq)) {
      // Nobody (still in the session) is missing it; mark the requester's
      // scoreboard so its retransmit scan makes progress.
      sb_on_retransmit(requester_idx, seq);
      return;
    }
    info.last_rexmit = sim_.now();
    info.ever_rexmitted = true;
    info.rexmitted_for_all = true;
    // The repair deserves a full RTO before the stall is declared a timeout.
    restart_timeout_timer();
    // Multicast repair. Compact receivers inherit the mark lazily via
    // rexmitted_for_all; excluded receivers' boards stay frozen.
    for (const int i : table_.materialized_ids())
      if (!census_.excluded(i)) table_.board(i).on_retransmit(seq);
    send_data_packet(seq, /*rexmit=*/true, net::kNoNode, 0);
    ++mcast_rexmits_;
    return;
  }

  // Count receivers currently missing the packet (ascending order: the
  // unicast branch sends a repair per requester in index order).
  std::vector<int> missing;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const int idx = static_cast<int>(i);
    if (census_.excluded(idx)) continue;
    if (seq >= table_.una(idx) && seq < table_.high(idx) &&
        !table_.is_sacked(idx, seq))
      missing.push_back(idx);
  }
  if (missing.empty()) {
    sb_on_retransmit(requester_idx, seq);
    return;
  }

  info.last_rexmit = sim_.now();
  info.ever_rexmitted = true;
  restart_timeout_timer();

  if (static_cast<int>(missing.size()) > params_.rexmit_thresh && !urgent) {
    info.rexmitted_for_all = true;
    for (const int i : table_.materialized_ids())
      if (!census_.excluded(i)) table_.board(i).on_retransmit(seq);
    send_data_packet(seq, /*rexmit=*/true, net::kNoNode, 0);
    ++mcast_rexmits_;
  } else {
    // Unicast repair to each requester (or just the urgent one).
    for (const int i : missing) {
      sb_on_retransmit(i, seq);
      send_data_packet(seq, /*rexmit=*/true, table_.node(i), table_.port(i));
      ++ucast_rexmits_;
    }
  }
}

void RlaSender::send_new_data(int budget) {
  if (!started_ || table_.size() == 0) return;
  if (census_.active_count() == 0) return;  // nobody left to send to
  // Conservation of packets on the most loaded branch: new data may go out
  // while every receiver's pipe (outstanding, not SACKed, not known-lost-
  // unrepaired) has room under cwnd. This is the fast-recovery behaviour
  // the paper's implementation notes describe — a repair in flight must not
  // leave the sender idle when later packets are already SACKed.
  // Rule 5's buffer bound still applies: never beyond min_last_ack + B.
  const net::SeqNum by_buffer = min_last_ack() + params_.receiver_buffer;
  std::int64_t max_pipe = table_.max_pipe(census_);
  const auto cwnd = static_cast<std::int64_t>(win_.cwnd());
  // Quantized release: wait until a burst's worth of slots is free, then
  // send back-to-back. The quantum is capped at half the window so small
  // windows (session start, post-timeout) still flow.
  const std::int64_t quantum = std::min<std::int64_t>(
      params_.send_quantum, std::max<std::int64_t>(1, cwnd / 2));
  if (cwnd - max_pipe < quantum) return;
  while (budget-- > 0 && next_seq_ < by_buffer && max_pipe < cwnd) {
    // Increment first: the retransmission timer armed inside
    // send_data_packet must see the packet as outstanding, or the very
    // first packet of a session races the timer and a startup loss would
    // deadlock the connection.
    const net::SeqNum seq = next_seq_++;
    send_data_packet(seq, /*rexmit=*/false, net::kNoNode, 0);
    ++max_pipe;
  }
}

void RlaSender::send_data_packet(net::SeqNum seq, bool rexmit,
                                 net::NodeId unicast_to,
                                 net::PortId unicast_port) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.flow = flow_;
  p.src = node_;
  p.src_port = port_;
  p.size_bytes = net::kDataPacketBytes;
  p.seq = seq;
  p.ts_echo = sim_.now();
  p.is_rexmit = rexmit;
  p.ect = params_.ecn;
  if (unicast_to == net::kNoNode) {
    p.group = group_;
  } else {
    p.dst = unicast_to;
    p.dst_port = unicast_port;
  }

  if (!rexmit) {
    // Compact receivers track the frontier implicitly; materialized boards
    // of excluded receivers stay frozen (they must not keep accumulating
    // outstanding-packet state for the rest of the session).
    table_.on_send(seq, census_);
    window_.on_send(seq, sim_.now());
  }

  pacer_.send(p);
  if (!rto_.armed()) restart_timeout_timer();
}

void RlaSender::restart_timeout_timer() {
  if (next_seq_ <= max_reach_all_) {
    rto_.cancel();
    return;
  }
  rto_.restart(std::max(table_.max_rto(census_), cc::RttEstimator::kMinRto));
}

void RlaSender::on_timeout() {
  if (next_seq_ <= max_reach_all_) return;

  // A crashed receiver shows up here first: its ACKs stopped, so the reach-
  // all frontier froze and the timer fired. Drop everyone silent beyond the
  // liveness bound; if that alone unfreezes the window there was no real
  // loss and the survivors need no cut.
  drop_silent_receivers();
  if (next_seq_ <= max_reach_all_) return;
  if (census_.active_count() == 0) {
    // Everyone is gone: there is nobody to repair for. Stop the timer
    // instead of multicasting retransmissions into the void forever.
    rto_.cancel();
    return;
  }

  meas_.note_timeout();
  meas_.note_congestion_signal();

  // First expiry for a given stalled packet is treated like a tail-loss
  // probe: halve the window and repair. Only a *repeated* timeout on the
  // same packet collapses the window to one and backs the timers off,
  // TCP-style. (The paper's analysis assumes timeouts are rare; this keeps
  // them from dominating when a retransmission is itself lost.)
  const bool repeated = max_reach_all_ == timeout_blocking_;
  timeout_blocking_ = max_reach_all_;
  const cc::CutAction action = policy_.on_timeout(repeated);
  cc::apply_cut_action(win_, policy_, action);
  meas_.note_cwnd(sim_.now(), win_.cwnd());
  if (action == cc::CutAction::kCollapse) table_.rtt_back_off_all(census_);
  last_window_cut_ = sim_.now();
  meas_.note_window_cut();

  const net::SeqNum blocking = max_reach_all_;
  SendInfo& info = window_.at(blocking);
  info.last_rexmit = sim_.now();
  info.ever_rexmitted = true;
  info.rexmitted_for_all = true;
  for (const int i : table_.materialized_ids())
    if (!census_.excluded(i)) table_.board(i).on_retransmit(blocking);
  send_data_packet(blocking, /*rexmit=*/true, net::kNoNode, 0);
  ++mcast_rexmits_;

  restart_timeout_timer();
}

void RlaSender::drop_silent_receivers() {
  if (params_.silent_drop_after <= 0.0) return;
  std::vector<int> silent;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const int idx = static_cast<int>(i);
    if (!census_.excluded(idx) &&
        sim_.now() - table_.last_ack_at(idx) > params_.silent_drop_after)
      silent.push_back(idx);
  }
  if (!silent.empty()) exclude(silent, Exit::kSilent);
}

void RlaSender::set_subtree(int idx, int subtree) {
  if (!params_.degrade || subtree < 0) return;
  if (idx < 0 || static_cast<std::size_t>(idx) >= table_.size()) return;
  if (subtree_of_.size() < table_.size())
    subtree_of_.resize(table_.size(), -1);
  subtree_of_[static_cast<std::size_t>(idx)] = subtree;
  subtrees_[subtree].members.push_back(idx);
  if (!degrade_timer_) {
    degrade_timer_ =
        std::make_unique<sim::Timer>(sim_, [this] { check_subtrees(); });
    degrade_timer_->schedule(kSubtreeCheckPeriod);
  }
}

void RlaSender::check_subtrees() {
  degrade_timer_->schedule(kSubtreeCheckPeriod);
  if (!started_) return;
  const sim::SimTime now = sim_.now();
  for (auto& [sid, st] : subtrees_) {
    if (st.phase != Subtree::Phase::kHealthy) continue;
    // Whole-subtree silence: the NEWEST ACK over the live members is stale.
    sim::SimTime last = -1.0;
    bool any_active = false;
    for (const int m : st.members) {
      if (census_.excluded(m)) continue;
      any_active = true;
      last = std::max(last, table_.last_ack_at(m));
    }
    if (!any_active || now - last < kSubtreeSilenceAfter) continue;
    // The structural signature's other half: somebody OUTSIDE the subtree
    // was heard from recently.  All-quiet is a sender-side stall (or the
    // pre-start idle), not a partition — that shape belongs to the timeout
    // path and the per-receiver ladders.
    bool outside_alive = false;
    for (std::size_t i = 0; i < table_.size() && !outside_alive; ++i) {
      const int idx = static_cast<int>(i);
      if (census_.excluded(idx)) continue;
      if (i < subtree_of_.size() && subtree_of_[i] == sid) continue;
      if (now - table_.last_ack_at(idx) <= kSubtreeSilenceAfter)
        outside_alive = true;
    }
    if (!outside_alive) continue;
    excise_subtree(sid, st, now - last);
  }
}

void RlaSender::excise_subtree(int sid, Subtree& st, sim::SimTime silence) {
  st.phase = Subtree::Phase::kExcised;
  st.excised_at = sim_.now();
  st.reach_at_excise = max_reach_all_;
  st.healed_at = -1.0;
  st.heard.clear();
  std::vector<int> live;
  for (const int m : st.members)
    if (!census_.excluded(m)) live.push_back(m);
  SubtreeEvent ev;
  ev.subtree = sid;
  ev.excised_at = st.excised_at;
  ev.time_to_excise = silence;
  ev.members_excised = static_cast<int>(live.size());
  st.event_index = events_.size();
  events_.push_back(ev);
  ++subtree_excisions_;
  // ONE event for the whole subtree: census, reach-all frontier and the
  // RTO loop shrink to the survivors here, instead of k separate
  // silent-receiver detections each dragging its own timeout.
  exclude(live, Exit::kExcision);
}

void RlaSender::note_heal_ack(const net::Packet& ack, int idx) {
  const int sid = subtree_of_[static_cast<std::size_t>(idx)];
  if (sid < 0) return;
  const auto it = subtrees_.find(sid);
  if (it == subtrees_.end()) return;
  Subtree& st = it->second;
  if (st.phase == Subtree::Phase::kHealthy) return;
  // Stale ACKs (in flight when the partition began, or echoes of
  // pre-partition data) don't prove anything; only an echo of a
  // post-excision send shows the path works end to end again.
  if (ack.ts_echo <= st.excised_at) return;
  const net::SeqNum cum = std::max<net::SeqNum>(0, ack.ack);
  if (st.phase == Subtree::Phase::kExcised) {
    st.phase = Subtree::Phase::kRamping;
    st.healed_at = sim_.now();
    st.ramp_next = cum;
    st.ramp_burst = kRampInitialBurst;
    events_[st.event_index].healed_at = st.healed_at;
    if (!ramp_timer_)
      ramp_timer_ = std::make_unique<sim::Timer>(sim_, [this] { ramp_tick(); });
    // One timer paces every ramping subtree: armed exactly while one ramps.
    if (!ramp_timer_->armed()) ramp_timer_->schedule(kRampTick);
  } else if (cum < st.ramp_next) {
    // A later healer is further behind: back the catch-up cursor down.
    st.ramp_next = cum;
  }
  net::SeqNum& heard = st.heard[idx];
  heard = std::max(heard, cum);
}

void RlaSender::ramp_tick() {
  bool any_ramping = false;
  for (auto& [sid, st] : subtrees_) {
    (void)sid;
    if (st.phase != Subtree::Phase::kRamping) continue;
    // Slow-start-shaped catch-up: one doubling burst of multicast resends
    // per tick, capped, so the rejoiners' missed data flows without
    // flooding the survivors' bottleneck all at once.
    int budget = st.ramp_burst;
    while (budget-- > 0 && st.ramp_next < next_seq_) {
      send_data_packet(st.ramp_next++, /*rexmit=*/true, net::kNoNode, 0);
      ++ramp_rexmits_;
    }
    st.ramp_burst = std::min(st.ramp_burst * 2, kRampMaxBurst);
    // Graduate once the slowest heard rejoiner is within handover range of
    // the send frontier — or once the whole missed backlog has been resent
    // (ramp_next caught the frontier).  The second arm matters on a shared
    // bottleneck: there the frontier advances at the same bottleneck-limited
    // pace as the rejoiners' catch-up, the gap never closes, and an
    // exact-gap predicate would ramp forever.  Handover with a residual gap
    // is safe — once readmitted, the window is clocked off the rejoiners'
    // ACKs, so the frontier holds until the ordinary repair path closes it.
    net::SeqNum min_cum = next_seq_;
    for (const auto& [m, c] : st.heard) {
      (void)m;
      min_cum = std::min(min_cum, c);
    }
    if (st.ramp_next >= next_seq_ ||
        next_seq_ - min_cum <= kHandoverPackets)
      graduate_subtree(st);
    else
      any_ramping = true;
  }
  if (any_ramping) ramp_timer_->schedule(kRampTick);
}

void RlaSender::graduate_subtree(Subtree& st) {
  const sim::SimTime now = sim_.now();
  SubtreeEvent& ev = events_[st.event_index];
  for (const auto& [m, cum] : st.heard) {
    // A member that left during the outage stays out: leave is final.
    if (census_.state(m) != cc::MemberState::kExcised) continue;
    // Thaw at the rejoiner's own cumulative point: the handover gap is the
    // ordinary repair path's to close.
    readmit(m, cum);
    ++ev.members_readmitted;
  }
  // Members never heard from post-heal stay excised — they crashed (or
  // churned away) rather than being partitioned.
  st.heard.clear();
  st.phase = Subtree::Phase::kHealthy;
  ev.readmitted_at = now;
  ev.time_to_readmit = now - st.healed_at;
  ev.survivor_goodput_pps =
      static_cast<double>(max_reach_all_ - st.reach_at_excise) /
      std::max(1e-9, now - st.excised_at);
  ++subtree_readmissions_;
  census_.recompute(now);
  // The rejoiners' cumulative points sit below the frontier; the monotone
  // guard in advance_reach_all keeps it from regressing, and it resumes
  // once they close the handover gap through the repair path.
  advance_reach_all();
  restart_timeout_timer();
  send_new_data(params_.max_burst);
}

void RlaSender::maybe_drop_slowest(int idx) {
  if (!params_.enable_slow_receiver_drop) return;
  if (census_.total_signals() < params_.slow_drop_min_signals) return;
  const double share =
      static_cast<double>(census_.signals(idx)) /
      static_cast<double>(census_.total_signals());
  if (share > params_.slow_drop_fraction) exclude({idx}, Exit::kSlowDrop);
}

}  // namespace rlacast::rla
