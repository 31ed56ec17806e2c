#include "fault/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "sim/random.hpp"

namespace rlacast::fault {

std::vector<std::pair<int, AdversaryModel>> ChaosDraw::adversaries() const {
  std::vector<std::pair<int, AdversaryModel>> out;
  out.reserve(adversary_idx.size());
  for (const int idx : adversary_idx) {
    AdversaryModel m;
    m.kind = kind;
    m.start = adversary_start;
    m.flip_period = flip_period;
    out.emplace_back(idx, m);
  }
  return out;
}

const char* structural_kind_name(StructuralKind k) {
  switch (k) {
    case StructuralKind::kNone: return "none";
    case StructuralKind::kLeafPartition: return "l3part";
    case StructuralKind::kMidPartition: return "l2part";
    case StructuralKind::kRouterCrash: return "crash";
  }
  return "?";
}

std::string ChaosDraw::describe() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "chaos{%s x%d, ack_loss=%.3f ack_dup=%.3f ack_jit=%.3f "
                "leaf_loss=%.3f flip=%.1f}",
                adversary_kind_name(kind), n_adversaries, ack_fault.loss_p,
                ack_fault.duplicate_p, ack_fault.max_jitter,
                leaf_fault.loss_p, flip_period);
  std::string out(buf);
  if (structural != StructuralKind::kNone) {
    std::snprintf(buf, sizeof(buf), " struct=%s#%d@%.1f+%.1fs",
                  structural_kind_name(structural), structural_index,
                  partition_start, partition_len);
    out += buf;
  }
  return out;
}

ChaosDraw draw_chaos(const ChaosConfig& cfg, std::uint64_t seed,
                     int n_receivers) {
  sim::Rng rng = sim::SeedSequence(seed).stream("chaos-scenario");
  ChaosDraw d;

  // Draw order is fixed (see header) — append new draws at the end only.
  constexpr AdversaryKind kKinds[] = {
      AdversaryKind::kSrttInflate, AdversaryKind::kSrttDeflate,
      AdversaryKind::kSignalStorm, AdversaryKind::kMute,
      AdversaryKind::kFlipFlop};
  d.kind = kKinds[rng.uniform_int(0, 4)];

  const int max_adv = std::min(cfg.max_adversaries, std::max(0, n_receivers));
  d.n_adversaries =
      max_adv > 0 ? static_cast<int>(rng.uniform_int(0, max_adv)) : 0;

  // Partial Fisher-Yates: exactly one uniform_int draw per adversary slot,
  // regardless of how many receivers exist.
  std::vector<int> pool(static_cast<std::size_t>(std::max(0, n_receivers)));
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < d.n_adversaries; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(i, static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
  }
  d.adversary_idx.assign(pool.begin(), pool.begin() + d.n_adversaries);
  std::sort(d.adversary_idx.begin(), d.adversary_idx.end());

  d.ack_fault.loss_p = rng.uniform(0.0, kChaosMaxAckLossP);
  d.ack_fault.duplicate_p = rng.uniform(0.0, kChaosMaxAckDupP);
  d.ack_fault.max_jitter = rng.uniform(0.0, kChaosMaxAckJitter);
  d.leaf_fault.loss_p = rng.uniform(0.0, kChaosMaxLeafLossP);
  d.flip_period = rng.uniform(kChaosMinFlipPeriod, kChaosMaxFlipPeriod);
  d.adversary_start = kChaosAdversaryStart;

  // Structural draws are strictly appended and gated: with cfg.structural
  // false nothing below runs and pre-existing journals stay bit-identical.
  // With it true, exactly four draws are consumed whatever kind lands.
  if (cfg.structural) {
    constexpr StructuralKind kStructKinds[] = {
        StructuralKind::kNone, StructuralKind::kLeafPartition,
        StructuralKind::kMidPartition, StructuralKind::kRouterCrash};
    d.structural = kStructKinds[rng.uniform_int(0, 3)];
    d.structural_index = static_cast<int>(rng.uniform_int(0, 8));
    d.partition_start =
        rng.uniform(kChaosMinPartitionStart, kChaosMaxPartitionStart);
    d.partition_len = rng.uniform(kChaosMinPartitionLen, kChaosMaxPartitionLen);
  }
  return d;
}

}  // namespace rlacast::fault
