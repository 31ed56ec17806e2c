// Chaos scenario drawing for soak runs.
//
// A chaos run replicates a base experiment many times, each replicate under
// a RANDOMIZED combination of feedback-plane hostility: which adversary
// model, how many adversaries, where they sit, and how impaired the reverse
// (ACK) path is.  The draw itself is deterministic — a dedicated
// "chaos-scenario" stream derived from the replicate's seed, consumed in a
// fixed order — so a chaos replicate is fully described by its seed and
// replays bit-identically through the record/replay machinery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/adversary.hpp"
#include "fault/fault.hpp"
#include "sim/time.hpp"

namespace rlacast::fault {

// Bounds of the chaos draw; every replicate lands uniformly inside them.
inline constexpr double kChaosMaxAckLossP = 0.05;  // reverse-path ACK loss
inline constexpr double kChaosMaxAckDupP = 0.05;   // reverse-path ACK dup
inline constexpr sim::SimTime kChaosMaxAckJitter = 0.02;  // reverse jitter
inline constexpr double kChaosMaxLeafLossP = 0.02;  // forward leaf-link loss
inline constexpr sim::SimTime kChaosMinFlipPeriod = 5.0;
inline constexpr sim::SimTime kChaosMaxFlipPeriod = 20.0;
/// Honest warm-up before the adversaries start lying (fixed, not drawn).
inline constexpr sim::SimTime kChaosAdversaryStart = 20.0;
inline constexpr sim::SimTime kChaosMinPartitionStart = 15.0;
inline constexpr sim::SimTime kChaosMaxPartitionStart = 30.0;
inline constexpr sim::SimTime kChaosMinPartitionLen = 2.0;
inline constexpr sim::SimTime kChaosMaxPartitionLen = 10.0;

struct ChaosConfig {
  int max_adversaries = 9;  // misbehaving receivers per replicate
  /// Structural-failure draws (node crashes / subtree partitions).  Off by
  /// default: when false, draw_chaos consumes ZERO extra stream draws and
  /// existing chaos journals stay bit-identical.  When true, exactly four
  /// extra draws are appended (kind, placement, start, length) regardless
  /// of which kind lands, so the consumption is seed-stable.
  bool structural = false;
};

/// What structural failure (if any) a chaos replicate draws.  Indices are
/// topology-relative: the bench maps `structural_index` onto its tree's
/// subtree roots (e.g. tertiary tree: 9 level-3 groups, 3 level-2 groups).
enum class StructuralKind : std::uint8_t {
  kNone = 0,          // this replicate has no structural failure
  kLeafPartition,     // partition one level-3 (leaf-group) uplink
  kMidPartition,      // partition one level-2 (mid-group) uplink
  kRouterCrash,       // crash one level-3 router (all interfaces down)
};

const char* structural_kind_name(StructuralKind k);

/// One replicate's drawn scenario.
struct ChaosDraw {
  AdversaryKind kind = AdversaryKind::kSignalStorm;
  int n_adversaries = 0;
  std::vector<int> adversary_idx;  // receiver indices, ascending
  LinkImpairment ack_fault{};      // reverse-path (ACK) impairment
  LinkImpairment leaf_fault{};     // forward leaf-link impairment
  sim::SimTime flip_period = 10.0;
  sim::SimTime adversary_start = 20.0;
  /// Structural failure of this replicate (kNone unless ChaosConfig::
  /// structural was set).  structural_index is a raw 0-based draw in
  /// [0, 9); the bench maps it modulo its subtree count.
  StructuralKind structural = StructuralKind::kNone;
  int structural_index = 0;
  sim::SimTime partition_start = 0.0;
  sim::SimTime partition_len = 0.0;

  /// Materializes the per-receiver models of this draw.
  std::vector<std::pair<int, AdversaryModel>> adversaries() const;

  /// One-line rendering for run logs and crash-row context.
  std::string describe() const;
};

/// Draws one scenario within the kChaos* bounds and `cfg` for a session of
/// `n_receivers`, on the
/// "chaos-scenario" stream of `seed`.  The draw order is part of the replay
/// contract: kind, adversary count, adversary placement (partial
/// Fisher-Yates, one uniform_int per slot), ACK loss, ACK duplication, ACK
/// jitter, leaf loss, flip period, then — only when cfg.structural —
/// structural kind, placement, start, length — changing it invalidates
/// recorded chaos journals.
ChaosDraw draw_chaos(const ChaosConfig& cfg, std::uint64_t seed,
                     int n_receivers);

}  // namespace rlacast::fault
