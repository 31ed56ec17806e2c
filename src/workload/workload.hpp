// src/workload/ — deterministic background-traffic generation.
//
// The paper's experiments run infinite FTP sources: every TCP always has
// data, so the fairness bands are measured under the easiest possible
// workload.  This layer adds the traffic mixes real networks carry —
// heavy-tailed web flows and on/off constant-bit-rate streams —
// so the benches can ask whether RLA's bounded-fairness result survives
// senders that start, stop, and think.
//
// Two pieces:
//   * WebFlowSource (web_source.hpp) — a "user" that alternates
//     exponential think times with finite TCP transfers whose sizes are
//     Pareto (the heavy-tailed web-size literature);
//   * OnOffSource (onoff_source.hpp) — unreliable CBR datagram
//     cross-traffic gated by exponential on/off periods.
//
// Determinism contract (the subsystem's reason to exist as a layer): every
// random decision draws from a named per-source sim::Rng stream
// ("workload-web-<i>", "workload-onoff-<i>"), so a run is
// bit-identical across --jobs settings and replayable through src/replay/.
// TrafficKind::kFtp is the do-nothing default: no streams, no timers, no
// objects — the four historical figure benches stay byte-identical.
#pragma once

#include "workload/onoff_source.hpp"
#include "workload/web_source.hpp"

namespace rlacast::workload {

/// Which background-traffic mix a topo builder should instantiate.
enum class TrafficKind {
  kFtp,    // historical infinite FTP senders (default, byte-identical)
  kWeb,    // WebFlowSource per leaf: think / transfer / think ...
  kOnOff   // infinite FTP + OnOffSource datagram cross-traffic per leaf
};

/// The complete workload description a topo builder consumes.
struct TrafficSpec {
  TrafficKind kind = TrafficKind::kFtp;
  WebConfig web{};
  OnOffConfig onoff{};
};

}  // namespace rlacast::workload
