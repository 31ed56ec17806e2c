// Fork-based run isolation for experiment runs (POSIX only).
//
// run_isolated() executes one run in a forked child and reads the outcome
// back over a pipe. It is the runner's only way to bound a run: past the
// deadline the parent SIGKILLs the child, so an overdue run stops using CPU
// and memory, and cannot write anything after its row says timed_out. The
// contract is that NOTHING the run does — SIGSEGV, SIGABRT, an OOM kill, a
// silent _exit, overrunning its deadline — can take the sweep down: the
// parent classifies whatever the child did and returns a structured
// IsolateOutcome.
//
// Crash detection is deliberately payload-based: a child that died without
// delivering a *complete* result payload crashed, whether it was killed by
// a signal (plain build) or converted the fault into exit(1) (sanitizer
// builds intercept SIGSEGV). Timeouts are the parent's doing — past the
// deadline the child is SIGKILLed and the outcome says timed_out, not
// crashed.
//
// Caveat, recorded here because it is a caveat of fork(), not of this
// wrapper: the child of a multi-threaded parent must not depend on other
// threads' locks, and whatever it writes to memory stays in the child
// (run_fn must be self-contained, which the Runner's determinism contract
// already demands).
#pragma once

#include <functional>
#include <string>

#include "exp/results.hpp"
#include "exp/spec.hpp"

namespace rlacast::exp {

// Runner's RunFn type, re-declared so this header stands without
// runner.hpp.
using IsolatedRunFn = std::function<Metrics(const RunSpec&)>;

struct IsolateOutcome {
  bool completed = false;  // child delivered a full result payload
  bool crashed = false;    // died without one (signal, abort, OOM)
  bool timed_out = false;  // parent deadline hit; child was SIGKILLed
  int term_signal = 0;     // terminating signal when the child was signaled
  int exit_code = -1;      // exit status when the child exited
  // Result payload, valid when completed:
  bool ok = false;
  Metrics metrics;
  std::string error;

  /// One-line human description of a crash ("killed by signal 11
  /// (SIGSEGV)", "exited 1 without a result payload").
  std::string describe() const;
};

/// Runs `fn(spec)` in a forked child, waiting at most `timeout_seconds`
/// (0 = forever) before SIGKILLing it. Exceptions inside the child are
/// caught there and travel back as ok=false payloads, exactly like the
/// in-process path; only abnormal death reports crashed=true.
IsolateOutcome run_isolated(const IsolatedRunFn& fn, const RunSpec& spec,
                            double timeout_seconds);

}  // namespace rlacast::exp
