// Shared helpers for the reproduction benches: command-line handling
// (--full for paper-length 3000 s runs, --seed, --duration, and the
// experiment-runner flags --jobs / --replicates / --json), the Figure
// 7/9/10-style table assembly, and the glue between exp:: grids and the
// paper's CaseColumn rows.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "stats/table.hpp"
#include "topo/scenario.hpp"  // FlowRow

namespace rlacast::bench {

struct Options {
  /// Default runs are time-scaled (shape-preserving) for quick iteration;
  /// --full reproduces the paper's 3000 s / 100 s warm-up schedule.
  bool full = false;
  double duration = 240.0;
  double warmup = 60.0;
  std::uint64_t seed = 1;
  /// Experiment-runner controls (benches migrated onto exp::Runner only).
  int jobs = 1;            // --jobs N; 0 = hardware concurrency
  int replicates = 1;      // --replicates R; seeds derived per replicate
  std::string json_path;   // --json PATH; empty = no JSON output
  double run_timeout = 0.0;  // --timeout S; per-run wall-clock kill, 0 = off
  bool smoke = false;        // --smoke; CI-sized quick pass (bench-defined)
  /// Chaos/soak mode (benches that support it, e.g. bench_adversary): each
  /// replicate draws a randomized adversary + impairment scenario from its
  /// own seed (fault::draw_chaos) and runs under watchdog invariants.
  bool chaos = false;         // --chaos
  int chaos_cases = 12;       // --chaos-cases N; scenarios per defense arm

  /// Determinism / crash-containment controls (replay-wired benches only;
  /// see src/replay/ and bench/replay_support.hpp).
  std::string record_journal_dir;  // --record-journal DIR; journal every run
  std::string replay_path;         // --replay PATH; verify one run, then exit
  std::uint64_t checkpoint_events = 20000;  // --checkpoint-events N
  bool isolate = false;            // --isolate; fork-sandbox every run
  std::string crash_dir = "results/crashes";  // --crash-dir DIR

  /// --trajectory PATH: after the run, write a one-object JSON snapshot of
  /// the bench's health metrics (throughput, peak RSS, fairness minima) to
  /// PATH. tools/regen_results.sh points this at the repo-root
  /// BENCH_<name>.json files so their git history forms a per-PR
  /// performance trajectory. Under --timeout or --isolate every run is a
  /// forked child, so peak RSS is that of the largest single run, not the
  /// sum of the runs that were alive at once.
  std::string trajectory_path;

  double measured_seconds() const { return duration - warmup; }

  /// Worker count after resolving --jobs 0 to the hardware parallelism.
  int resolved_jobs() const;

  /// Runner configured from the flags. Progress lines only appear when the
  /// batch is actually parallel or replicated AND stderr is a terminal, so
  /// piped transcripts (tools/regen_results.sh) stay deterministic and
  /// default single-replicate output is byte-compatible with the pre-runner
  /// benches.
  exp::RunnerOptions runner_options() const;
};

/// Parses --full, --seed N, --duration S, --warmup S, --jobs N,
/// --replicates R, --json PATH, --timeout S, --smoke and the flags above.
/// Unknown flags and malformed or out-of-range values exit 2.
Options parse_options(int argc, char** argv);

/// Adds the RLA row block of Figures 7/9 (one column per case) to a table.
struct CaseColumn {
  std::string name;
  topo::FlowRow rla;
  topo::FlowRow wtcp;
  topo::FlowRow btcp;
};

/// Renders the full three-block (RLA / WTCP / BTCP) table of Figures 7/9.
std::string render_fig7_style_table(const std::vector<CaseColumn>& cases);

/// Prints a standard bench header with reproduction context.
void print_header(const std::string& title, const Options& opt);

/// Flattens a Figure 7/9/10-style case column into exp metric rows
/// ("rla.thrput_pps", "wtcp.cwnd", ...). Inverse: column_from_metrics.
exp::Metrics metrics_from_column(const CaseColumn& c);
CaseColumn column_from_metrics(std::string name, const exp::Metrics& m);

/// Replicate-0 CaseColumn per case, in grid order — the rows the legacy
/// single-replicate tables print. A case whose replicate-0 run errored is
/// skipped with a warning on stderr.
std::vector<CaseColumn> replicate0_columns(const exp::Results& results);

/// Shared post-processing for migrated benches: prints the replicate
/// aggregate table (mean ±95% CI) when --replicates > 1, reports error rows,
/// and writes results.json when --json was given. `spec_extra` adds
/// bench-specific spec fields (gateway type, topology variant, ...) to the
/// JSON; duration/warmup are always included. Returns false when a requested
/// JSON write failed (benches turn that into a nonzero exit).
bool finish_grid_output(
    const std::string& experiment, const Options& opt, const exp::Results& results,
    double wall_seconds,
    std::vector<std::pair<std::string, std::string>> spec_extra = {});

/// Peak resident set size so far, in MiB (ru_maxrss): the larger of this
/// process and its largest reaped child (a forked run).
double peak_rss_mib();

/// Writes the --trajectory snapshot: {"experiment", "config", "metrics"}
/// with flat numeric metrics. No-op (returns true) when path is empty;
/// returns false and warns on I/O failure. peak_rss_mib and wall seconds
/// are always included alongside the bench-specific entries;
/// `sender_bytes_per_receiver` is the standard sender-memory headline
/// (bench_scale) and is emitted only when non-negative.
bool write_trajectory(
    const Options& opt, const std::string& experiment, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& metrics,
    double sender_bytes_per_receiver = -1.0);

}  // namespace rlacast::bench
