// Tests for the fork-based crash sandbox (exp/sandbox.hpp) and its runner
// integration (--isolate, --timeout): a SIGSEGV'd run becomes a contained
// crashed=true row with a crash report while the sweep completes; timeouts
// are SIGKILLed and classified separately; and an overdue run is killed, so
// nothing it would do after its deadline ever happens.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "exp/runner.hpp"
#include "exp/sandbox.hpp"
#include "exp/spec.hpp"

// Fork-based sandboxing interacts badly with sanitizer runtimes (TSan
// refuses fork-from-threaded, ASan intercepts the crash signals), so the
// sandbox tests skip themselves under either.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define RLACAST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define RLACAST_SANITIZED 1
#endif
#endif

namespace rlacast {
namespace {

exp::Grid crashy_grid() {
  exp::Grid g;
  g.master_seed(3).replicates(1);
  g.add_case("ok-before", exp::Point{}.set("mode", "ok"));
  g.add_case("boom", exp::Point{}.set("mode", "segv"));
  g.add_case("ok-after", exp::Point{}.set("mode", "ok"));
  return g;
}

/// Scenario with per-case failure modes, selected by the spec point.
exp::Metrics crashy_scenario(const exp::RunSpec& spec) {
  const std::string mode = spec.point.get("mode", "ok");
  if (mode == "segv") std::raise(SIGSEGV);
  if (mode == "spin") {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  exp::Metrics m;
  m.set("value", static_cast<double>(spec.seed));
  return m;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Write ends of pipes this process holds, stdio excluded.
int pipe_write_ends() {
  int n = 0;
  for (int fd = 3; fd < 1024; ++fd) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && S_ISFIFO(st.st_mode) &&
        (::fcntl(fd, F_GETFL) & O_ACCMODE) == O_WRONLY)
      ++n;
  }
  return n;
}

TEST(Sandbox, CompletedRunDeliversMetricsThroughThePipe) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  spec.name = "ok";
  spec.seed = 99;
  const exp::IsolateOutcome out =
      exp::run_isolated(crashy_scenario, spec, /*timeout_seconds=*/0.0);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.crashed);
  EXPECT_FALSE(out.timed_out);
  EXPECT_DOUBLE_EQ(out.metrics.get("value"), 99.0);
}

TEST(Sandbox, ChildExceptionBecomesErrorNotCrash) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  const exp::IsolateOutcome out = exp::run_isolated(
      [](const exp::RunSpec&) -> exp::Metrics {
        throw std::runtime_error("bad parameter");
      },
      spec, 0.0);
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.crashed);
  EXPECT_EQ(out.error, "bad parameter");
}

TEST(Sandbox, SigsegvIsContainedAndClassified) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  spec.name = "boom";
  spec.point.set("mode", "segv");
  const exp::IsolateOutcome out =
      exp::run_isolated(crashy_scenario, spec, 0.0);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.crashed);
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.term_signal, SIGSEGV);
  EXPECT_NE(out.describe().find("signal"), std::string::npos);
}

TEST(Sandbox, TimeoutIsKilledAndClassifiedSeparately) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  spec.point.set("mode", "spin");
  const exp::IsolateOutcome out =
      exp::run_isolated(crashy_scenario, spec, /*timeout_seconds=*/0.3);
  EXPECT_TRUE(out.timed_out);
  EXPECT_FALSE(out.completed);
  EXPECT_FALSE(out.crashed);
}

TEST(IsolateRunner, CrashedRunIsContainedAndSweepCompletes) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  const std::string crash_dir =
      testing::TempDir() + "/isolate_crash_test_reports";
  std::filesystem::remove_all(crash_dir);

  exp::RunnerOptions opts;
  opts.isolate = true;
  opts.crash_dir = crash_dir;
  opts.crash_context = [](const exp::RunSpec& spec) {
    return "repro: bench_fake --replay journals/" + spec.name + ".journal";
  };
  exp::Runner runner(opts);
  const exp::Results results = runner.run(crashy_grid(), crashy_scenario);

  ASSERT_EQ(results.runs().size(), 3u);
  const exp::RunResult& before = results.runs()[0];
  const exp::RunResult& boom = results.runs()[1];
  const exp::RunResult& after = results.runs()[2];

  // The sweep survived the crash: both neighbours completed normally.
  EXPECT_TRUE(before.ok);
  EXPECT_TRUE(after.ok);
  EXPECT_DOUBLE_EQ(after.metrics.get("value"),
                   static_cast<double>(after.spec.seed));

  EXPECT_FALSE(boom.ok);
  EXPECT_TRUE(boom.crashed);
  EXPECT_EQ(boom.term_signal, SIGSEGV);
  ASSERT_FALSE(boom.crash_report.empty());

  const std::string report = read_file(boom.crash_report);
  EXPECT_NE(report.find("crash report: boom/mode=segv#0"), std::string::npos)
      << report;
  EXPECT_NE(report.find("signal"), std::string::npos) << report;
  EXPECT_NE(report.find("repro: bench_fake --replay"), std::string::npos)
      << report;

  // The crash columns reach results.json.
  const std::string json = results.to_json("crash-test", 3, 1, 1, 0.0);
  EXPECT_NE(json.find("\"crashed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"crash_report\":"), std::string::npos);

  std::filesystem::remove_all(crash_dir);
}

TEST(IsolateRunner, NoCrashDirMeansNoReportButStillContained) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  // --isolate without a crash dir, and a deadline alone (which forks too):
  // either way the crash is contained and no report is written.
  for (const bool isolate : {true, false}) {
    SCOPED_TRACE(isolate ? "isolate" : "timeout");
    exp::RunnerOptions opts;
    opts.isolate = isolate;  // crash_dir left empty
    opts.timeout_seconds = isolate ? 0.0 : 60.0;
    exp::Runner runner(opts);
    const exp::Results results = runner.run(crashy_grid(), crashy_scenario);
    ASSERT_EQ(results.runs().size(), 3u);
    EXPECT_TRUE(results.runs()[1].crashed);
    EXPECT_TRUE(results.runs()[1].crash_report.empty());
    EXPECT_TRUE(results.runs()[2].ok);
  }
}

TEST(IsolateRunner, OverdueRunIsKilledNotAbandoned) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  // The slow run sleeps past its deadline, then would write a marker file
  // and return metrics. A deadline forks the run and SIGKILLs it, so
  // neither ever happens, and its neighbours finish on the other worker.
  const std::string marker = testing::TempDir() + "/overdue_run_marker";
  std::filesystem::remove(marker);
  const auto sleep = std::chrono::seconds(3);
  exp::Grid g;
  g.master_seed(4).replicates(1);
  g.add_case("slow");
  g.add_case("fine-1");
  g.add_case("fine-2");
  exp::RunnerOptions opts;
  opts.jobs = 2;
  opts.timeout_seconds = 1.5;
  const auto t0 = std::chrono::steady_clock::now();
  const exp::Results results =
      exp::Runner(opts).run(g, [&](const exp::RunSpec& spec) {
        if (spec.name == "slow") {
          std::this_thread::sleep_for(sleep);
          if (std::FILE* f = std::fopen(marker.c_str(), "w")) std::fclose(f);
        }
        return crashy_scenario(spec);
      });

  ASSERT_EQ(results.runs().size(), 3u);
  const exp::RunResult& slow = results.runs()[0];
  EXPECT_FALSE(slow.ok);
  EXPECT_TRUE(slow.timed_out);
  EXPECT_FALSE(slow.crashed);
  EXPECT_TRUE(slow.metrics.empty());
  EXPECT_NE(slow.error.find("timeout"), std::string::npos) << slow.error;
  for (std::size_t i = 1; i < 3; ++i) {
    const exp::RunResult& fine = results.runs()[i];
    EXPECT_TRUE(fine.ok) << fine.spec.id() << ": " << fine.error;
    EXPECT_FALSE(fine.timed_out);
    EXPECT_DOUBLE_EQ(fine.metrics.get("value", 0.0),
                     static_cast<double>(fine.spec.seed));
  }
  const std::string json = results.to_json("unit", 4, 1, 2, 0.0);
  EXPECT_NE(json.find("\"timed_out\":true"), std::string::npos);

  // Wait until well after the sleeper would have woken: a run that was only
  // abandoned would have written the marker by now.
  std::this_thread::sleep_until(t0 + sleep + std::chrono::seconds(2));
  EXPECT_FALSE(std::filesystem::exists(marker));
}

TEST(ExpRunner, WedgedRunIsKilledByTimeoutWithoutBlockingOthers) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  // A run that never returns is SIGKILLed at its deadline, attempted once,
  // and its neighbours finish on the other worker. Each attempt appends a
  // byte to a file, since a forked run's writes to our memory are lost.
  const std::string attempts = testing::TempDir() + "/wedged_run_attempts";
  std::filesystem::remove(attempts);
  exp::Grid g;
  g.master_seed(4).replicates(1);
  g.add_case("wedged", exp::Point{}.set("mode", "spin"));
  g.add_case("fine-1");
  g.add_case("fine-2");
  exp::RunnerOptions opts;
  opts.jobs = 2;
  opts.timeout_seconds = 1.0;
  const exp::Results results =
      exp::Runner(opts).run(g, [&](const exp::RunSpec& spec) {
        if (spec.name == "wedged") {
          if (std::FILE* f = std::fopen(attempts.c_str(), "a")) {
            std::fputc('x', f);
            std::fclose(f);
          }
        }
        return crashy_scenario(spec);
      });

  EXPECT_EQ(read_file(attempts), "x");  // killed, never retried
  ASSERT_EQ(results.runs().size(), 3u);
  EXPECT_EQ(results.num_errors(), 1u);
  for (const exp::RunResult& r : results.runs()) {
    if (r.spec.name == "wedged") {
      EXPECT_FALSE(r.ok);
      EXPECT_TRUE(r.timed_out);
      EXPECT_FALSE(r.crashed);
      EXPECT_NE(r.error.find("timeout"), std::string::npos) << r.error;
    } else {
      EXPECT_TRUE(r.ok) << r.spec.id() << ": " << r.error;
      EXPECT_FALSE(r.timed_out);
    }
  }
  const std::string json = results.to_json("unit", 4, 1, 2, 0.0);
  EXPECT_NE(json.find("\"timed_out\":true"), std::string::npos);
  std::filesystem::remove(attempts);
}

TEST(RunnerTimeout, AbandonedAttemptCannotPublishAfterTheClaim) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  // Once the deadline has claimed the row, an attempt that would finish
  // later must never turn it into a result: the run sleeps past the limit,
  // then "finishes" with a metric, and the row stays a timeout with none.
  exp::Grid g;
  g.master_seed(1).replicates(1);
  g.add_case("slow");
  exp::RunnerOptions opts;
  opts.timeout_seconds = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  const exp::Results results =
      exp::Runner(opts).run(g, [](const exp::RunSpec&) -> exp::Metrics {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        exp::Metrics m;
        m.set("late", 1.0);
        return m;
      });
  ASSERT_EQ(results.runs().size(), 1u);
  EXPECT_TRUE(results.runs()[0].timed_out);
  EXPECT_FALSE(results.runs()[0].ok);
  // Wait until the attempt would have finished: the row stays a timeout.
  std::this_thread::sleep_until(t0 + std::chrono::milliseconds(2000));
  EXPECT_TRUE(results.runs()[0].timed_out);
  EXPECT_TRUE(results.runs()[0].metrics.empty());
}

TEST(IsolateRunner, EachChildHoldsOnlyItsOwnResultPipe) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  // Runs fork from several workers at once. A child that also held another
  // run's write end would keep that run's pipe open after it exited, so the
  // other run's parent would see no EOF until this child was gone.
  const int inherited = pipe_write_ends();
  exp::Grid g;
  g.master_seed(5).replicates(1);
  for (int i = 0; i < 64; ++i) g.add_case("run-" + std::to_string(i));
  exp::RunnerOptions opts;
  opts.jobs = 4;
  opts.isolate = true;
  const exp::Results results =
      exp::Runner(opts).run(g, [](const exp::RunSpec&) {
        exp::Metrics m;
        m.set("pipe_write_ends", pipe_write_ends());
        return m;
      });
  for (const exp::RunResult& r : results.runs()) {
    ASSERT_TRUE(r.ok) << r.spec.id() << ": " << r.error;
    EXPECT_EQ(r.metrics.get("pipe_write_ends"), inherited + 1.0)
        << r.spec.id();
  }
}

}  // namespace
}  // namespace rlacast
