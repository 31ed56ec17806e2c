// Tests for the tracing subsystem: queue monitor sampling and §3.1
// buffer-period segmentation.
#include <gtest/gtest.h>

#include "net/drop_tail.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/buffer_periods.hpp"
#include "trace/queue_monitor.hpp"

namespace rlacast::trace {
namespace {

net::Packet pkt(net::SeqNum seq) {
  net::Packet p;
  p.seq = seq;
  p.flow = 1;
  p.uid = static_cast<std::uint64_t>(seq) + 1;
  return p;
}

TEST(QueueMonitor, SamplesAtConfiguredPeriod) {
  sim::Simulator sim;
  net::DropTailQueue q(10);
  QueueMonitor mon(sim, q, 0.5, 0.0, 2.0);
  q.enqueue(pkt(0), 0.0);
  q.enqueue(pkt(1), 0.0);
  sim.run_until(3.0);
  ASSERT_EQ(mon.samples().size(), 5u);  // t = 0, .5, 1, 1.5, 2
  EXPECT_EQ(mon.samples()[0].backlog, 2u);
  EXPECT_DOUBLE_EQ(mon.mean_backlog(), 2.0);
  EXPECT_EQ(mon.peak_backlog(), 2u);
}

TEST(QueueMonitor, FractionAtOrAbove) {
  sim::Simulator sim;
  net::DropTailQueue q(10);
  QueueMonitor mon(sim, q, 1.0, 0.0, 3.0);
  sim.at(0.5, [&] { q.enqueue(pkt(0), 0.5); });   // backlog 1 from t=0.5
  sim.at(1.5, [&] { q.enqueue(pkt(1), 1.5); });   // backlog 2 from t=1.5
  sim.run_until(4.0);
  // samples at 0,1,2,3 -> backlogs 0,1,2,2
  EXPECT_DOUBLE_EQ(mon.fraction_at_or_above(2), 0.5);
  EXPECT_DOUBLE_EQ(mon.fraction_at_or_above(1), 0.75);
}

std::vector<QueueMonitor::Sample> series(
    std::initializer_list<std::size_t> backlogs, double dt = 0.1) {
  std::vector<QueueMonitor::Sample> out;
  double t = 0.0;
  for (auto b : backlogs) {
    out.push_back({t, b});
    t += dt;
  }
  return out;
}

TEST(BufferPeriods, SegmentsOneCleanPeriod) {
  // low=2, high=8: rise, full for 3 samples, drain.
  const auto s = series({0, 1, 3, 5, 8, 9, 9, 8, 5, 2, 0});
  const auto st = analyze_buffer_periods(s, 2, 8);
  EXPECT_EQ(st.periods, 1u);
  EXPECT_NEAR(st.full_length.mean(), 0.4, 1e-9);   // t=0.4..0.8 (8 counts)
  EXPECT_NEAR(st.period_length.mean(), 0.7, 1e-9); // t=0.2..0.9
}

TEST(BufferPeriods, ExcursionWithoutFullDoesNotCount) {
  const auto s = series({0, 3, 5, 4, 3, 1, 0});
  const auto st = analyze_buffer_periods(s, 2, 8);
  EXPECT_EQ(st.periods, 0u);
}

TEST(BufferPeriods, MultiplePeriodsCounted) {
  const auto s =
      series({0, 5, 9, 5, 0, 0, 5, 9, 9, 5, 0, 1, 6, 9, 1});
  const auto st = analyze_buffer_periods(s, 2, 8);
  EXPECT_EQ(st.periods, 3u);
  EXPECT_EQ(st.full_length.count(), 3u);
}

TEST(BufferPeriods, RefillWithinPeriod) {
  // Dips below high but not below low, refills: one period, two full spells.
  const auto s = series({0, 5, 9, 6, 9, 9, 4, 0});
  const auto st = analyze_buffer_periods(s, 2, 8);
  EXPECT_EQ(st.periods, 1u);
  EXPECT_EQ(st.full_length.count(), 2u);
}

}  // namespace
}  // namespace rlacast::trace
