// Tests of the benchmark's own statistics: the percentile rule, due-time
// latency accounting of the open-loop generator, backlog detection and
// the max-rate search.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "open_loop.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

size_t Beyond(const std::vector<double>& v, double x) {
  size_t n = 0;
  for (double s : v) n += s > x ? 1 : 0;
  return n;
}

TEST(PercentileRule, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailPercentile(400), 0.975);
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 0.5);  // too small for a tail
  for (size_t n : {25, 100, 400, 999, 1000, 1001, 5000, 12345}) {
    const std::vector<double> v = Iota(n);
    EXPECT_EQ(Beyond(v, Percentile(v, TailPercentile(n))), kMinSamplesBeyond)
        << n;
  }
}

TEST(PercentileRule, P99OnlyWhenTheSampleSupportsIt) {
  EXPECT_DOUBLE_EQ(ReportedPercentile(5000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(ReportedPercentile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(ReportedPercentile(500, 0.99), 0.98);
  const std::vector<double> v = Iota(500);
  EXPECT_GE(Beyond(v, Percentile(v, ReportedPercentile(500, 0.99))),
            kMinSamplesBeyond);
}

TEST(PercentileRule, NearestRank) {
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 0.5), 2);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2);
  EXPECT_DOUBLE_EQ(Percentile({5}, 0.99), 5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
}

TEST(PercentileRule, WindowedP99IgnoresOneBadWindow) {
  // Five windows of 1..1000; a burst of stalls lands in window 2.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i);
  }
  for (int i = 2000; i < 2060; ++i) v[i] = 1e6;
  EXPECT_DOUBLE_EQ(WindowedP99(v), 990);
  // The pooled p99 is dragged to the burst.
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 1e6);
  // Short samples follow the percentile rule.
  const std::vector<double> short_v = Iota(2500);
  EXPECT_DOUBLE_EQ(WindowedP99(short_v), Percentile(short_v, 0.99));
}

TEST(DueTimeLatency, OneStallDelaysEveryRequestQueuedBehindIt) {
  // One generator thread, one request per millisecond; request 5 stalls
  // 30 ms. Requests due during the stall must carry the wait.
  static constexpr int64_t kStalled = 5;
  static constexpr int64_t kStallMs = 30;
  const std::vector<OpTiming> t = RunOpenLoop(40, 1000.0, 1, [](int64_t i) {
    if (i == kStalled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
    }
    return true;
  });
  const std::vector<double> lat = DueLatenciesMs(t);
  const std::vector<double> service = ServiceMs(t);
  const int64_t stall_end = t[kStalled].end_ns;
  for (int64_t i = kStalled + 1; i < 40; ++i) {
    if (t[i].due_ns >= stall_end) break;
    // Waited at least from its due time to the end of the stall...
    EXPECT_GE(lat[i], Ms(stall_end - t[i].due_ns)) << i;
    // ...though its own service was quick.
    EXPECT_LT(service[i], 5.0) << i;
  }
  // The request right behind the stall waited for most of it.
  EXPECT_GE(lat[kStalled + 1], kStallMs - 2.0);
  // Waiting behind a busy thread is queueing, not generator lag.
  const std::vector<double> lag = GeneratorLagMs(t);
  EXPECT_LT(lag[kStalled + 1], 5.0);
  EXPECT_GE(QueueMs(t)[kStalled + 1], kStallMs - 2.0);
  EXPECT_GE(BacklogMax(t), 20);
}

TEST(DueTimeLatency, ScheduleIsFixedInAdvance) {
  const std::vector<OpTiming> t =
      RunOpenLoop(50, 2000.0, 2, [](int64_t) { return true; });
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(t[i].due_ns - t[0].due_ns),
                static_cast<double>(i) * 500'000.0, 1.0);
    EXPECT_GE(t[i].start_ns, t[i].due_ns);
  }
}

/// Synthetic timings: `n` operations due every `interval_ns`, each taking
/// `service_ns` on one server, so the schedule above capacity queues.
std::vector<OpTiming> SimulateServer(int64_t n, int64_t interval_ns,
                                     int64_t service_ns) {
  std::vector<OpTiming> t(static_cast<size_t>(n));
  int64_t free_at = 0;
  for (int64_t i = 0; i < n; ++i) {
    OpTiming& o = t[static_cast<size_t>(i)];
    o.due_ns = i * interval_ns;
    o.claim_ns = std::max(o.due_ns, free_at);
    o.start_ns = o.claim_ns;
    o.end_ns = o.start_ns + service_ns;
    o.ok = true;
    free_at = o.end_ns;
  }
  return t;
}

TEST(Backlog, SustainableRateDoesNotGrow) {
  const std::vector<OpTiming> t = SimulateServer(2000, 1'000'000, 900'000);
  EXPECT_EQ(BacklogAtEnd(t), 0);
  EXPECT_FALSE(BacklogGrowing(t, 1));
  EXPECT_EQ(BacklogMax(t), 0);
}

TEST(Backlog, RateAboveCapacityGrows) {
  // 5% over capacity: the end backlog is ~5% of the schedule.
  const std::vector<OpTiming> t = SimulateServer(2000, 1'000'000, 1'050'000);
  EXPECT_GT(BacklogAtEnd(t), 80);
  EXPECT_TRUE(BacklogGrowing(t, 1));
  EXPECT_GT(BacklogMax(t), 80);
}

TEST(MaxRate, GrowingBacklogFailsARungEvenWhenTheTailMeetsTheLimit) {
  const std::vector<OpTiming> t = SimulateServer(2000, 1'000'000, 1'050'000);
  const RungVerdict lenient = JudgeRung(1000, t, 1, /*limit_ms=*/1e9);
  EXPECT_TRUE(lenient.growing);
  EXPECT_FALSE(lenient.pass);
  const RungVerdict ok =
      JudgeRung(1000, SimulateServer(2000, 1'000'000, 900'000), 1, 1.0);
  EXPECT_TRUE(ok.pass);
  EXPECT_NEAR(ok.tail_ms, 0.9, 1e-9);
}

TEST(MaxRate, FailuresAndSlowTailsFailARung) {
  std::vector<OpTiming> t = SimulateServer(2000, 1'000'000, 500'000);
  EXPECT_FALSE(JudgeRung(1000, t, 1, 0.4).pass);  // tail over the limit
  t[7].ok = false;
  const RungVerdict v = JudgeRung(1000, t, 1, 10.0);
  EXPECT_EQ(v.failures, 1);
  EXPECT_FALSE(v.pass);
}

TEST(MaxRate, BisectionFindsTheHighestSustainableRung) {
  const std::vector<double> ladder = {100, 110, 120, 130, 140, 150, 160,
                                      170, 180, 190, 200, 210, 220};
  // A server with capacity 1000/6.2 ms ≈ 161 ops/s: rungs up to 160 pass.
  auto run = [&](size_t k) {
    const double rate = ladder[k];
    const int64_t interval = static_cast<int64_t>(1e9 / rate);
    return JudgeRung(rate, SimulateServer(3000, interval, 6'200'000), 1,
                     /*limit_ms=*/50.0);
  };
  const MaxRateResult r = SearchMaxRate(ladder, run);
  EXPECT_DOUBLE_EQ(r.max_rate, 160);
  EXPECT_LE(r.probes.size(), 4u);
  // The verdicts it rests on are exact: 160 passes, 170 fails.
  EXPECT_TRUE(run(6).pass);
  EXPECT_FALSE(run(7).pass);
}

TEST(MaxRate, EdgesOfTheLadder) {
  const std::vector<double> ladder = {10, 20, 30};
  auto pass_all = [&](size_t k) {
    RungVerdict v;
    v.rate = ladder[k];
    v.pass = true;
    return v;
  };
  auto fail_all = [&](size_t k) {
    RungVerdict v;
    v.rate = ladder[k];
    return v;
  };
  EXPECT_DOUBLE_EQ(SearchMaxRate(ladder, pass_all).max_rate, 30);
  EXPECT_DOUBLE_EQ(SearchMaxRate(ladder, fail_all).max_rate, 0);
}

}  // namespace
}  // namespace perfbench
