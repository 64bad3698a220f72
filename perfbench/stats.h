// Statistics of the benchmark: the percentile rule, due-time latency
// accounting of an open-loop run, backlog detection and the max-rate
// search over a fixed rate ladder. Header-only so the session program and the
// benchmark's own tests (perfbench_test.cc) share one implementation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// The percentile rule: the highest percentile (as a fraction) that still
/// has at least kMinSamplesBeyond of `n` samples beyond it, i.e.
/// 1 - 10/n; 0.5 when the sample is too small for even the median to
/// qualify.
inline double TailPercentile(size_t n) {
  if (n <= 2 * kMinSamplesBeyond) return 0.5;
  return 1.0 - static_cast<double>(kMinSamplesBeyond) /
                   static_cast<double>(n);
}

/// The percentile reported for a metric that asks for `want` (0.99 for a
/// p99): `want` when the sample supports it, else the rule's percentile.
inline double ReportedPercentile(size_t n, double want) {
  return std::min(want, TailPercentile(n));
}

/// Nearest-rank percentile: the smallest sample with at least a fraction
/// `q` of the sample at or below it. At q = TailPercentile(n) exactly
/// kMinSamplesBeyond samples lie above the returned one.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  const size_t idx = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(v.size() - 1)));
  return v[idx];
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// Values per window of WindowedP99.
inline constexpr size_t kTailWindow = 1000;

/// Tail of a long run on a noisy host: the p99 of each consecutive window
/// of kTailWindow values (a window always supports its p99), and the
/// median over windows, so one burst of host stalls moves one window, not
/// the figure. Samples too short for three windows fall back to the
/// percentile rule over the whole sample.
inline double WindowedP99(const std::vector<double>& v) {
  const size_t windows = v.size() / kTailWindow;
  if (windows < 3) return Percentile(v, ReportedPercentile(v.size(), 0.99));
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    tails.emplace_back(Percentile(
        std::vector<double>(v.begin() + static_cast<ptrdiff_t>(w * kTailWindow),
                            v.begin() + static_cast<ptrdiff_t>((w + 1) * kTailWindow)),
        0.99));
  }
  return Median(tails);
}

/// Timeline of one open-loop operation, in steady-clock nanoseconds.
struct OpTiming {
  int64_t due_ns = 0;    ///< when the schedule says it is sent
  int64_t claim_ns = 0;  ///< when a generator thread became free for it
  int64_t start_ns = 0;  ///< when the call into the system began
  int64_t end_ns = 0;    ///< when the call returned
  bool ok = false;
};

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Latency as the caller sees it: from the due time, so a stall also
/// delays every operation queued behind it.
inline std::vector<double> DueLatenciesMs(const std::vector<OpTiming>& t) {
  std::vector<double> out;
  out.reserve(t.size());
  for (const OpTiming& o : t) out.push_back(Ms(o.end_ns - o.due_ns));
  return out;
}

/// Time from the due time to the call into the system.
inline std::vector<double> QueueMs(const std::vector<OpTiming>& t) {
  std::vector<double> out;
  out.reserve(t.size());
  for (const OpTiming& o : t) out.push_back(Ms(o.start_ns - o.due_ns));
  return out;
}

/// Time inside the system's call.
inline std::vector<double> ServiceMs(const std::vector<OpTiming>& t) {
  std::vector<double> out;
  out.reserve(t.size());
  for (const OpTiming& o : t) out.push_back(Ms(o.end_ns - o.start_ns));
  return out;
}

/// How late the generator itself ran: the delay past the moment it could
/// have sent (the later of the due time and a thread becoming free).
/// Queueing behind busy threads is not generator lag.
inline std::vector<double> GeneratorLagMs(const std::vector<OpTiming>& t) {
  std::vector<double> out;
  out.reserve(t.size());
  for (const OpTiming& o : t) {
    out.push_back(Ms(o.start_ns - std::max(o.due_ns, o.claim_ns)));
  }
  return out;
}

/// Largest number of operations that were due but not yet started, seen
/// at any start.
inline int64_t BacklogMax(const std::vector<OpTiming>& t) {
  std::vector<int64_t> due, start;
  due.reserve(t.size());
  start.reserve(t.size());
  for (const OpTiming& o : t) {
    due.push_back(o.due_ns);
    start.push_back(o.start_ns);
  }
  std::sort(due.begin(), due.end());
  std::sort(start.begin(), start.end());
  int64_t worst = 0;
  for (size_t i = 0; i < start.size(); ++i) {
    const int64_t due_by = std::upper_bound(due.begin(), due.end(),
                                            start[i]) -
                           due.begin();
    worst = std::max(worst, due_by - static_cast<int64_t>(i) - 1);
  }
  return worst;
}

/// Operations not yet started when the last one fell due: what the
/// system still owed when the offered load stopped.
inline int64_t BacklogAtEnd(const std::vector<OpTiming>& t) {
  int64_t last_due = INT64_MIN;
  for (const OpTiming& o : t) last_due = std::max(last_due, o.due_ns);
  int64_t owed = 0;
  for (const OpTiming& o : t) owed += o.start_ns > last_due ? 1 : 0;
  return owed;
}

/// A backlog grows when the system ends the schedule owing more than the
/// generator's threads can hold in flight plus 2% of the schedule: at a
/// sustainable rate the end backlog stays at the in-flight level however
/// long the run.
inline bool BacklogGrowing(const std::vector<OpTiming>& t, int workers) {
  const int64_t allowance = std::max<int64_t>(
      2 * workers, static_cast<int64_t>(t.size()) / 50);
  return BacklogAtEnd(t) > allowance;
}

/// Verdict on one rung of the rate ladder.
struct RungVerdict {
  double rate = 0.0;
  size_t n = 0;
  double tail_ms = 0.0;  ///< WindowedP99 of the due-time latency
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  int64_t failures = 0;
  int64_t backlog_end = 0;
  bool growing = false;
  bool pass = false;
};

/// A rung passes when nothing failed, the tail meets the limit and the
/// backlog did not grow.
inline RungVerdict JudgeRung(double rate, const std::vector<OpTiming>& t,
                             int workers, double limit_ms) {
  RungVerdict v;
  v.rate = rate;
  v.n = t.size();
  for (const OpTiming& o : t) v.failures += o.ok ? 0 : 1;
  const std::vector<double> lat = DueLatenciesMs(t);
  v.tail_ms = WindowedP99(lat);
  v.p50_ms = Percentile(lat, 0.5);
  v.p90_ms = Percentile(lat, 0.9);
  v.backlog_end = BacklogAtEnd(t);
  v.growing = BacklogGrowing(t, workers);
  v.pass = v.failures == 0 && v.tail_ms <= limit_ms && !v.growing;
  return v;
}

/// Result of the max-rate search.
struct MaxRateResult {
  double max_rate = 0.0;  ///< 0 when even the lowest rung fails
  std::vector<RungVerdict> probes;
};

/// Bisection over an ascending rate ladder for the highest rung that
/// passes, assuming rungs below a passing rung pass. `run_rung(index)`
/// runs one rung and returns its verdict.
inline MaxRateResult SearchMaxRate(
    const std::vector<double>& ladder,
    const std::function<RungVerdict(size_t)>& run_rung) {
  MaxRateResult out;
  int64_t lo = -1;  // highest index known to pass
  int64_t hi = static_cast<int64_t>(ladder.size());  // lowest known to fail
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    RungVerdict v = run_rung(static_cast<size_t>(mid));
    out.probes.push_back(v);
    if (v.pass) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.max_rate = lo >= 0 ? ladder[static_cast<size_t>(lo)] : 0.0;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
