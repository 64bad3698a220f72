// Open-loop load generator: operation i is due at t0 + i / rate whatever
// the system does, and `workers` generator threads (the caller plus
// workers - 1 spawned ones) send due operations in index order. A thread
// stuck in a slow call leaves later operations waiting for a free
// thread, and that wait counts in their due-time latency.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `n` operations at `rate` per second. `op(i)` performs operation i
/// and returns whether it succeeded; it is called from generator threads
/// concurrently. Returns one timing per operation, in index order.

template <typename Op>
std::vector<OpTiming> RunOpenLoop(int64_t n, double rate, int workers,
                                  const Op& op) {
  std::vector<OpTiming> timings(static_cast<size_t>(n));
  if (n <= 0) return timings;
  // A short lead lets every thread reach its first wait before t0.
  const int64_t t0 = NowNs() + 2'000'000;
  std::atomic<int64_t> next{0};
  auto run = [&] {
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      OpTiming& t = timings[static_cast<size_t>(i)];
      t.claim_ns = NowNs();
      t.due_ns = t0 + std::llround(static_cast<double>(i) * 1e9 / rate);
      if (t.claim_ns < t.due_ns) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(t.due_ns - t.claim_ns));
      }
      t.start_ns = NowNs();
      t.ok = op(i);
      t.end_ns = NowNs();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers > 1 ? workers - 1 : 0));
  for (int w = 1; w < workers; ++w) threads.emplace_back(run);
  run();
  for (std::thread& th : threads) th.join();
  return timings;
}

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
