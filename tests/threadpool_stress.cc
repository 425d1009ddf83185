// Standalone ThreadPool stress driver for the ThreadSanitizer build
// (tools/check.sh configures -DGLINT_TSAN=ON and runs this binary). Kept
// gtest-free so the sanitizer build only needs glint_util.
//
// Each round runs three legs on one pool: a flat ParallelFor, a nested one,
// and the TrainOffline pattern — three non-pool caller threads issuing
// ParallelFor at once, each with nested calls inside its chunks. A watchdog
// thread aborts the run if a round runs longer than kRoundTimeout,
// printing the round, the callers still inside their work and the pool's
// queue depth, so a lost helper task fails loudly instead of hanging.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace {

constexpr int kRounds = 1000;
constexpr int kCallers = 3;
/// ParallelFor calls each caller thread issues per round.
constexpr int kCallsPerCaller = 8;
constexpr auto kRoundTimeout = std::chrono::seconds(60);

/// Round progress shared with the watchdog. Slot 0 of `busy` is the main
/// thread (flat and nested legs), slots 1..kCallers the caller threads.
struct RoundWatch {
  std::mutex mu;
  std::condition_variable cv;
  int round = -1;
  bool finished = false;
  std::array<std::atomic<bool>, kCallers + 1> busy{};
};

void Watchdog(RoundWatch* w, const glint::ThreadPool* pool) {
  std::unique_lock<std::mutex> lk(w->mu);
  while (!w->finished) {
    const int seen = w->round;
    if (w->cv.wait_for(lk, kRoundTimeout, [&]() {
          return w->finished || w->round != seen;
        })) {
      continue;
    }
    std::fprintf(stderr,
                 "threadpool_stress: round %d did not finish within %lld s; "
                 "pool queue depth %zu; still waiting:",
                 seen, static_cast<long long>(kRoundTimeout.count()),
                 pool->queue_depth());
    for (size_t c = 0; c < w->busy.size(); ++c) {
      if (!w->busy[c].load()) continue;
      if (c == 0) {
        std::fprintf(stderr, " main");
      } else {
        std::fprintf(stderr, " caller-%zu", c);
      }
    }
    std::fprintf(stderr, "\n");
    std::abort();
  }
}

/// One caller's share of the TrainOffline leg: kCallsPerCaller outer
/// ParallelFor calls whose chunks each issue a nested call (inline on the
/// thread that drains the chunk). Returns the number of inner indices seen.
int64_t CallerWork(glint::ThreadPool* pool) {
  std::atomic<int64_t> total{0};
  for (int call = 0; call < kCallsPerCaller; ++call) {
    pool->ParallelFor(0, 24, 2, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        pool->ParallelFor(0, 16, 4,
                          [&](int64_t l2, int64_t h2) { total += h2 - l2; });
      }
    });
  }
  return total.load();
}

}  // namespace

int main() {
  constexpr int64_t kN = 2048;
  glint::ThreadPool pool(4);
  RoundWatch watch;
  std::thread watchdog(Watchdog, &watch, &pool);
  int failed = 0;

  for (int round = 0; round < kRounds && failed == 0; ++round) {
    {
      std::lock_guard<std::mutex> lk(watch.mu);
      watch.round = round;
    }
    watch.cv.notify_all();

    watch.busy[0] = true;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(0, kN, 7, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
    });
    for (int64_t i = 0; i < kN && failed == 0; ++i) {
      if (hits[static_cast<size_t>(i)].load() != 1) {
        std::fprintf(stderr, "round %d: index %lld hit %d times\n", round,
                     static_cast<long long>(i),
                     hits[static_cast<size_t>(i)].load());
        failed = 1;
      }
    }

    // Nested calls run the inner range inline on pool workers.
    std::atomic<int64_t> total{0};
    pool.ParallelFor(0, 16, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        pool.ParallelFor(0, 32, 4,
                         [&](int64_t l2, int64_t h2) { total += h2 - l2; });
      }
    });
    if (total.load() != 16 * 32) {
      std::fprintf(stderr, "round %d: nested total %lld != 512\n", round,
                   static_cast<long long>(total.load()));
      failed = 1;
    }
    watch.busy[0] = false;

    // The TrainOffline pattern: several non-pool callers share the pool's
    // one queue at once.
    std::array<int64_t, kCallers> seen{};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      watch.busy[static_cast<size_t>(c + 1)] = true;
      callers.emplace_back([&, c]() {
        seen[static_cast<size_t>(c)] = CallerWork(&pool);
        watch.busy[static_cast<size_t>(c + 1)] = false;
      });
    }
    for (auto& t : callers) t.join();
    for (int c = 0; c < kCallers; ++c) {
      if (seen[static_cast<size_t>(c)] != kCallsPerCaller * 24 * 16) {
        std::fprintf(stderr, "round %d: caller %d saw %lld indices != %d\n",
                     round, c + 1,
                     static_cast<long long>(seen[static_cast<size_t>(c)]),
                     kCallsPerCaller * 24 * 16);
        failed = 1;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lk(watch.mu);
    watch.finished = true;
  }
  watch.cv.notify_all();
  watchdog.join();
  if (failed != 0) return 1;
  std::printf("threadpool_stress: OK (%d rounds, %d concurrent callers)\n",
              kRounds, kCallers);
  return 0;
}
