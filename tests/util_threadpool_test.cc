#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace glint {
namespace {

TEST(ThreadPoolTest, ConstructDestructVariousSizes) {
  for (int t = 1; t <= 4; ++t) {
    ThreadPool pool(t);
    EXPECT_EQ(pool.threads(), t);
  }
  // Sizes below 1 clamp to serial.
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t grain : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{100},
                        int64_t{100000}}) {
    constexpr int64_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(0, kN, grain, [&](int64_t lo, int64_t hi) {
      ASSERT_LE(lo, hi);
      for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, NonZeroBeginAndEmptyRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(40, 100, 9, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i >= 40 ? 1 : 0);
  }
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { called = true; });
  pool.ParallelFor(7, 5, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 1000, 1,
                                [](int64_t lo, int64_t) {
                                  if (lo == 500) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives and keeps working after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) { count++; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 100);
    ++calls;
  });
  EXPECT_EQ(calls, 1);  // serial pools take the whole range in one call
}

TEST(ThreadPoolTest, NestedParallelForCompletesWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      pool.ParallelFor(0, 10, 1,
                       [&](int64_t l2, int64_t h2) { total += h2 - l2; });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, NestedCallInCallersOwnChunkRunsInlineOnCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> caller_chunks{0};
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() != caller) {
      // Hold the workers (bounded) until the caller has claimed a chunk of
      // its own, so the nested path below is always exercised.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (caller_chunks == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      return;
    }
    ++caller_chunks;
    int inner_calls = 0;
    pool.ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      total += hi - lo;
      ++inner_calls;
    });
    EXPECT_EQ(inner_calls, 1);  // the whole inner range, in one inline call
  });
  EXPECT_GE(caller_chunks.load(), 1);
  EXPECT_EQ(total.load(), 100 * caller_chunks.load());
}

TEST(ThreadPoolTest, CallerFansOutAgainAfterAThrowingParallelFor) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 64, 1,
                                [](int64_t, int64_t) {
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The next top-level call from this thread is not mistaken for a nested
  // one: its chunks reach the workers again. Each chunk waits (bounded) for
  // a second thread to arrive, so an inline run would time out.
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> helper_ran{false};
  pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() != caller) {
      helper_ran = true;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!helper_ran && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(helper_ran.load());
}

TEST(ThreadPoolTest, GlintThreadsEnvVarForcesSerial) {
  setenv("GLINT_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreads(), 1);
  ThreadPool::SetGlobalThreads(ThreadPool::ConfiguredThreads());
  EXPECT_EQ(ThreadPool::Global().threads(), 1);
  const auto caller = std::this_thread::get_id();
  ParallelFor(0, 64, 4, [&](int64_t, int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });

  setenv("GLINT_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreads(), 3);

  unsetenv("GLINT_THREADS");
  EXPECT_GE(ThreadPool::ConfiguredThreads(), 1);
  ThreadPool::SetGlobalThreads(ThreadPool::ConfiguredThreads());
}

}  // namespace
}  // namespace glint
