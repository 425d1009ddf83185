#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace glint {

/// Fixed-size thread pool with a chunked ParallelFor. No work stealing: a
/// shared atomic cursor hands out `grain`-sized index chunks, the calling
/// thread drains chunks alongside the workers, and the call returns only
/// when the whole range is done (rethrowing the first worker exception, if
/// any).
///
/// Determinism contract: ParallelFor partitions [begin, end) into disjoint
/// chunks, each processed by exactly one thread. Callers that write only to
/// per-index slots (and do all cross-index reduction afterwards, in index
/// order) produce bit-identical results for any thread count.
///
/// Nested calls: a ParallelFor issued from inside a pool worker, or from
/// inside one of the chunks the caller drains itself, runs inline on that
/// thread (serial). Parallelism is applied at the outermost level only,
/// which avoids deadlock, oversubscription, and a caller that stalls on
/// helper tasks queued behind workers busy with its own range.
///
/// Several non-pool threads may call ParallelFor at once (the offline
/// trainer overlaps independent trainings this way); their helper tasks
/// share the one queue and every call still returns only when its own
/// range is done.
class ThreadPool {
 public:
  /// `threads` is the total concurrency (calling thread included), so a
  /// pool of 1 spawns no workers and ParallelFor runs inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Helper tasks queued and not yet taken by a worker (diagnostics: a
  /// stalled ParallelFor with an empty queue and idle workers has lost a
  /// helper). Kept for the tests: the stress watchdog reports it.
  size_t queue_depth() const;

  /// Runs fn(lo, hi) over disjoint chunks [lo, hi) covering [begin, end),
  /// with hi - lo <= grain. Blocks until every chunk has completed.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// Process-wide pool, lazily sized from ConfiguredThreads().
  static ThreadPool& Global();

  /// Replaces the global pool with one of `threads` threads. Not safe to
  /// call while parallel work is in flight; intended for benches and tests
  /// that sweep thread counts.
  static void SetGlobalThreads(int threads);

  /// Thread count the global pool starts with: the GLINT_THREADS env var if
  /// set (>= 1; 1 forces serial execution for debugging), else
  /// std::thread::hardware_concurrency().
  static int ConfiguredThreads();

 private:
  void WorkerLoop();
  void Enqueue(std::function<void()> task);

  int threads_;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// Shorthand for ThreadPool::Global().ParallelFor(...).
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace glint
