#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "obs/obs.h"

namespace glint {
namespace {

/// Set for the lifetime of a pool worker thread, and on a ParallelFor
/// caller while it drains its own chunks; nested ParallelFor calls check it
/// and run inline instead of re-entering the queue.
thread_local bool in_pool_worker = false;

/// Marks the calling thread as draining pool work for one scope, restoring
/// the previous mark on exit (also when a chunk throws).
class InPoolScope {
 public:
  InPoolScope() : saved_(in_pool_worker) { in_pool_worker = true; }
  ~InPoolScope() { in_pool_worker = saved_; }
  InPoolScope(const InPoolScope&) = delete;
  InPoolScope& operator=(const InPoolScope&) = delete;

 private:
  bool saved_;
};

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool>* pool = new std::unique_ptr<ThreadPool>(
      std::make_unique<ThreadPool>(ThreadPool::ConfiguredThreads()));
  return *pool;
}

}  // namespace

int ThreadPool::ConfiguredThreads() {
  if (const char* env = std::getenv("GLINT_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Global() { return *GlobalSlot(); }

void ThreadPool::SetGlobalThreads(int threads) {
  GlobalSlot() = std::make_unique<ThreadPool>(threads);
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  GLINT_OBS_GAUGE_SET("glint.threadpool.threads", threads_);
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tasks_.size();
}

void ThreadPool::WorkerLoop() {
  in_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this]() { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  if (obs::Enabled()) {
    // Queue-depth gauge (with peak) plus two latencies: time spent waiting
    // in the queue and time spent running. The wrapper costs one extra
    // allocation per task; tasks are ParallelFor chunk drains (a handful
    // per call), not per-index work, so this is off the per-element path.
    GLINT_OBS_COUNT("glint.threadpool.tasks", 1);
    GLINT_OBS_GAUGE_ADD("glint.threadpool.queue_depth", 1);
    const uint64_t enqueue_ns = obs::NowNs();
    task = [enqueue_ns, inner = std::move(task)]() {
      GLINT_OBS_GAUGE_ADD("glint.threadpool.queue_depth", -1);
      GLINT_OBS_OBSERVE("glint.threadpool.task_wait_ms",
                        double(obs::NowNs() - enqueue_ns) * 1e-6);
      GLINT_OBS_TIMER(timer, "glint.threadpool.task_run_ms");
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  GLINT_OBS_COUNT("glint.threadpool.parallel_for_calls", 1);
  grain = std::max<int64_t>(1, grain);
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  if (threads_ == 1 || num_chunks == 1 || in_pool_worker) {
    fn(begin, end);
    return;
  }

  struct State {
    std::atomic<int64_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    int active = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->next.store(begin, std::memory_order_relaxed);

  // Claim chunks off the shared cursor until the range is exhausted. On the
  // first exception, fast-forward the cursor so remaining chunks are
  // abandoned; the exception is rethrown on the calling thread.
  auto drain = [state, grain, end, &fn]() {
    while (true) {
      const int64_t lo = state->next.fetch_add(grain);
      if (lo >= end) return;
      const int64_t hi = std::min(end, lo + grain);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(state->mu);
        if (!state->error) state->error = std::current_exception();
        state->next.store(end);
      }
    }
  };

  const int helpers = static_cast<int>(std::min<int64_t>(
      static_cast<int64_t>(threads_) - 1, num_chunks - 1));
  {
    std::lock_guard<std::mutex> lk(state->mu);
    state->active = helpers;
  }
  for (int h = 0; h < helpers; ++h) {
    // `drain` holds a reference to `fn`; safe because this call blocks
    // until every helper has finished.
    Enqueue([state, drain]() {
      drain();
      std::lock_guard<std::mutex> lk(state->mu);
      if (--state->active == 0) state->done.notify_one();
    });
  }
  {
    // The caller drains like a worker: a nested ParallelFor inside one of
    // its chunks runs inline instead of queueing helpers behind workers
    // busy with this same range and then waiting on them.
    InPoolScope as_worker;
    drain();
  }
  std::unique_lock<std::mutex> lk(state->mu);
  state->done.wait(lk, [&]() { return state->active == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

}  // namespace glint
