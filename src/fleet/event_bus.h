#pragma once

// Bounded MPSC ingestion bus decoupling producers (network connection
// handlers, replay drivers) from the fleet's shards — the MqttBus /
// EventGate shape: producers publish home-addressed messages, one
// consumer thread per shard drains its own FIFO queue and applies the
// messages to that shard's ServingEngine.
//
// Threading contract: shard K's engine is touched ONLY by shard K's
// consumer thread while the bus is running (engines are single-writer,
// and ServingEngine has no internal locking). That makes RunOnShard the
// one race-free read path while producers are live: it runs a closure on
// the shard's consumer thread, after everything already queued for that
// shard has been applied. Flush()/FlushShard() are weaker — they wait for
// a momentarily empty queue, so they are a true barrier only once
// producers are quiesced; never read an engine directly after a mere
// Flush while other threads can still Post to its shard.
//
// Backpressure is explicit and configurable:
//   kBlock   Post waits for queue space (lossless; producers slow to the
//            shard's drain rate — the default for durable serving);
//   kReject  Post returns kOverloaded immediately and bumps the
//            glint.fleet.bus.rejected counter (lossy; for callers with
//            their own retry/shed policy — the wire layer turns it into
//            a kOverloaded ack with a retry-after hint).
//
// Determinism: a home maps to exactly one shard queue, queues are FIFO,
// and each queue has one consumer — so messages for a given home apply in
// exactly the order they were posted, regardless of producer/shard
// interleaving. A workload whose per-home message order is fixed therefore
// reaches the same fleet state as applying the messages synchronously, and
// inspection after Flush() is bit-identical (tests/fleet_test.cc).
//
// Apply errors (unknown home id, duplicate AddHome, WAL failure) cannot be
// returned to Post's caller — the message was accepted, the failure is
// asynchronous. They are counted (glint.fleet.bus.apply_errors) and the
// first per-shard error is retained for FirstError(); at-most-once apply,
// never a crash.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/health.h"
#include "fleet/sharding.h"
#include "obs/trace.h"

namespace glint::fleet {

/// One home-addressed mutation riding the bus. kTask is the control
/// plane: a closure run on the shard's consumer thread (see RunOnShard).
/// Events always ride as kEventBatch — one or more events for ONE home in
/// one message (a single event is a batch of one). The queue push/pop,
/// lock hold, and trace context amortize over the batch, and per-home
/// FIFO holds trivially because the whole batch occupies a single queue
/// slot (events apply in vector order on the consumer).
struct BusMessage {
  enum class Kind : uint8_t {
    kAddHome, kAddRule, kRemoveRule, kEventBatch, kTask
  };
  Kind kind = Kind::kEventBatch;
  HomeId home;
  std::vector<rules::Rule> rules;  ///< kAddHome: the deployed rule set
  rules::Rule rule;                ///< kAddRule
  int rule_id = 0;                 ///< kRemoveRule
  std::vector<graph::Event> events;  ///< kEventBatch, per-home FIFO order
  std::function<void()> task;      ///< kTask
  /// kEventBatch: the FIRST event's per-home sequence number, the rest
  /// consecutive. 0 = unsequenced. The consumer skips seqs at or below
  /// the home's high-water mark, so at-least-once retransmits (client
  /// reconnect replay) apply exactly once.
  uint64_t seq = 0;
  /// Request trace carried by value: the message owns it from Post on and
  /// the shard consumer finishes it after apply (DESIGN.md §14). A task's
  /// caller-owned trace never rides the message — RunOnShard's wrapper
  /// closure carries it, so an abandoned task (timeout) cannot dangle a
  /// pointer into a departed caller's frame.
  obs::TraceContext trace;
  /// Sampled bus-timing stamp for untraced messages (set by Post on
  /// 1-in-2^timing_sample_shift messages); feeds the process-wide
  /// glint.fleet.bus.queue_wait_ms / apply_ms histograms.
  uint64_t enqueue_ns = 0;
};

class EventBus {
 public:
  enum class Backpressure : uint8_t { kBlock, kReject };

  /// A shard also counts as overloaded whenever its instantaneous queue
  /// depth reaches `capacity * kOverloadDepthFrac` — catches a stuffed
  /// queue before enough applies have happened to move the p99.
  static constexpr double kOverloadDepthFrac = 0.5;
  /// RunOnShard timeout: a task not STARTED within this long is abandoned
  /// and the caller gets kOverloaded instead of blocking forever on a
  /// wedged shard.
  static constexpr int kTaskTimeoutMs = 5000;

  struct Config {
    /// Per-shard queue bound (messages).
    size_t capacity = 1024;
    Backpressure policy = Backpressure::kBlock;
    /// Tests only: do not start consumer threads; callers drain manually
    /// with DrainOnce(). Makes backpressure deterministic to exercise.
    bool manual_drain = false;
    /// Finishes the traces of wire-originated mutations after apply
    /// (per-shard stage histograms + slow ring). Null = traces riding
    /// the bus are dropped at apply, never an error. Must outlive the bus.
    obs::TraceRecorder* recorder = nullptr;
    /// Sample 1 in 2^shift untraced messages for bus queue-wait/apply
    /// timing (0 = every message). Sampling keeps the consumer's hot
    /// loop under the tracing overhead budget (bench_obs_overhead);
    /// traced wire requests are always timed regardless.
    uint32_t timing_sample_shift = 3;

    // ---- Survivability (DESIGN.md §16) ----------------------------------

    /// Queue-wait-p99 overload detector thresholds, evaluated per shard on
    /// every watchdog tick; a hot shard flips kHealthy → kDegraded (see
    /// also kOverloadDepthFrac).
    OverloadDetector::Config overload;
    /// Watchdog cadence. 0 disables supervision AND overload detection
    /// entirely (no watchdog thread; manual_drain also disables it).
    int watchdog_interval_ms = 50;
    /// A shard whose queue is non-empty but whose applied counter has not
    /// moved for this long is declared wedged (kDown). Its consumer thread
    /// is never killed (no safe way to); the state is surfaced so dispatch
    /// stops routing to it, and it heals to kHealthy if progress resumes.
    int wedge_timeout_ms = 1000;
    /// Retry-after hint (ms) attached to kOverloaded replies derived from
    /// this bus's state.
    uint32_t retry_after_ms = 50;
  };

  /// The fleet must outlive the bus; the bus owns its consumer threads.
  EventBus(ShardedFleet* fleet, Config config);
  ~EventBus();

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Routes `msg` to its home's shard queue. OK = accepted (not yet
  /// applied); kOverloaded = rejected by the kReject policy on a full
  /// queue; FailedPrecondition once Stop() has begun. An OK return
  /// guarantees the message will be applied before Stop() returns.
  Status Post(BusMessage msg);

  /// Posts a Kind::kEventBatch message: one queue-lock acquisition (and
  /// one capacity slot) covers every event in the batch. Same acceptance
  /// contract as Post, including the stopping_ re-check under the queue
  /// lock — an OK PostBatch guarantees every event in the batch applies
  /// (in order) before Stop() returns. InvalidArgument on an empty batch
  /// or a non-batch message kind.
  Status PostBatch(BusMessage msg);

  /// Runs `fn` on shard `k`'s consumer thread after every message already
  /// queued for that shard has been applied, and blocks until `fn`
  /// returns. This is the race-free way to read shard `k`'s engine while
  /// producers are live: `fn` and the shard's mutations execute on the
  /// same thread, so no Post can interleave an apply with the read.
  /// Bypasses the capacity bound (control plane; in-flight tasks are
  /// bounded by blocked callers). FailedPrecondition once Stop() has
  /// begun, in which case `fn` is never run. In manual_drain mode, drains
  /// shard `k` then runs `fn` on the calling thread. Must not be called
  /// from a consumer thread (a task scheduling a task would self-wait).
  /// A non-null `trace` (owned by the caller, who blocks here until `fn`
  /// returns) gets its enqueue/queue-wait stages stamped and is exposed
  /// as obs::CurrentTrace() while `fn` runs, so engine code can stamp
  /// apply/inspect; the caller finishes it after the reply.
  /// If the task has not STARTED within kTaskTimeoutMs it is abandoned
  /// (the consumer later pops it and skips it without touching `fn` or
  /// `trace`) and kOverloaded is returned; a task that already started is
  /// always waited out — `fn` touching caller state after return is never
  /// possible.
  Status RunOnShard(int k, std::function<void()> fn,
                    obs::TraceContext* trace = nullptr);

  /// Blocks until every queue is empty and every in-flight message has
  /// been applied. Concurrent Posts during a Flush may or may not be
  /// covered; quiesce producers first for a true barrier (or use
  /// RunOnShard, which needs no quiescing).
  void Flush();
  /// Per-shard flush: drains only shard `k`'s queue. Same caveat as
  /// Flush — a barrier only for quiesced producers.
  void FlushShard(int k);

  /// Stops accepting posts, drains what was accepted, joins consumers.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Manual-drain mode: applies up to `max` queued messages of shard `k`
  /// on the calling thread. Returns messages applied.
  size_t DrainOnce(int k, size_t max = SIZE_MAX);

  /// High-water queue depth of shard `k` since construction.
  size_t queue_high_water(int k) const;
  /// Instantaneous queue depth of shard `k` (racy by nature; dashboards).
  size_t queue_depth(int k) const;
  /// Messages applied by shard `k`'s consumer since construction.
  uint64_t applied(int k) const;
  /// Events applied by shard `k`'s consumer: each non-task message counts
  /// its event payload (batch size, 1 for other mutations), so rate
  /// dashboards see the true event throughput rather than undercounting
  /// batches 1-per-N.
  uint64_t applied_events(int k) const;
  /// Messages accepted by Post/PostBatch (a batch counts once).
  uint64_t posted() const;
  /// Events accepted by Post/PostBatch (a batch counts its size) — the
  /// posted vs posted_events split makes batch amortization observable.
  uint64_t posted_events() const;
  /// Messages rejected by the kReject policy.
  uint64_t rejected() const;
  /// Messages whose apply returned an error (counted, never thrown).
  uint64_t apply_errors() const;
  /// First apply error of shard `k` (OK when none).
  Status FirstError(int k) const;

  // ---- Survivability surface (DESIGN.md §16) ----------------------------

  /// Shard `k`'s health as last published by the watchdog (kHealthy when
  /// supervision is disabled). Lock-free; dispatch reads it per request.
  ShardHealth health(int k) const;
  /// Dispatch-side shed bookkeeping: work turned away because the shard
  /// was degraded/down (NoteOverloadShed) or its deadline had already
  /// expired (NoteDeadlineShed). The bus owns the counters so kStats and
  /// kHealth report them per shard.
  void NoteOverloadShed(int k);
  void NoteDeadlineShed(int k);
  uint64_t overload_shed(int k) const;
  uint64_t deadline_shed(int k) const;
  /// Consumer restarts performed by the watchdog for shard `k`.
  uint64_t restarts(int k) const;
  /// Events dropped by per-home seq dedup (at-least-once retransmits). Kept
  /// for the tests: it shows a retransmit was deduplicated.
  uint64_t dedup_dropped() const;
  uint32_t retry_after_ms() const { return config_.retry_after_ms; }

 private:
  struct ShardQueue {
    mutable std::mutex mu;
    std::condition_variable can_push;   ///< space available (kBlock)
    std::condition_variable can_pop;    ///< messages available
    std::condition_variable drained;    ///< queue empty + nothing in flight
    std::deque<BusMessage> q;
    size_t high_water = 0;
    uint64_t posted = 0;    ///< pushes ever (drives timing sampling)
    bool applying = false;  ///< consumer is between pop and apply-done
    Status first_error;     ///< first apply error, retained
    std::atomic<uint64_t> applied{0};  ///< messages applied, ever
    std::atomic<uint64_t> applied_events{0};  ///< events applied, ever

    // -- Survivability (DESIGN.md §16) --
    std::atomic<uint8_t> health{0};  ///< ShardHealth, watchdog-published
    std::atomic<bool> consumer_alive{false};
    std::atomic<uint64_t> overload_shed{0};  ///< dispatch-side, via Note*
    std::atomic<uint64_t> deadline_shed{0};
    std::atomic<uint64_t> restarts{0};
    /// Per-home seq high-water marks for exactly-once apply. Touched only
    /// by the shard's consumer thread (and watchdog restart, which runs
    /// while the consumer is dead) — intentionally survives a restart so
    /// replayed queue contents dedup correctly.
    std::unordered_map<HomeId, uint64_t> last_seq;
    /// Queue-wait overload detector; fed by ApplyTimed, ticked by the
    /// watchdog.
    std::unique_ptr<OverloadDetector> detector;
    // Watchdog-thread-local wedge bookkeeping (no locking needed).
    uint64_t wd_last_applied = 0;
    uint64_t wd_stall_since_ns = 0;
    bool wd_wedged = false;
  };

  /// Shared body of Post/PostBatch.
  Status PostImpl(BusMessage msg);
  void ConsumerLoop(int k);
  /// Event payload of one message for the applied_events counters
  /// (batch size, 1 for other mutations, 0 for control-plane tasks).
  static uint64_t EventsIn(const BusMessage& msg);
  /// Applies one message to shard `k`'s engine (status = apply outcome).
  /// Non-const: exposes the message's trace (if any) as CurrentTrace so
  /// engine code can stamp stages into it.
  Status Apply(int k, BusMessage& msg);
  /// Stage stamping + sampled bus timing around one Apply (the consumer
  /// and DrainOnce share it).
  Status ApplyTimed(int k, BusMessage& msg);
  void RecordApplyError(int k, const Status& st);
  /// DrainOnce's body without the manual_drain precondition — Stop() also
  /// uses it to drain queues whose consumer died un-restarted.
  size_t DrainQueue(int k, size_t max);
  /// Supervision thread: ticks every shard's overload detector, detects
  /// dead/wedged consumers, restarts dead ones.
  void WatchdogLoop();
  void WatchdogTick(int k, uint64_t now_ns);
  /// Rebuilds shard `k` after its consumer thread died: joins the dead
  /// thread, re-Recovers the engine (ShardedFleet::RestartShard), spawns a
  /// fresh consumer that replays the parked queue.
  /// Runs on the watchdog thread while nothing else touches the shard.
  void RestartConsumer(int k);

  ShardedFleet* fleet_;
  Config config_;
  uint64_t sample_mask_ = 0;  ///< (1 << timing_sample_shift) - 1
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  std::vector<std::thread> consumers_;
  std::thread watchdog_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> posted_{0};
  std::atomic<uint64_t> posted_events_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> apply_errors_{0};
  std::atomic<uint64_t> dedup_dropped_{0};
};

}  // namespace glint::fleet
