#include "fleet/event_bus.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/obs.h"
#include "util/fault.h"

namespace glint::fleet {

EventBus::EventBus(ShardedFleet* fleet, Config config)
    : fleet_(fleet), config_(config) {
  GLINT_CHECK(fleet_ != nullptr);
  GLINT_CHECK(config_.capacity >= 1);
  GLINT_CHECK(config_.timing_sample_shift < 32);
  sample_mask_ = (uint64_t{1} << config_.timing_sample_shift) - 1;
  const int n = fleet_->num_shards();
  queues_.reserve(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    queues_.push_back(std::make_unique<ShardQueue>());
    queues_.back()->detector =
        std::make_unique<OverloadDetector>(config_.overload);
  }
  if (!config_.manual_drain) {
    consumers_.reserve(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      // Set alive from this thread BEFORE the spawn: the watchdog must
      // never mistake a consumer that has not scheduled yet for a dead one.
      queues_[static_cast<size_t>(k)]->consumer_alive.store(
          true, std::memory_order_release);
      consumers_.emplace_back([this, k] { ConsumerLoop(k); });
    }
    if (config_.watchdog_interval_ms > 0) {
      watchdog_ = std::thread([this] { WatchdogLoop(); });
    }
  }
}

EventBus::~EventBus() { Stop(); }

Status EventBus::Post(BusMessage msg) { return PostImpl(std::move(msg)); }

Status EventBus::PostBatch(BusMessage msg) {
  if (msg.kind != BusMessage::Kind::kEventBatch) {
    return Status::InvalidArgument("PostBatch requires a kEventBatch message");
  }
  if (msg.events.empty()) {
    return Status::InvalidArgument("PostBatch: empty batch");
  }
  return PostImpl(std::move(msg));
}

Status EventBus::PostImpl(BusMessage msg) {
  GLINT_FAULT_POINT("fleet.bus.post");
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("event bus is stopped");
  }
  const uint64_t events = EventsIn(msg);
  const int k = fleet_->ShardOf(msg.home);
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  {
    std::unique_lock<std::mutex> lock(sq.mu);
    if (sq.q.size() >= config_.capacity) {
      if (config_.policy == Backpressure::kReject) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        GLINT_OBS_COUNT("glint.fleet.bus.rejected", 1);
        return Status::Overloaded(
            "shard " + std::to_string(k) + " queue full (" +
            std::to_string(config_.capacity) + ")");
      }
      GLINT_OBS_COUNT("glint.fleet.bus.blocked", 1);
      sq.can_push.wait(lock, [&] {
        return sq.q.size() < config_.capacity ||
               stopping_.load(std::memory_order_acquire);
      });
    }
    // Re-check under sq.mu immediately before the push: a consumer exits
    // only after observing stopping+empty under this same lock, so a
    // stopping_ read of false here proves the consumer is still alive to
    // drain what we push. Without this, Stop() racing between the entry
    // check and the push could strand an accepted message forever.
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("event bus is stopped");
    }
    sq.q.push_back(std::move(msg));
    sq.high_water = std::max(sq.high_water, sq.q.size());
    // Stamp while still holding sq.mu: the consumer cannot pop this
    // message until we release, so writing into the queued slot is
    // race-free, and the pop under the same mutex publishes it. The
    // sampled enqueue stamp is taken whether or not telemetry is on: it
    // feeds the overload detector (load shedding is control, not
    // telemetry); only the queue-wait histogram honours the off-switch.
    BusMessage& queued = sq.q.back();
    queued.trace.Mark(obs::TraceStage::kEnqueue);
    if ((sq.posted++ & sample_mask_) == 0) {
      queued.enqueue_ns = queued.trace.active() ? queued.trace.mark_ns
                                                : obs::NowNs();
    }
  }
  posted_.fetch_add(1, std::memory_order_relaxed);
  posted_events_.fetch_add(events, std::memory_order_relaxed);
  GLINT_OBS_COUNT("glint.fleet.bus.posted", 1);
  GLINT_OBS_COUNT("glint.fleet.bus.posted_events",
                  static_cast<int64_t>(events));
  sq.can_pop.notify_one();
  return Status::OK();
}

uint64_t EventBus::EventsIn(const BusMessage& msg) {
  switch (msg.kind) {
    case BusMessage::Kind::kEventBatch:
      return msg.events.size();
    case BusMessage::Kind::kTask:
      return 0;
    default:
      return 1;
  }
}

void EventBus::ConsumerLoop(int k) {
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  static const bool registered =
      fault::Registry::Global().RegisterPoint("fleet.bus.consumer.run");
  (void)registered;
  for (;;) {
    // Fault point BEFORE the pop (manual — this function returns void):
    // kFail kills the consumer thread with its queue intact and nothing
    // mid-apply (crash containment; the watchdog restarts it), kDelay
    // wedges it (stall detection), kCrash hard-kills the process.
    if (fault::Registry::Armed()) {
      Status injected = fault::Registry::Global().Hit("fleet.bus.consumer.run");
      if (!injected.ok()) {
        sq.consumer_alive.store(false, std::memory_order_release);
        return;
      }
    }
    BusMessage msg;
    {
      std::unique_lock<std::mutex> lock(sq.mu);
      sq.can_pop.wait(lock, [&] {
        return !sq.q.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (sq.q.empty()) {  // stopping and fully drained
        sq.consumer_alive.store(false, std::memory_order_release);
        return;
      }
      msg = std::move(sq.q.front());
      sq.q.pop_front();
      sq.applying = true;
    }
    sq.can_push.notify_one();
    Status st = ApplyTimed(k, msg);
    if (!st.ok()) RecordApplyError(k, st);
    sq.applied.fetch_add(1, std::memory_order_relaxed);
    sq.applied_events.fetch_add(EventsIn(msg), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(sq.mu);
      sq.applying = false;
      if (sq.q.empty()) sq.drained.notify_all();
    }
  }
}

Status EventBus::Apply(int k, BusMessage& msg) {
  // Expose the message's trace to the engine for the duration of the
  // apply: ServingEngine / DeploymentSession stamp apply/inspect stages
  // through obs::CurrentTrace() instead of threading a parameter through
  // every serving signature. (Tasks carry their caller's trace inside the
  // wrapper closure, never on the message — see RunOnShard.)
  obs::ScopedCurrentTrace current(msg.trace.active() ? &msg.trace : nullptr);
  core::ServingEngine& engine = fleet_->shard(k);
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  switch (msg.kind) {
    case BusMessage::Kind::kAddHome:
      return engine.TryAddHome(msg.home, msg.rules).status();
    case BusMessage::Kind::kAddRule:
      return engine.TryAddRule(msg.home, msg.rule);
    case BusMessage::Kind::kRemoveRule:
      return engine.TryRemoveRule(msg.home, msg.rule_id);
    case BusMessage::Kind::kEventBatch: {
      // Events apply in vector order with one engine call — the batch is
      // the home's FIFO segment. A refused event (non-finite time) is
      // skipped and the rest go on; a failed WAL append stops the batch
      // there (TryOnEvents). The first failure is the message's apply
      // outcome, counted once by the caller.
      // Exactly-once apply over an at-least-once transport: sequenced
      // batches (seq = first event's number, rest consecutive) skip the
      // prefix at or below the home's high-water mark — events applied
      // before the client's reconnect replayed them. The mark moves to
      // the end of what applied, which is a prefix of the batch: nothing
      // after a failed append took effect, so a retransmit applies
      // exactly that tail. (A refused event inside the prefix is passed
      // too; its retransmit would be refused again.)
      size_t skip = 0;
      uint64_t* hw = nullptr;
      if (msg.seq != 0) {
        hw = &sq.last_seq[msg.home];
        if (*hw >= msg.seq) {
          skip = static_cast<size_t>(
              std::min<uint64_t>(msg.events.size(), *hw - msg.seq + 1));
          dedup_dropped_.fetch_add(skip, std::memory_order_relaxed);
          GLINT_OBS_COUNT("glint.fleet.bus.dedup_dropped",
                          static_cast<int64_t>(skip));
        }
      }
      size_t applied_end = 0;
      Status st = engine.TryOnEvents(msg.home, msg.events.data() + skip,
                                     msg.events.size() - skip, &applied_end);
      if (applied_end > 0 && hw != nullptr) {
        *hw = msg.seq + skip + applied_end - 1;
      }
      return st;
    }
    case BusMessage::Kind::kTask:
      msg.task();
      return Status::OK();
  }
  return Status::Internal("unreachable bus message kind");
}

Status EventBus::ApplyTimed(int k, BusMessage& msg) {
  obs::TraceContext* trace = msg.trace.active() ? &msg.trace : nullptr;
  if (trace == nullptr && msg.enqueue_ns == 0) {
    return Apply(k, msg);  // untraced, unsampled: zero timing overhead
  }
  const uint64_t pop_ns = obs::NowNs();
  if (trace != nullptr) trace->MarkAt(obs::TraceStage::kQueueWait, pop_ns);
  if (msg.enqueue_ns != 0 && pop_ns > msg.enqueue_ns) {
    const double wait_ms = double(pop_ns - msg.enqueue_ns) * 1e-6;
    GLINT_OBS_OBSERVE("glint.fleet.bus.queue_wait_ms", wait_ms);
    // Overload detection sees the same sampled queue waits the histogram
    // does (1 in 2^timing_sample_shift — set the shift to 0 for every
    // message when determinism matters more than consumer overhead).
    queues_[static_cast<size_t>(k)]->detector->Observe(wait_ms);
  }
  Status st = Apply(k, msg);
  // Post-apply the context may only be touched when the MESSAGE owns it.
  // A task's trace reverts to its RunOnShard caller the instant the task
  // body signals the done latch (inside Apply), so writing through it
  // here would race the caller's encode/reply marks — or worse, a
  // successor request reusing the same stack slot. The task wrapper in
  // RunOnShard applies the equivalent fallback before signalling.
  if (msg.trace.active() &&
      msg.trace.StageNs(obs::TraceStage::kApply) == 0 &&
      msg.trace.StageNs(obs::TraceStage::kInspect) == 0) {
    // Fallback for mutations whose apply path has no engine-side stamp
    // (AddHome/AddRule/RemoveRule): charge the whole apply here.
    msg.trace.Mark(obs::TraceStage::kApply);
  }
  // The stamp is control (overload detection) and is taken with telemetry
  // off too; this extra clock read only feeds a histogram, so it honours
  // the switch.
  if (msg.enqueue_ns != 0 && obs::Enabled()) {
    GLINT_OBS_OBSERVE("glint.fleet.bus.apply_ms",
                      double(obs::NowNs() - pop_ns) * 1e-6);
  }
  // A mutation's trace ends here — the ack went out at enqueue, so apply
  // is the last stage the request passes through. Task traces stay owned
  // by the blocked RunOnShard caller, who finishes them after the reply
  // is sent.
  if (msg.trace.active() && config_.recorder != nullptr) {
    config_.recorder->Finish(msg.trace);
  }
  return st;
}

Status EventBus::RunOnShard(int k, std::function<void()> fn,
                            obs::TraceContext* trace) {
  GLINT_CHECK(k >= 0 && k < static_cast<int>(queues_.size()));
  GLINT_CHECK(fn != nullptr);
  if (config_.manual_drain) {
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("event bus is stopped");
    }
    DrainOnce(k);
    obs::ScopedCurrentTrace current(trace);
    fn();
    if (trace != nullptr &&
        trace->StageNs(obs::TraceStage::kApply) == 0 &&
        trace->StageNs(obs::TraceStage::kInspect) == 0) {
      trace->Mark(obs::TraceStage::kInspect);
    }
    return Status::OK();
  }
  struct Done {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool started = false;    ///< wrapper committed to running fn
    bool abandoned = false;  ///< caller timed out before start
  };
  // Shared, not stack-referenced: the consumer finishes with the task
  // strictly after signalling, by which time this frame may be gone.
  auto done = std::make_shared<Done>();
  BusMessage msg;
  msg.kind = BusMessage::Kind::kTask;
  msg.task = [fn = std::move(fn), trace, done] {
    {
      // started/abandoned handshake: exactly one side wins under done->mu.
      // An abandoned task must not touch fn's captures or the trace — the
      // caller returned long ago and both may reference its dead frame.
      std::lock_guard<std::mutex> lock(done->mu);
      if (done->abandoned) return;
      done->started = true;
    }
    // The caller blocks until the done latch, so its trace is safely ours
    // between here and the signal.
    if (trace != nullptr) trace->Mark(obs::TraceStage::kQueueWait);
    obs::ScopedCurrentTrace current(trace);
    fn();
    if (trace != nullptr &&
        trace->StageNs(obs::TraceStage::kApply) == 0 &&
        trace->StageNs(obs::TraceStage::kInspect) == 0) {
      // Fallback for task bodies with no engine-side stamp (a failed
      // inspect bails before the session marks): charge the work to
      // inspect — tasks are the read path. This MUST precede the latch:
      // once it is signalled the caller owns the context again.
      trace->Mark(obs::TraceStage::kInspect);
    }
    {
      std::lock_guard<std::mutex> lock(done->mu);
      done->done = true;
    }
    done->cv.notify_all();
  };
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  {
    // No capacity check: tasks are control-plane, bounded by the callers
    // blocked right here — never by queue depth, which would let a full
    // queue under kReject starve reads. Same push/Stop discipline as
    // Post: re-check stopping_ under sq.mu so a task never strands (and
    // deadlocks its caller) behind an exiting consumer.
    std::lock_guard<std::mutex> lock(sq.mu);
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("event bus is stopped");
    }
    if (trace != nullptr) {
      // Safe to stamp the caller-owned context here: the consumer cannot
      // pop the task until we release sq.mu, and we block on the latch
      // below until the consumer is done touching it.
      trace->Mark(obs::TraceStage::kEnqueue);
    }
    sq.q.push_back(std::move(msg));
    sq.high_water = std::max(sq.high_water, sq.q.size());
  }
  sq.can_pop.notify_one();
  std::unique_lock<std::mutex> lock(done->mu);
  if (!done->cv.wait_for(lock, std::chrono::milliseconds(kTaskTimeoutMs),
                         [&] { return done->done || done->started; })) {
    // Never started: the consumer is dead or wedged. Abandon the task —
    // the wrapper (if it ever pops) sees the flag and touches nothing.
    done->abandoned = true;
    GLINT_OBS_COUNT("glint.fleet.bus.task_timeouts", 1);
    return Status::Overloaded("shard " + std::to_string(k) +
                              " task not started after " +
                              std::to_string(kTaskTimeoutMs) + "ms");
  }
  // Started tasks are always waited out: fn may reference this frame, so
  // returning before done would be a use-after-return, not a timeout.
  done->cv.wait(lock, [&] { return done->done; });
  return Status::OK();
}

void EventBus::RecordApplyError(int k, const Status& st) {
  apply_errors_.fetch_add(1, std::memory_order_relaxed);
  GLINT_OBS_COUNT("glint.fleet.bus.apply_errors", 1);
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  std::lock_guard<std::mutex> lock(sq.mu);
  if (sq.first_error.ok()) sq.first_error = st;
}

void EventBus::FlushShard(int k) {
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  if (config_.manual_drain) {
    DrainOnce(k);
    return;
  }
  std::unique_lock<std::mutex> lock(sq.mu);
  sq.drained.wait(lock, [&] { return sq.q.empty() && !sq.applying; });
}

void EventBus::Flush() {
  for (int k = 0; k < fleet_->num_shards(); ++k) FlushShard(k);
}

void EventBus::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Already stopping/stopped; joins below have happened or are racing in
    // the thread that won — nothing to do for idempotence.
    return;
  }
  // Watchdog FIRST: RestartConsumer join/reassigns consumers_ slots, so
  // the consumer joins below must not race it. It exits within one 10ms
  // sleep slice of stopping_ going true.
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> lock(q->mu);
    q->can_pop.notify_all();
    q->can_push.notify_all();
  }
  for (auto& t : consumers_) {
    if (t.joinable()) t.join();
  }
  // Consumers exit only when their queue is empty, and every push
  // re-checks stopping_ under the queue lock (the lock a consumer's exit
  // decision is made under), so everything accepted before Stop() has
  // been applied — an OK Post is never silently dropped. The exception is
  // a consumer that DIED (injected crash, watchdog off or too late):
  // its queue is parked with accepted messages. Drain those inline —
  // single-threaded now, so applying here is race-free — to keep the
  // accepted ⇒ applied invariant even across consumer death.
  for (int k = 0; k < static_cast<int>(queues_.size()); ++k) {
    bool leftover;
    {
      std::lock_guard<std::mutex> lock(queues_[static_cast<size_t>(k)]->mu);
      leftover = !queues_[static_cast<size_t>(k)]->q.empty();
    }
    if (leftover) DrainQueue(k, SIZE_MAX);
  }
}

size_t EventBus::DrainOnce(int k, size_t max) {
  GLINT_CHECK(config_.manual_drain);
  return DrainQueue(k, max);
}

size_t EventBus::DrainQueue(int k, size_t max) {
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  size_t applied = 0;
  while (applied < max) {
    BusMessage msg;
    {
      std::lock_guard<std::mutex> lock(sq.mu);
      if (sq.q.empty()) break;
      msg = std::move(sq.q.front());
      sq.q.pop_front();
    }
    sq.can_push.notify_one();
    Status st = ApplyTimed(k, msg);
    if (!st.ok()) RecordApplyError(k, st);
    sq.applied.fetch_add(1, std::memory_order_relaxed);
    sq.applied_events.fetch_add(EventsIn(msg), std::memory_order_relaxed);
    ++applied;
  }
  return applied;
}

// ---- Supervision (DESIGN.md §16) ----------------------------------------

void EventBus::WatchdogLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const uint64_t now_ns = obs::NowNs();
    for (int k = 0; k < static_cast<int>(queues_.size()); ++k) {
      WatchdogTick(k, now_ns);
    }
    // Sliced sleep so Stop() never waits a full interval for the join.
    int left = config_.watchdog_interval_ms;
    while (left > 0 && !stopping_.load(std::memory_order_acquire)) {
      const int slice = std::min(left, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      left -= slice;
    }
  }
}

void EventBus::WatchdogTick(int k, uint64_t now_ns) {
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  // Dead consumer: the loop returned (injected fault, uncaught crash
  // containment). Restart it — never during shutdown: a normal
  // stop-drained exit also clears consumer_alive.
  if (!sq.consumer_alive.load(std::memory_order_acquire)) {
    if (!stopping_.load(std::memory_order_acquire)) RestartConsumer(k);
    return;
  }
  size_t depth;
  bool applying;
  {
    std::lock_guard<std::mutex> lock(sq.mu);
    depth = sq.q.size();
    applying = sq.applying;
  }
  const uint64_t applied_now = sq.applied.load(std::memory_order_relaxed);
  // Wedge detection: a non-empty queue whose applied counter has not moved
  // for wedge_timeout_ms means the consumer is stuck mid-apply (or in an
  // injected delay). We cannot kill a wedged thread safely; mark the shard
  // kDown so dispatch sheds around it, and heal if progress resumes.
  if (depth > 0 && applied_now == sq.wd_last_applied) {
    if (sq.wd_stall_since_ns == 0) {
      sq.wd_stall_since_ns = now_ns;
    } else if (now_ns - sq.wd_stall_since_ns >
               uint64_t(config_.wedge_timeout_ms) * 1000000ull) {
      if (!sq.wd_wedged) {
        sq.wd_wedged = true;
        GLINT_OBS_COUNT("glint.fleet.bus.wedges", 1);
      }
      sq.health.store(static_cast<uint8_t>(ShardHealth::kDown),
                      std::memory_order_release);
      return;  // wedged dominates every other health signal
    }
  } else {
    sq.wd_stall_since_ns = 0;
    sq.wd_last_applied = applied_now;
    if (sq.wd_wedged) {
      sq.wd_wedged = false;
      sq.detector->Reset();  // waits measured across the wedge are stale
      sq.health.store(static_cast<uint8_t>(ShardHealth::kHealthy),
                      std::memory_order_release);
    }
  }
  if (sq.wd_wedged) return;
  const auto h = static_cast<ShardHealth>(
      sq.health.load(std::memory_order_acquire));
  if (h == ShardHealth::kRecovering) {
    // A restarted shard is recovering until its replayed queue drains.
    if (depth == 0) {
      sq.detector->Reset();
      sq.health.store(static_cast<uint8_t>(ShardHealth::kHealthy),
                      std::memory_order_release);
    }
    return;
  }
  const bool depth_overloaded =
      depth >= static_cast<size_t>(double(config_.capacity) *
                                   kOverloadDepthFrac);
  // Idle = drained AND not mid-apply: while a degraded shard sheds ingest
  // it measures no new waits, so a drained queue is the only calm evidence
  // left — but an empty queue behind a long-running apply is NOT calm.
  sq.detector->Tick(depth_overloaded, depth == 0 && !applying);
  sq.health.store(static_cast<uint8_t>(sq.detector->overloaded()
                                           ? ShardHealth::kDegraded
                                           : ShardHealth::kHealthy),
                  std::memory_order_release);
}

void EventBus::RestartConsumer(int k) {
  ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  sq.health.store(static_cast<uint8_t>(ShardHealth::kRecovering),
                  std::memory_order_release);
  sq.restarts.fetch_add(1, std::memory_order_relaxed);
  GLINT_OBS_COUNT("glint.fleet.bus.consumer_restarts", 1);
  // The dead thread's loop has returned; join reclaims the slot for the
  // replacement. Safe vs Stop(): Stop joins the watchdog (us) before it
  // touches consumers_.
  auto& slot = consumers_[static_cast<size_t>(k)];
  if (slot.joinable()) slot.join();
  // The consumer died between messages (the injected fault fires before
  // the pop), so nothing was mid-apply — but the restart contract assumes
  // nothing about why it died: rebuild the engine from its WAL, which
  // proves exactly what applied.
  Status st = fleet_->RestartShard(k);
  if (!st.ok()) {
    // Fresh EMPTY engine was installed; never serve it. The shard stays
    // kDown with no consumer; Stop() drains its parked queue (applies
    // will fail and be counted, not crash).
    RecordApplyError(k, st);
    sq.health.store(static_cast<uint8_t>(ShardHealth::kDown),
                    std::memory_order_release);
    return;
  }
  // The parked queue re-applies on the fresh consumer (kTask messages
  // too — their callers are blocked on completion latches); the
  // WAL-backed engine plus per-home seq dedup (last_seq survives the
  // restart) makes that exactly-once.
  sq.wd_last_applied = sq.applied.load(std::memory_order_relaxed);
  sq.wd_stall_since_ns = 0;
  sq.wd_wedged = false;
  sq.consumer_alive.store(true, std::memory_order_release);
  consumers_[static_cast<size_t>(k)] =
      std::thread([this, k] { ConsumerLoop(k); });
}

size_t EventBus::queue_high_water(int k) const {
  const ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  std::lock_guard<std::mutex> lock(sq.mu);
  return sq.high_water;
}

size_t EventBus::queue_depth(int k) const {
  const ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  std::lock_guard<std::mutex> lock(sq.mu);
  return sq.q.size();
}

uint64_t EventBus::applied(int k) const {
  return queues_[static_cast<size_t>(k)]->applied.load(
      std::memory_order_relaxed);
}

uint64_t EventBus::applied_events(int k) const {
  return queues_[static_cast<size_t>(k)]->applied_events.load(
      std::memory_order_relaxed);
}

uint64_t EventBus::posted() const {
  return posted_.load(std::memory_order_relaxed);
}

uint64_t EventBus::posted_events() const {
  return posted_events_.load(std::memory_order_relaxed);
}

uint64_t EventBus::rejected() const {
  return rejected_.load(std::memory_order_relaxed);
}

uint64_t EventBus::apply_errors() const {
  return apply_errors_.load(std::memory_order_relaxed);
}

Status EventBus::FirstError(int k) const {
  const ShardQueue& sq = *queues_[static_cast<size_t>(k)];
  std::lock_guard<std::mutex> lock(sq.mu);
  return sq.first_error;
}

ShardHealth EventBus::health(int k) const {
  return static_cast<ShardHealth>(
      queues_[static_cast<size_t>(k)]->health.load(std::memory_order_acquire));
}

void EventBus::NoteOverloadShed(int k) {
  queues_[static_cast<size_t>(k)]->overload_shed.fetch_add(
      1, std::memory_order_relaxed);
  GLINT_OBS_COUNT("glint.fleet.bus.overload_shed", 1);
}

void EventBus::NoteDeadlineShed(int k) {
  queues_[static_cast<size_t>(k)]->deadline_shed.fetch_add(
      1, std::memory_order_relaxed);
  GLINT_OBS_COUNT("glint.fleet.bus.deadline_shed", 1);
}

uint64_t EventBus::overload_shed(int k) const {
  return queues_[static_cast<size_t>(k)]->overload_shed.load(
      std::memory_order_relaxed);
}

uint64_t EventBus::deadline_shed(int k) const {
  return queues_[static_cast<size_t>(k)]->deadline_shed.load(
      std::memory_order_relaxed);
}

uint64_t EventBus::restarts(int k) const {
  return queues_[static_cast<size_t>(k)]->restarts.load(
      std::memory_order_relaxed);
}

uint64_t EventBus::dedup_dropped() const {
  return dedup_dropped_.load(std::memory_order_relaxed);
}

}  // namespace glint::fleet
