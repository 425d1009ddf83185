#pragma once

// Request-scoped tracing for the fleet serving path (DESIGN.md §14).
//
// A TraceContext is a small value type allocated per wire frame: a u64
// trace id plus monotonic stage stamps. It rides by value through
// EventBus messages (mutations) or by pointer through RunOnShard
// closures (reads), accumulating a fixed-stage latency decomposition
//
//   accept → decode → enqueue → queue-wait → apply/inspect → encode → reply
//
// Mark(stage) charges the wall time since the previous mark to `stage`,
// so the stage durations partition the request's lifetime: they are each
// non-negative and their sum never exceeds end-to-end wall time. Stages a
// request type does not pass through stay zero (an inspect has no apply;
// a mutation is acknowledged on enqueue, so its encode/reply are charged
// to the connection thread's clock only if it still owns the context).
//
// Completed traces are fed to a TraceRecorder: per-shard stage
// histograms in the global Registry (named
// `<prefix>.shard<K>.<stage>_ms`, plus a `.server.` bucket for requests
// that touch no single shard), and a lock-free per-shard SlowTraceRing
// capturing recent traces whose total exceeds a configurable threshold.
//
// Cross-thread handoff relies on the existing bus discipline: a context
// is only ever written by one thread at a time, with the handoffs
// (queue push/pop, RunOnShard completion latch) providing the
// happens-before edges. The SlowTraceRing is the only concurrently
// written structure and is a per-slot seqlock over relaxed atomic words
// — wait-free readers, lock-free writers, TSAN-clean by construction.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace glint::obs {

/// Fixed stage taxonomy of a fleet wire request. Values index
/// TraceContext::stage_ns; keep TraceStageName() in sync.
enum class TraceStage : uint8_t {
  kAccept = 0,     ///< reading the frame off the socket (post-arrival)
  kDecode = 1,     ///< frame → Request codec
  kEnqueue = 2,    ///< shard routing + bus push (includes kBlock waits)
  kQueueWait = 3,  ///< sitting in the shard queue before its consumer pops
  kApply = 4,      ///< engine mutation on the shard consumer thread
  kInspect = 5,    ///< engine inspect (reads; mutations leave this 0)
  kEncode = 6,     ///< Reply → frame codec (plus dispatch residue)
  kReply = 7,      ///< writing the reply frame to the socket
};
constexpr int kNumTraceStages = 8;

/// Stable short name ("accept", "queue_wait", ...); string literal.
const char* TraceStageName(TraceStage s);

/// Per-request trace state. Plain value: copying is cheap and moving it
/// into a BusMessage transfers ownership of the id (the source must be
/// reset so exactly one copy is ever finished).
struct TraceContext {
  uint64_t id = 0;       ///< 0 = inactive (tracing off / moved-from)
  uint64_t born_ns = 0;  ///< arrival stamp (NowNs clock)
  uint64_t mark_ns = 0;  ///< end of the last marked stage
  uint64_t stage_ns[kNumTraceStages] = {};
  int32_t shard = -1;    ///< owning shard; -1 = not shard-addressed
  uint8_t msg_type = 0;  ///< wire MsgType byte
  /// Events this trace spans. One trace covers a whole kEventBatch frame
  /// (the per-frame trace cost is part of what batching amortizes);
  /// stage_ns[s] / events is the per-event attribution of stage `s`.
  uint32_t events = 1;

  bool active() const { return id != 0; }

  /// Allocates a fresh trace id stamped at `born_ns` (NowNs() when 0).
  /// Inactive when observability is disabled.
  static TraceContext Begin(uint64_t born_ns = 0);

  /// Charges NowNs() - mark_ns to `s` and advances the mark. No-op when
  /// inactive, so call sites need no branches of their own.
  void Mark(TraceStage s) {
    if (active()) MarkAt(s, NowNs());
  }
  /// Mark against a caller-provided stamp (shares one clock read across
  /// several contexts). Clamps to 0 if `now_ns` precedes the mark.
  void MarkAt(TraceStage s, uint64_t now_ns) {
    if (!active()) return;
    if (now_ns > mark_ns) {
      stage_ns[static_cast<int>(s)] += now_ns - mark_ns;
      mark_ns = now_ns;
    }
  }
  uint64_t StageNs(TraceStage s) const {
    return stage_ns[static_cast<int>(s)];
  }
  /// Sum of all stage durations (≤ end-to-end wall time). Kept for the
  /// tests: they check the stages add up.
  uint64_t SumNs() const;
};

/// The calling thread's in-flight trace, if any. The bus consumer points
/// this at the message's context around Apply so core serving code
/// (ServingEngine / DeploymentSession) can stamp apply/inspect stages
/// without threading a parameter through every signature.
TraceContext* CurrentTrace();

/// RAII setter for CurrentTrace (restores the previous value, so nested
/// scopes compose).
class ScopedCurrentTrace {
 public:
  explicit ScopedCurrentTrace(TraceContext* t);
  ~ScopedCurrentTrace();
  ScopedCurrentTrace(const ScopedCurrentTrace&) = delete;
  ScopedCurrentTrace& operator=(const ScopedCurrentTrace&) = delete;

 private:
  TraceContext* prev_;
};

/// A finished trace as captured by the slow-request ring.
struct CompletedTrace {
  uint64_t id = 0;
  uint64_t born_ns = 0;
  uint64_t total_ns = 0;  ///< born → finish wall time
  uint64_t stage_ns[kNumTraceStages] = {};
  int32_t shard = -1;
  uint8_t msg_type = 0;
  uint32_t events = 1;  ///< events the trace spans (batch size)
};

/// Fixed-capacity lock-free ring of recent CompletedTraces. Writers
/// claim a ticket and publish into slot (ticket % capacity) under a
/// per-slot sequence lock; readers copy the slot's relaxed-atomic words
/// and validate the sequence, so a torn read is detected and skipped,
/// never returned. Readers are wait-free; a writer only waits (bounded,
/// then drops the record) if a lapping writer stalled mid-publish.
class SlowTraceRing {
 public:
  explicit SlowTraceRing(size_t capacity);

  void Record(const CompletedTrace& t);
  /// Consistent copies of the most recent records, oldest → newest.
  std::vector<CompletedTrace> Snapshot() const;

  size_t capacity() const { return slots_.size(); }
  /// Traces ever recorded. Kept for the tests: it counts ring overwrites.
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  /// CompletedTrace packed into relaxed-atomic words (id, born, total,
  /// 8 stages, events|shard|type packed into one tail word) so seqlock
  /// readers never touch a non-atomic field mid-write.
  static constexpr size_t kWords = 3 + kNumTraceStages + 1;
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};  ///< 2n+1 = writing gen n, 2n+2 = done
    std::atomic<uint64_t> w[kWords] = {};
  };
  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// Sink for finished traces: per-shard stage histograms registered in the
/// global Registry plus per-shard slow-request rings. One recorder per
/// FleetServer; shard index num_shards (the "server" bucket) catches
/// requests that touch no single shard (ping, stats).
class TraceRecorder {
 public:
  struct Config {
    /// Instrument name prefix; histograms register as
    /// `<prefix>.shard<K>.<stage>_ms` / `<prefix>.server.<stage>_ms`.
    std::string prefix = "glint.fleet.trace";
    int num_shards = 1;
    /// Traces at or above this total land in the slow ring. 0 captures
    /// everything (tests).
    uint64_t slow_threshold_ns = 10'000'000;  // 10 ms
    /// Per-shard slow ring capacity.
    size_t ring_capacity = 256;
  };

  explicit TraceRecorder(Config config);

  /// Records a completed context (no-op if inactive): bumps the
  /// completed counter, feeds each nonzero stage into the shard's stage
  /// histogram, and captures the trace in the slow ring when total wall
  /// time (birth → last mark; mark the final stage before calling)
  /// reaches the threshold. Thread-safe.
  void Finish(const TraceContext& ctx);

  int num_shards() const { return config_.num_shards; }
  /// `shard` in [0, num_shards]; num_shards = the server bucket.
  Histogram* stage_hist(int shard, TraceStage s) const;
  /// Kept for the tests: they read back the traces that were kept as slow.
  const SlowTraceRing& slow_ring(int shard) const;

  /// Most recent slow traces across every shard, newest first, at most
  /// `max` entries.
  std::vector<CompletedTrace> SlowTraces(size_t max) const;

  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t slow() const { return slow_.load(std::memory_order_relaxed); }
  const Config& config() const { return config_; }

 private:
  int Bucket(int32_t shard) const;

  Config config_;
  /// [bucket][stage] → registry-owned histogram (stable pointers).
  std::vector<std::vector<Histogram*>> hists_;
  std::vector<std::unique_ptr<SlowTraceRing>> rings_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> slow_{0};
};

}  // namespace glint::obs
