#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace glint::obs {

/// Shards per instrument: hot-path increments from different threads land on
/// different cache lines, so a Counter::Add is one relaxed fetch_add with no
/// sharing. Must be a power of two (shard pick is a mask).
constexpr uint32_t kShards = 8;

/// Stable per-thread shard index in [0, kShards).
uint32_t ShardIndex();

/// True unless observability is switched off — by the GLINT_OBS=off (or =0)
/// environment variable or by SetEnabled(false). Instruments check this
/// internally, so a disabled process pays one predictable branch per call
/// and never reads the clock for telemetry. The one exception is control,
/// not telemetry: the event bus's sampled queue-wait stamps feed its
/// overload detector and are read regardless of the switch.
bool Enabled();
/// Runtime override (benches toggle it to measure their own overhead).
void SetEnabled(bool on);

/// Monotonic nanoseconds since an arbitrary process-local epoch.
uint64_t NowNs();

/// Monotonic event counter (cache hits, events ingested, ...). Wait-free:
/// Add is a single relaxed fetch_add on the calling thread's shard.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!Enabled()) return;
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum over shards. Exact once concurrent writers have quiesced; a
  /// point-in-time read during writes may miss in-flight increments but
  /// never double-counts.
  uint64_t Value() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-write-wins instantaneous value (queue depth, pool size). Also keeps
/// the high-water mark it has seen.
class Gauge {
 public:
  void Set(int64_t v);
  /// Delta update (e.g. +1 on enqueue, -1 on dequeue); maintains the peak.
  void Add(int64_t d);
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  int64_t Peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  void RaisePeak(int64_t candidate);
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> peak_{0};
};

/// Fixed-bucket histogram. Bounds are inclusive upper edges of each bucket
/// (bucket i holds x <= bounds[i], first unmatched); one implicit overflow
/// bucket catches the rest. Storage is sharded like Counter, so Observe is
/// wait-free: a bucket search over ~20 doubles plus two relaxed atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t Count() const;
  double Sum() const;
  /// Merged per-bucket counts (bounds_.size() + 1 entries, last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  /// Quantile estimate: linear interpolation inside the covering bucket.
  /// Error is bounded by that bucket's width (see Snapshot::Hist::Quantile).
  double Quantile(double q) const;

  /// Default latency bucket ladder (milliseconds): 1us .. 10s, roughly
  /// 1-2.5-5 per decade. Wide enough for the no-change Inspect fast path
  /// (~10us) and a cold offline build (seconds) alike.
  static std::vector<double> LatencyBucketsMs();

 private:
  struct Shard {
    explicit Shard(size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<uint64_t>> counts;
    alignas(64) std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII wall-time recorder: measures the enclosing scope and feeds the
/// histogram on destruction. With observability disabled the constructor is
/// a single branch — no clock read, no record.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) {
    if (Enabled() && h != nullptr) {
      hist_ = h;
      start_ns_ = NowNs();
    }
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Observe(double(NowNs() - start_ns_) * 1e-6);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;
  uint64_t start_ns_ = 0;
};

/// Process-wide instrument registry. Names follow the
/// `glint.<subsystem>.<name>` convention (DESIGN.md §9); histogram names end
/// in a unit suffix (`_ms`). Registration is idempotent per (name, kind):
/// repeated lookups return the same instrument. Registering an existing name
/// as a *different* kind (or a histogram with conflicting bounds) is a
/// programmer error and aborts via GLINT_CHECK — two subsystems silently
/// sharing one name would corrupt both series.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every `glint.*` instrument lives in.
  /// Intentionally leaked so instruments outlive static destructors.
  static Registry& Global();

  /// Returned pointers are stable for the registry's lifetime; call sites
  /// cache them in function-local statics so the hot path skips the map.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Empty `bounds` means Histogram::LatencyBucketsMs().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// Immutable merged view of every instrument, safe to take while writers
  /// are running (counter semantics as in Counter::Value).
  struct Snapshot {
    struct Hist {
      uint64_t count = 0;
      double sum = 0;
      std::vector<double> bounds;
      std::vector<uint64_t> counts;  ///< bounds.size() + 1, last = overflow
      double Mean() const { return count ? sum / double(count) : 0.0; }
      double Quantile(double q) const;
    };
    std::map<std::string, uint64_t> counters;
    /// gauge -> {value, peak}.
    std::map<std::string, std::pair<int64_t, int64_t>> gauges;
    std::map<std::string, Hist> histograms;

    /// Multi-line human-readable rendering (the `--stats` periodic print).
    std::string RenderText() const;
    /// Single-line JSON object (no prefix): {"counters":{...},
    /// "gauges":{...},"histograms":{"name":{"count":..,"sum_ms":..,
    /// "mean":..,"p50":..,"p95":..,"p99":..}}}. Keys are sorted (std::map),
    /// so the line is byte-stable for a given set of values.
    std::string RenderJson() const;
  };
  Snapshot TakeSnapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace glint::obs
