#pragma once

// Fixed-capacity time series for periodic telemetry snapshots
// (DESIGN.md §14). A TimeSeries is a bounded ring of (t_ns, value)
// samples — once full, each push evicts the oldest sample, so memory is
// capacity-bounded no matter how long a server runs. A TimeSeriesSet
// names a collection of series (per-shard queue depth, events/sec, stage
// quantiles, ...) and renders them as one JSON object for the
// kStatsJson wire reply / dashboards.
//
// Sampling is periodic (~1 Hz from the FleetServer sampler), so plain
// mutexes are fine here — this layer is deliberately simple, unlike the
// wait-free instruments feeding it.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace glint::obs {

class TimeSeries {
 public:
  struct Sample {
    uint64_t t_ns = 0;  ///< NowNs() stamp
    double v = 0;
  };

  explicit TimeSeries(size_t capacity);

  void Push(uint64_t t_ns, double v);
  /// Samples oldest → newest.
  std::vector<Sample> Snapshot() const;
  /// Most recent sample ({0, 0} when empty).
  Sample Latest() const;
  /// Samples held. Kept for the tests: they check ring eviction.
  size_t size() const;
  size_t capacity() const { return ring_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<Sample> ring_;
  size_t next_ = 0;  ///< slot the next push writes
  size_t size_ = 0;
};

class TimeSeriesSet {
 public:
  explicit TimeSeriesSet(size_t capacity_per_series = 128);

  /// Creates the series on first use; returned pointer is stable for the
  /// set's lifetime.
  TimeSeries* Get(const std::string& name);
  /// Convenience: Get(name)->Push(t_ns, v).
  void Push(const std::string& name, uint64_t t_ns, double v);

  /// Every series name. Kept for the tests: they check registration.
  std::vector<std::string> Names() const;

  /// {"name":[[t_ms,v],...],...} — t_ms is the sample's NowNs stamp in
  /// milliseconds (process-local epoch), values with 4 decimals. Keys are
  /// sorted, so the rendering is stable for fixed contents.
  std::string RenderJson() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

}  // namespace glint::obs
