#pragma once

// Shared helpers of the benchmark driver: clocks, sample summaries, the
// metric report, and process accounting from /proc.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency samples with the percentile rule of the benchmark: a p99 is
/// reported only when at least ten samples lie beyond it.
struct Samples {
  std::vector<double> v;

  void Add(double x) { v.push_back(x); }
  size_t count() const { return v.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Pct(double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
  }
  double Mean() const {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  }
  bool TailValid(double q) const {
    return static_cast<double>(v.size()) * (1 - q) >= 10;
  }
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< 0 = not a sampled quantity
  bool valid = true;     ///< false: too few samples, or a late generator
};

/// Metrics in report order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, bool valid = true) {
    if (!index_.count(name)) {
      index_[name] = order_.size();
      order_.push_back(name);
      metrics_.emplace_back();
    }
    metrics_[index_[name]] = Metric{value, unit, samples, valid};
  }
  const Metric& Get(const std::string& name) const {
    return metrics_[index_.at(name)];
  }
  const std::vector<std::string>& names() const { return order_; }

  /// One "metric <name> = <value> <unit> (n=...)" line per metric.
  void Print(const char* prefix) const;

 private:
  std::vector<std::string> order_;
  std::vector<Metric> metrics_;
  std::map<std::string, size_t> index_;
};

/// CPU time (user+system, all threads) of a live process in seconds, from
/// its process CPU clock; -1 on error.
double ProcCpuSeconds(int pid);
/// Peak resident set (VmHWM) of a process in MB; -1 on error.
double ProcPeakRssMb(int pid);
/// Host-wide CPU time in clock ticks (/proc/stat): time stolen by the
/// hypervisor, and the total over all states.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();
/// CPU seconds (user+system) consumed by this process so far.
double SelfCpuSeconds();

/// Formats a double with all its digits for JSON.
std::string JsonNum(double v);

}  // namespace perfbench
