#include "obs/registry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace glint::obs {

uint32_t ShardIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t idx =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return idx;
}

namespace {
std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> on{[] {
    const char* env = std::getenv("GLINT_OBS");
    return !(env != nullptr &&
             (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0));
  }()};
  return on;
}
}  // namespace

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }
void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- Counter --------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

// ---- Gauge ----------------------------------------------------------------

void Gauge::RaisePeak(int64_t candidate) {
  int64_t cur = peak_.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !peak_.compare_exchange_weak(cur, candidate,
                                      std::memory_order_relaxed)) {
  }
}

void Gauge::Set(int64_t v) {
  if (!Enabled()) return;
  v_.store(v, std::memory_order_relaxed);
  RaisePeak(v);
}

void Gauge::Add(int64_t d) {
  if (!Enabled()) return;
  RaisePeak(v_.fetch_add(d, std::memory_order_relaxed) + d);
}

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  GLINT_CHECK(!bounds_.empty());
  GLINT_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  shards_.reserve(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void Histogram::Observe(double x) {
  if (!Enabled()) return;
  // lower_bound, not upper_bound: bounds are *inclusive* upper edges, so an
  // observation exactly on an edge belongs to the bucket it closes.
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  Shard& sh = *shards_[ShardIndex()];
  sh.counts[b].fetch_add(1, std::memory_order_relaxed);
  sh.count.fetch_add(1, std::memory_order_relaxed);
  double cur = sh.sum.load(std::memory_order_relaxed);
  while (!sh.sum.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0;
  for (const auto& s : shards_) {
    total += s->sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> merged(bounds_.size() + 1, 0);
  for (const auto& s : shards_) {
    for (size_t b = 0; b < merged.size(); ++b) {
      merged[b] += s->counts[b].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

double Histogram::Quantile(double q) const {
  Registry::Snapshot::Hist h;
  h.count = Count();
  h.sum = Sum();
  h.bounds = bounds_;
  h.counts = BucketCounts();
  return h.Quantile(q);
}

std::vector<double> Histogram::LatencyBucketsMs() {
  std::vector<double> bounds;
  // 1-2.5-5 ladder per decade, 1e-3 ms (1us) .. 1e4 ms (10s).
  for (double decade = 1e-3; decade < 1e4 * 0.5; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.5);
    bounds.push_back(decade * 5.0);
  }
  bounds.push_back(1e4);
  return bounds;
}

// ---- Registry -------------------------------------------------------------

Registry& Registry::Global() {
  static Registry* global = new Registry();
  return *global;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != Kind::kCounter) {
      std::fprintf(stderr, "obs: instrument name collision: '%s'\n",
                   name.c_str());
      GLINT_CHECK(it->second.kind == Kind::kCounter);
    }
    return it->second.counter.get();
  }
  Entry e;
  e.kind = Kind::kCounter;
  e.counter = std::make_unique<Counter>();
  Counter* out = e.counter.get();
  entries_.emplace(name, std::move(e));
  return out;
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != Kind::kGauge) {
      std::fprintf(stderr, "obs: instrument name collision: '%s'\n",
                   name.c_str());
      GLINT_CHECK(it->second.kind == Kind::kGauge);
    }
    return it->second.gauge.get();
  }
  Entry e;
  e.kind = Kind::kGauge;
  e.gauge = std::make_unique<Gauge>();
  Gauge* out = e.gauge.get();
  entries_.emplace(name, std::move(e));
  return out;
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds) {
  if (bounds.empty()) bounds = Histogram::LatencyBucketsMs();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    const bool same_kind = it->second.kind == Kind::kHistogram;
    if (!same_kind || it->second.histogram->bounds() != bounds) {
      std::fprintf(stderr, "obs: instrument name collision: '%s'\n",
                   name.c_str());
      GLINT_CHECK(same_kind && it->second.histogram->bounds() == bounds);
    }
    return it->second.histogram.get();
  }
  Entry e;
  e.kind = Kind::kHistogram;
  e.histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram* out = e.histogram.get();
  entries_.emplace(name, std::move(e));
  return out;
}

Registry::Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot snap;
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters[name] = e.counter->Value();
        break;
      case Kind::kGauge:
        snap.gauges[name] = {e.gauge->Value(), e.gauge->Peak()};
        break;
      case Kind::kHistogram: {
        Snapshot::Hist h;
        h.count = e.histogram->Count();
        h.sum = e.histogram->Sum();
        h.bounds = e.histogram->bounds();
        h.counts = e.histogram->BucketCounts();
        snap.histograms[name] = std::move(h);
        break;
      }
    }
  }
  return snap;
}

// ---- Snapshot rendering ---------------------------------------------------

double Registry::Snapshot::Hist::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * double(count);
  uint64_t cum = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    if (double(cum) + double(in_bucket) >= target) {
      // Interpolate inside [lower, upper). The overflow bucket has no upper
      // edge; report its lower edge (the estimate saturates there).
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      if (b >= bounds.size()) return lower;
      const double upper = bounds[b];
      const double into = std::max(0.0, target - double(cum));
      return lower + (upper - lower) * (into / double(in_bucket));
    }
    cum += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::string Registry::Snapshot::RenderText() const {
  std::string out;
  char buf[256];
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, v] : counters) {
      std::snprintf(buf, sizeof(buf), "  %-44s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(v));
      out += buf;
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, vp] : gauges) {
      std::snprintf(buf, sizeof(buf), "  %-44s %12lld  (peak %lld)\n",
                    name.c_str(), static_cast<long long>(vp.first),
                    static_cast<long long>(vp.second));
      out += buf;
    }
  }
  if (!histograms.empty()) {
    out += "histograms (ms):\n";
    for (const auto& [name, h] : histograms) {
      std::snprintf(buf, sizeof(buf),
                    "  %-44s count=%-8llu mean=%-9.4f p50=%-9.4f "
                    "p95=%-9.4f p99=%.4f\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    h.Mean(), h.Quantile(0.50), h.Quantile(0.95),
                    h.Quantile(0.99));
      out += buf;
    }
  }
  if (out.empty()) out = "(no instruments registered)\n";
  return out;
}

std::string Registry::Snapshot::RenderJson() const {
  std::string out = "{\"counters\":{";
  // Sized for the longest instrument line: a per-shard trace histogram
  // name (~40 chars) plus six %.4f fields that can each reach ~20 chars
  // for second-scale sums — 128 would silently truncate into broken JSON.
  char buf[256];
  bool first = true;
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                  name.c_str(), static_cast<unsigned long long>(v));
    out += buf;
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, vp] : gauges) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%lld,\"peak\":%lld}",
                  first ? "" : ",", name.c_str(),
                  static_cast<long long>(vp.first),
                  static_cast<long long>(vp.second));
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"count\":%llu,\"sum_ms\":%.4f,\"mean\":%.4f,"
        "\"p50\":%.4f,\"p95\":%.4f,\"p99\":%.4f}",
        first ? "" : ",", name.c_str(),
        static_cast<unsigned long long>(h.count), h.sum, h.Mean(),
        h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99));
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace glint::obs
