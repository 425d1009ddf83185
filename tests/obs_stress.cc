// Concurrency stress for glint::obs, built with -fsanitize=thread by the
// TSAN stage of tools/check.sh (minimal linkage: glint_obs only). Writer
// threads hammer one shared counter/gauge/histogram (directly and through
// ScopedTimer) while a reader repeatedly takes snapshots; afterwards
// the merged totals must equal the work submitted exactly. A second phase
// hammers the SlowTraceRing seqlock (every record carries the invariant
// total == sum(stages); a torn read would break it) and the TimeSeriesSet.
//
// Exit code 0 on success; any TSAN report fails the invoking script.

#include <cstdio>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace {

/// Writers lap a small ring while readers snapshot it continuously. Each
/// record is self-checking: total_ns == sum of its stage_ns, so a read
/// that mixed words from two writes is detectable (and must never be
/// returned — the seqlock retries instead).
int StressSlowTraceRing() {
  using namespace glint::obs;  // NOLINT
  SlowTraceRing ring(16);  // small: constant lapping, the hard case
  constexpr int kWriters = 4;
  constexpr int kRecords = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&ring, t]() {
      for (int i = 0; i < kRecords; ++i) {
        CompletedTrace ct;
        ct.id = uint64_t(t) * kRecords + uint64_t(i) + 1;
        ct.born_ns = ct.id * 10;
        ct.shard = t;
        ct.msg_type = uint8_t(t + 1);
        uint64_t sum = 0;
        for (int s = 0; s < kNumTraceStages; ++s) {
          ct.stage_ns[s] = (ct.id + uint64_t(s)) % 997;
          sum += ct.stage_ns[s];
        }
        ct.total_ns = sum;
        ring.Record(ct);
      }
    });
  }
  std::atomic<int> torn{0};
  std::thread reader([&ring, &torn]() {
    for (int i = 0; i < 2000; ++i) {
      for (const CompletedTrace& ct : ring.Snapshot()) {
        uint64_t sum = 0;
        for (int s = 0; s < kNumTraceStages; ++s) sum += ct.stage_ns[s];
        if (sum != ct.total_ns || ct.id == 0) torn.fetch_add(1);
      }
    }
  });
  for (auto& w : writers) w.join();
  reader.join();
  const uint64_t recorded = ring.recorded();
  const uint64_t expect = uint64_t(kWriters) * kRecords;
  const bool ok = torn.load() == 0 && recorded == expect &&
                  ring.Snapshot().size() == ring.capacity();
  std::printf("slow ring: recorded %llu/%llu dropped %llu torn %d  %s\n",
              (unsigned long long)recorded, (unsigned long long)expect,
              (unsigned long long)ring.dropped(), torn.load(),
              ok ? "OK" : "TORN READ");
  return ok ? 0 : 1;
}

int StressTimeSeries() {
  using namespace glint::obs;  // NOLINT
  TimeSeriesSet set(/*capacity_per_series=*/32);
  constexpr int kWriters = 4;
  constexpr int kPushes = 10000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&set, t]() {
      const std::string mine = "stress.series" + std::to_string(t);
      for (int i = 0; i < kPushes; ++i) {
        set.Push(mine, uint64_t(i) + 1, double(i));
        set.Push("stress.shared", uint64_t(i) + 1, double(t));
      }
    });
  }
  std::thread reader([&set]() {
    for (int i = 0; i < 500; ++i) {
      (void)set.RenderJson();
      (void)set.Names();
    }
  });
  for (auto& w : writers) w.join();
  reader.join();
  bool ok = set.Names().size() == kWriters + 1;
  for (int t = 0; t < kWriters; ++t) {
    TimeSeries* s = set.Get("stress.series" + std::to_string(t));
    ok = ok && s->size() == s->capacity() &&
         s->Latest().t_ns == uint64_t(kPushes);
  }
  std::printf("time series: %zu series  %s\n", set.Names().size(),
              ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  using namespace glint::obs;  // NOLINT
  auto& reg = Registry::Global();
  Counter* counter = reg.GetCounter("stress.counter");
  Gauge* gauge = reg.GetGauge("stress.gauge");
  Histogram* hist = reg.GetHistogram("stress.hist_ms");

  constexpr int kWriters = 8;
  constexpr int kIters = 30000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        counter->Add();
        gauge->Add(1);
        hist->Observe(double((i + t) % 100) * 0.1);
        gauge->Add(-1);
        if (i % 64 == 0) {
          ScopedTimer timer(hist);
        }
      }
    });
  }
  // Concurrent reader: snapshots must be safe (and TSAN-clean) while
  // writers are live.
  std::thread reader([&reg]() {
    for (int i = 0; i < 200; ++i) {
      (void)reg.TakeSnapshot().RenderJson();
    }
  });
  for (auto& w : writers) w.join();
  reader.join();

  const uint64_t want = uint64_t(kWriters) * kIters;
  const uint64_t got = counter->Value();
  // Each timer also observes into hist once per 64 iterations.
  const uint64_t want_hist = want + uint64_t(kWriters) * ((kIters + 63) / 64);
  const uint64_t got_hist = hist->Count();
  const bool ok = got == want && got_hist == want_hist && gauge->Value() == 0;
  std::printf("counter %llu/%llu  hist %llu/%llu  gauge %lld  %s\n",
              (unsigned long long)got, (unsigned long long)want,
              (unsigned long long)got_hist, (unsigned long long)want_hist,
              (long long)gauge->Value(), ok ? "OK" : "MISMATCH");
  if (!ok) return 1;
  if (StressSlowTraceRing() != 0) return 1;
  return StressTimeSeries();
}
