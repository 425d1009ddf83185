// The audit workload, in-process: the fleet-wide batched sweep
// (ShardedFleet::InspectAll → InspectAllBatched → AnalyzeBatch), which no
// wire request reaches. Homes are registered with event histories; each
// sweep first feeds every home its events up to the sweep time (untimed),
// then inspects the whole fleet at that time (timed), so verdict caches
// miss as edges come alive and expire.

#include <cstdio>
#include <unistd.h>

#include <unordered_map>

#include "core/serving.h"
#include "fleet/sharding.h"
#include "runs.h"

namespace perfbench {

namespace core = glint::core;
namespace fleet = glint::fleet;

/// Sweeps whose times are reported: the verdict caches keep learning the
/// configurations that recur, so later sweeps get cheaper; reporting a
/// fixed set of sweeps keeps the measured work the same in every run, and
/// the run goes on (untimed) until --seconds have passed.
constexpr int kMeasuredSweeps = 5;

RunResult RunAudit(const Plan& plan, const RunConfig& /*cfg*/) {
  RunResult res;
  const size_t n = plan.homes.size();
  uint64_t failed = 0;
  std::string first_error;
  auto fail = [&](const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  };

  // ---- Setup: train, register homes with their histories ----------------
  const int64_t t0 = MonoNs();
  core::TrainedDetector det(ServeOptions());
  det.TrainOffline();
  std::fprintf(stderr, "perfbench: detector trained in %.2fs\n",
               static_cast<double>(MonoNs() - t0) * 1e-9);
  fleet::FleetConfig fc;
  fc.num_shards = 2;
  fleet::ShardedFleet fl(&det, fc);
  std::vector<uint64_t> fed(n, 0);
  for (size_t h = 0; h < n; ++h) {
    const HomePlan& home = plan.homes[h];
    if (!fl.TryAddHome(home.id, home.rules).ok()) fail("AddHome " + home.id);
    for (uint64_t i = 0; i < home.history; ++i) {
      if (!fl.TryOnEvent(home.id, home.EventAt(i)).ok()) fail("event " + home.id);
    }
    fed[h] = home.history;
  }
  const double setup_s = static_cast<double>(MonoNs() - t0) * 1e-9;

  // ---- Measured phase: sweeps at advancing times ---------------------------
  struct Sweep {
    double ms, cpu_s;
  };
  std::vector<Sweep> sweeps;
  double sweep_wall = 0;
  uint64_t steal = 0, ticks = 0;
  uint64_t inspected = 0;
  double f1 = 0;
  fleet::FleetWarnings last;
  double now = plan.sweep_start_hours;
  int64_t end = 0;
  for (int s = 0;; ++s) {
    if (s == 1) end = MonoNs() + static_cast<int64_t>(plan.seconds * 1e9);
    if (s > 0) {
      now += plan.sweep_step_hours;
      for (size_t h = 0; h < n; ++h) {
        const HomePlan& home = plan.homes[h];
        for (const uint64_t upto = home.EventsUpTo(now); fed[h] < upto; ++fed[h]) {
          if (!fl.TryOnEvent(home.id, home.EventAt(fed[h])).ok()) {
            fail("event " + home.id);
          }
        }
      }
    }
    const HostTicks host_a = ReadHostTicks();
    const double cpu_a = SelfCpuSeconds();
    const int64_t a = MonoNs();
    fleet::FleetWarnings fw = fl.InspectAll(now, plan.sweep_batch);
    const int64_t b = MonoNs();
    const double cpu_b = SelfCpuSeconds();
    const HostTicks host_b = ReadHostTicks();
    if (s > 0 && s <= kMeasuredSweeps) {  // sweep 0: cold caches, untimed
      const uint64_t st = host_b.steal - host_a.steal;
      const uint64_t tot = host_b.total - host_a.total;
      sweeps.push_back({static_cast<double>(b - a) * 1e-6, cpu_b - cpu_a});
      steal += st;
      ticks += tot;
      sweep_wall += static_cast<double>(b - a) * 1e-9;
      inspected += fw.warnings.size();
    }
    if (fw.warnings.size() != n) fail("sweep missed homes");
    if (s == 0) {
      // Served threat verdicts against the analyzer's ground truth on the
      // same graphs (deterministic: the first sweep's time is fixed).
      uint64_t tp = 0, fp = 0, fn = 0;
      for (size_t i = 0; i < fw.ids.size(); ++i) {
        const core::ServingEngine& eng = fl.shard(fl.ShardOf(fw.ids[i]));
        const int h = eng.ResolveHome(fw.ids[i]);
        const bool truth =
            eng.home_view(h).live().MaterializeRealTime(now).vulnerable();
        const bool pred = fw.warnings[i].threat;
        tp += truth && pred;
        fp += !truth && pred;
        fn += truth && !pred;
      }
      f1 = tp == 0 ? 0.0
                   : 2.0 * static_cast<double>(tp) /
                         static_cast<double>(2 * tp + fp + fn);
    }
    last = std::move(fw);
    if (s >= kMeasuredSweeps && MonoNs() >= end) break;
  }

  // ---- Gate: sampled homes against a single-engine replay ----------------
  std::unordered_map<std::string, size_t> slot;
  for (size_t i = 0; i < last.ids.size(); ++i) slot[last.ids[i]] = i;
  core::ServingEngine ref(&det);
  const int kSample = 16;
  for (int i = 0; i < kSample; ++i) {
    const size_t h = (static_cast<size_t>(i) * n) / kSample;
    const HomePlan& home = plan.homes[h];
    bool ok = ref.TryAddHome(home.id, home.rules).ok();
    for (uint64_t e = 0; ok && e < fed[h]; ++e) {
      ok = ref.TryOnEvent(home.id, home.EventAt(e)).ok();
    }
    auto w = ref.TryInspect(home.id, now);
    if (!ok || !w.ok() || !slot.count(home.id) ||
        w.value().Render() != last.warnings[slot[home.id]].Render()) {
      fail("verdict mismatch for " + home.id);
    }
  }

  res.attempted = inspected + static_cast<uint64_t>(kSample);
  res.failed = failed;
  if (!first_error.empty()) res.Fail(first_error);
  Samples sweep_ms;
  double sweep_cpu = 0;
  for (const Sweep& sw : sweeps) {
    sweep_ms.Add(sw.ms);
    sweep_cpu += sw.cpu_s;
  }
  // Sweeps inspect every home: the median sweep gives the rate, so a
  // stalled sweep moves it less than a sum would.
  const double homes_per_s =
      static_cast<double>(n) / (sweep_ms.Pct(0.5) * 1e-3);
  const double cpu_us =
      sweep_cpu * 1e6 / static_cast<double>(sweep_ms.count() * n);
  const double rss = ProcPeakRssMb(getpid());

  Report& r = res.report;
  r.Set("setup_s", setup_s, "s");
  r.Set("audit_homes_per_s", homes_per_s, "homes/s", inspected);
  r.Set("audit_homes_per_s_whole_run",
        static_cast<double>(inspected) / sweep_wall, "homes/s");
  r.Set("audit_threat_f1", f1, "F1", n);
  r.Set("audit_sweep_p50_ms", sweep_ms.Pct(0.5), "ms", sweep_ms.count());
  const auto agg = fl.AggregateStats();
  r.Set("audit_verdict_miss_ratio",
        static_cast<double>(agg.verdict_misses) /
            static_cast<double>(std::max<uint64_t>(1, agg.inspects)),
        "ratio", agg.inspects);
  r.Set("failed_frac",
        static_cast<double>(res.failed) / static_cast<double>(res.attempted),
        "fraction", res.attempted);
  r.Set("server_cpu_us_per_op", cpu_us, "us");
  r.Set("server_peak_rss_mb", rss, "MB");
  r.Set("driver.host_steal_frac",
        ticks ? static_cast<double>(steal) / static_cast<double>(ticks) : 0,
        "fraction");
  r.Set("audit_sweeps", static_cast<double>(sweeps.size()), "count");

  Report& j = res.json;
  j.Set("setup_s", setup_s, "s");
  j.Set("server_cpu_us_per_op", cpu_us, "us");
  j.Set("peak_rss_mb", rss, "MB");
  return res;
}

}  // namespace perfbench
