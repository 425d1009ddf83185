// Overhead gate for the glint::obs telemetry layer, two phases:
//
//   warm Inspect   the 1-rule-delta serving hot path with telemetry
//                  collecting vs. runtime-disabled; fails if the
//                  enabled/disabled p50 ratio exceeds the 5% budget from
//                  DESIGN.md §9. Also asserts the warm verdicts are
//                  bit-identical under both modes: the telemetry layer
//                  must observe the pipeline, never perturb it.
//   warm fleet bus per-event cost of posting traced events through an
//                  EventBus into a warm ShardedFleet (full request
//                  tracing: TraceContext per message + TraceRecorder,
//                  DESIGN.md §14) vs. telemetry disabled — the tracing
//                  half of the same 5% budget. Both phases are judged by
//                  their cleanest paired off/on block.
//
// Emits one BENCH_JSON line with both phases' p50s, ratios, and pass/fail.
//
// Usage: bench_obs_overhead [--smoke]
//   --smoke  smaller home / fewer reps; used by tools/check.sh.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "core/session.h"
#include "fleet/event_bus.h"
#include "fleet/sharding.h"
#include "fleet/wire.h"
#include "obs/obs.h"

namespace glint::bench {
namespace {

/// Ratio slack for sub-millisecond medians: when the warm path is this
/// fast, scheduler jitter between the two timed loops dwarfs any real
/// instrument cost, so the gate also accepts an absolute gap under 50µs.
constexpr double kAbsSlackMs = 0.05;
constexpr double kMaxRatio = 1.05;

struct Timing {
  std::vector<double> ms;
  std::string last_render;  // verdict text of the final Inspect
};

/// One warm measurement pass: `reps` (RemoveRule, AddRule, Inspect) deltas
/// against a session deployed with `rules`. A fresh session per pass keeps
/// the two modes symmetric (same cold start, same cache history).
Timing MeasureWarm(const core::TrainedDetector& detector,
                   const std::vector<rules::Rule>& deployed, int reps,
                   double now) {
  core::DeploymentSession session(&detector);
  for (const auto& r : deployed) session.AddRule(r);
  // Untimed warm-up.
  core::ThreatWarning w = session.TryInspect(now).ValueOrDie();
  Timing out;
  for (int r = 0; r < reps; ++r) {
    const auto cur = session.CurrentRules();
    const rules::Rule rotated = cur[static_cast<size_t>(r) % cur.size()];
    auto t0 = std::chrono::steady_clock::now();
    session.RemoveRule(rotated.id);
    session.AddRule(rotated);
    w = session.TryInspect(now).ValueOrDie();
    out.ms.push_back(Seconds(t0) * 1e3);
  }
  out.last_render = w.Render();
  return out;
}

/// One warm bus pass: posts `rounds` batches of one event per home through
/// a fresh EventBus (trace per message when telemetry is on — the wire
/// ingest shape), flushes, and returns the per-event cost in microseconds.
/// `t_cursor` advances so the LiveGraph windows stay warm, not growing.
double MeasureBusBlock(fleet::ShardedFleet* fleet, obs::TraceRecorder* rec,
                       const std::vector<core::HomeId>& ids,
                       const std::vector<rules::Rule>& pool, int rounds,
                       double* t_cursor) {
  fleet::EventBus::Config cfg;
  cfg.recorder = rec;
  fleet::EventBus bus(fleet, cfg);
  const int homes = static_cast<int>(ids.size());
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    *t_cursor += 0.01;
    for (int h = 0; h < homes; ++h) {
      const rules::Rule& rule = pool[static_cast<size_t>(h) % pool.size()];
      fleet::BusMessage m;
      m.kind = fleet::BusMessage::Kind::kEventBatch;
      m.home = ids[static_cast<size_t>(h)];
      graph::Event& e = m.events.emplace_back();
      e.time_hours = *t_cursor;
      e.location = rule.location;
      e.device = rule.trigger.device;
      e.state = rule.trigger.state;
      // The traced-ingest shape: a context per message, shard-routed,
      // finished by the consumer via the recorder (inactive when
      // telemetry is disabled, so the off mode measures the bare bus).
      m.trace = obs::TraceContext::Begin();
      if (m.trace.active()) {
        m.trace.msg_type =
            static_cast<uint8_t>(fleet::wire::MsgType::kEventBatch);
        m.trace.shard = fleet->ShardOf(m.home);
      }
      if (!bus.PostBatch(std::move(m)).ok()) std::abort();
    }
  }
  bus.Flush();
  const double us = Seconds(t0) * 1e6;
  bus.Stop();
  return us / static_cast<double>(homes) / static_cast<double>(rounds);
}

int Run(bool smoke) {
  const int home_rules = smoke ? 12 : 40;
  const int reps = smoke ? 8 : 30;

  core::TrainedDetector::Options opts;
  opts.corpus.ifttt = smoke ? 200 : 300;
  opts.corpus.smartthings = 40;
  opts.corpus.alexa = 60;
  opts.corpus.google_assistant = 40;
  opts.corpus.home_assistant = 40;
  opts.num_training_graphs = smoke ? 40 : 80;
  opts.builder.max_nodes = 8;
  opts.model.num_scales = 2;
  opts.model.embed_dim = 32;
  opts.train.epochs = 2;
  opts.pairs.num_positive = 60;
  opts.pairs.num_negative = 90;
  core::TrainedDetector detector(opts);
  std::printf("training the detector (offline stage)...\n");
  detector.TrainOffline();

  std::vector<rules::Rule> deployed(
      detector.corpus().begin(),
      detector.corpus().begin() +
          std::min<size_t>(static_cast<size_t>(home_rules),
                           detector.corpus().size()));
  for (size_t i = 0; i < deployed.size(); ++i) {
    deployed[i].id = 9000 + static_cast<int>(i);
  }
  const double now = 10.0;

  Banner("obs overhead: warm Inspect with telemetry on vs. off",
         "the DESIGN.md §9 overhead budget");

  // Alternate off/on per block so slow drift (thermal, other processes)
  // lands on both modes equally; first block is discarded implicitly by
  // MeasureWarm's internal warm-up.
  const int blocks = 4;
  std::vector<double> off_ms, on_ms;
  // Per-block paired ratio: a real instrument cost inflates EVERY
  // off→on pair, while an ambient-load spike (other processes on a
  // small CI box) lands in some blocks only — so the gate judges the
  // cleanest block, not the pooled median.
  double best_ratio = std::numeric_limits<double>::infinity();
  std::string off_render, on_render;
  for (int b = 0; b < blocks; ++b) {
    obs::SetEnabled(false);
    Timing off = MeasureWarm(detector, deployed, reps, now);
    obs::SetEnabled(true);
    Timing on = MeasureWarm(detector, deployed, reps, now);
    const double off_b = Percentile(off.ms, 0.50);
    const double on_b = Percentile(on.ms, 0.50);
    if (off_b > 0) best_ratio = std::min(best_ratio, on_b / off_b);
    off_ms.insert(off_ms.end(), off.ms.begin(), off.ms.end());
    on_ms.insert(on_ms.end(), on.ms.begin(), on.ms.end());
    off_render = off.last_render;
    on_render = on.last_render;
  }
  if (!std::isfinite(best_ratio)) best_ratio = 1.0;

  const double off_p50 = Percentile(off_ms, 0.50);
  const double on_p50 = Percentile(on_ms, 0.50);
  const double ratio = off_p50 > 0 ? on_p50 / off_p50 : 1.0;
  const bool identical = on_render == off_render;
  const bool within = best_ratio <= kMaxRatio ||
                      (on_p50 - off_p50) <= kAbsSlackMs;

  std::printf("%-28s %10s %10s\n", "telemetry", "p50 ms", "p95 ms");
  std::printf("%-28s %10.3f %10.3f\n", "disabled (GLINT_OBS=off)", off_p50,
              Percentile(off_ms, 0.95));
  std::printf("%-28s %10.3f %10.3f\n", "enabled", on_p50,
              Percentile(on_ms, 0.95));
  std::printf("enabled/disabled p50 ratio: %.3f pooled, %.3f best block "
              "(budget %.2f, abs slack %.0fus)   verdicts identical: %s\n",
              ratio, best_ratio, kMaxRatio, kAbsSlackMs * 1e3,
              identical ? "yes" : "NO — OBS PERTURBS THE PIPELINE");

  // ---- Phase 2: warm fleet bus with request tracing on vs. off ----------
  Banner("tracing overhead: warm fleet bus, traced vs. untraced",
         "the DESIGN.md §14 half of the same budget");
  const int bus_homes = smoke ? 48 : 128;
  const int bus_rounds = smoke ? 12 : 40;
  const int bus_shards = 4;
  fleet::FleetConfig fcfg;
  fcfg.num_shards = bus_shards;
  fleet::ShardedFleet fleet(&detector, fcfg);
  obs::TraceRecorder recorder(
      {"glint.fleet.trace", bus_shards, /*slow_threshold_ns=*/10'000'000,
       /*ring_capacity=*/256});
  std::vector<core::HomeId> bus_ids;
  for (int h = 0; h < bus_homes; ++h) {
    bus_ids.push_back("home-" + std::to_string(h));
    std::vector<rules::Rule> two = {deployed[static_cast<size_t>(h) %
                                             deployed.size()],
                                    deployed[static_cast<size_t>(h + 1) %
                                             deployed.size()]};
    if (!fleet.TryAddHome(bus_ids.back(), two).ok()) return 1;
  }
  double t_cursor = 1.0;
  // Untimed warm-up block (consumer threads up, caches touched), then the
  // same off/on alternation as phase 1.
  obs::SetEnabled(true);
  (void)MeasureBusBlock(&fleet, &recorder, bus_ids, deployed, bus_rounds,
                        &t_cursor);
  std::vector<double> bus_off_us, bus_on_us;
  for (int b = 0; b < blocks; ++b) {
    obs::SetEnabled(false);
    bus_off_us.push_back(MeasureBusBlock(&fleet, &recorder, bus_ids,
                                         deployed, bus_rounds, &t_cursor));
    obs::SetEnabled(true);
    bus_on_us.push_back(MeasureBusBlock(&fleet, &recorder, bus_ids,
                                        deployed, bus_rounds, &t_cursor));
  }
  const double bus_off_p50 = Percentile(bus_off_us, 0.50);
  const double bus_on_p50 = Percentile(bus_on_us, 0.50);
  const double bus_ratio = bus_off_p50 > 0 ? bus_on_p50 / bus_off_p50 : 1.0;
  // Judged like phase 1, by the cleanest paired block: a real tracing cost
  // inflates every off→on pair, while a load spike on the consumer threads
  // lands in some blocks only, and a median of 4 blocks still carries it.
  size_t best_block = 0;
  double bus_best_ratio = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < bus_off_us.size(); ++b) {
    if (bus_off_us[b] <= 0) continue;
    const double r = bus_on_us[b] / bus_off_us[b];
    if (r < bus_best_ratio) {
      bus_best_ratio = r;
      best_block = b;
    }
  }
  if (!std::isfinite(bus_best_ratio)) bus_best_ratio = 1.0;
  // Sub-microsecond per-event costs drown in scheduler jitter on small
  // machines; accept an absolute gap under half a microsecond per event.
  const double kBusAbsSlackUs = 0.5;
  const bool bus_within =
      bus_best_ratio <= kMaxRatio ||
      (bus_on_us[best_block] - bus_off_us[best_block]) <= kBusAbsSlackUs;
  // Tracing must actually have traced: every on-mode event finishes one
  // trace through the recorder.
  const uint64_t traced = recorder.completed();
  const uint64_t expected_traced =
      static_cast<uint64_t>(bus_homes) *
      static_cast<uint64_t>(bus_rounds) * (blocks + 1);
  const bool bus_traced_ok = traced == expected_traced;
  std::printf("%-28s %10s\n", "tracing", "us/event p50");
  std::printf("%-28s %10.3f\n", "disabled (GLINT_OBS=off)", bus_off_p50);
  std::printf("%-28s %10.3f\n", "enabled (trace per event)", bus_on_p50);
  std::printf("traced/untraced ratio: %.3f pooled p50, %.3f best block "
              "(budget %.2f, abs slack %.1fus/event)   traces completed: "
              "%llu/%llu\n",
              bus_ratio, bus_best_ratio, kMaxRatio, kBusAbsSlackUs,
              static_cast<unsigned long long>(traced),
              static_cast<unsigned long long>(expected_traced));

  const bool pass = within && identical && bus_within && bus_traced_ok;
  std::printf("%s\n", pass ? "PASS" : "FAIL: obs overhead gate");

  JsonWriter json;
  json.Str("bench", "obs_overhead");
  json.Int("home_rules", home_rules);
  json.Num("off_p50_ms", off_p50);
  json.Num("on_p50_ms", on_p50);
  json.Num("ratio", ratio);
  json.Num("best_block_ratio", best_ratio);
  json.Bool("identical", identical);
  json.Num("bus_off_us_per_event", bus_off_p50);
  json.Num("bus_on_us_per_event", bus_on_p50);
  json.Num("bus_ratio", bus_ratio);
  json.Num("bus_best_block_ratio", bus_best_ratio);
  json.Int("traces_completed", static_cast<long long>(traced));
  json.Bool("bus_pass", bus_within && bus_traced_ok);
  json.Bool("pass", pass);
  std::printf("BENCH_JSON %s\n", json.Render().c_str());
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace glint::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return glint::bench::Run(smoke);
}
