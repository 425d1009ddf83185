// Serving-path bench: cold full-rebuild Inspect vs warm incremental Inspect
// through a DeploymentSession (1-rule delta on an N-rule home, learned
// correlation pipeline), plus ServingEngine whole-fleet throughput
// (rules/sec) at 1, 2, and hardware-concurrency threads. Emits one
// machine-readable JSON line (prefix BENCH_JSON) with the p50/p95
// latencies, the cold/warm speedup, and the per-thread-count rates. A
// correlation section scores the deployed home by rows
// (CorrelationDiscovery::CorrelateRow) and pair by pair, and fails the
// run if any verdict differs; its per-pair times are report-only. A home
// state section registers a fleet of copies of the home and reports the
// resident memory each one adds (report-only).
//
// Usage: bench_serving [--smoke]
//   --smoke  tiny home / fewer reps and a {1, current} thread sweep; used
//            by tools/check.sh under GLINT_THREADS=2.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/journal.h"
#include "core/serving.h"
#include "core/session.h"
#include "util/thread_pool.h"

namespace glint::bench {
namespace {

graph::Event EventFor(const rules::Rule& r, bool trigger, double t) {
  graph::Event e;
  e.time_hours = t;
  e.location = r.location;
  if (trigger || r.actions.empty()) {
    e.device = r.trigger.device;
    e.state = r.trigger.state;
  } else {
    e.device = r.actions[0].device;
    e.state = rules::CommandResultState(r.actions[0].command);
  }
  return e;
}

core::HomeId HomeName(int h) { return "home-" + std::to_string(h); }

/// Engine setup here cannot go on after a failed call: report and exit.
void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

/// Registers `homes` copies of `deployed` and replays `log` into each.
void BuildFleet(core::ServingEngine* eng, int homes,
                const std::vector<rules::Rule>& deployed,
                const graph::EventLog& log) {
  for (int h = 0; h < homes; ++h) {
    MustOk(eng->TryAddHome(HomeName(h), deployed).status(), "add home");
    for (const auto& e : log.events()) {
      MustOk(eng->TryOnEvent(HomeName(h), e), "replay event");
    }
  }
}

int Run(bool smoke) {
  const int home_rules = smoke ? 16 : 50;
  const int reps = smoke ? 6 : 20;
  const int homes = smoke ? 4 : 8;

  // A small trained detector: the learned correlation classifier is what
  // makes the cold O(n^2) pair scan expensive, so train it for real; the
  // GNN quality is irrelevant to the timing shape.
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

  // The deployed home: home_rules corpus rules re-id'd, plus an event
  // stream so real-time edges are actually live.
  std::vector<rules::Rule> deployed(
      detector.corpus().begin(),
      detector.corpus().begin() +
          std::min<size_t>(static_cast<size_t>(home_rules),
                           detector.corpus().size()));
  for (size_t i = 0; i < deployed.size(); ++i) {
    deployed[i].id = 9000 + static_cast<int>(i);
  }
  graph::EventLog log;
  double now = 10.0;
  for (size_t i = 0; i < deployed.size(); ++i) {
    now += 0.01;
    log.Append(EventFor(deployed[i], /*trigger=*/false, now));
    now += 0.01;
    log.Append(EventFor(deployed[(i + 1) % deployed.size()],
                        /*trigger=*/true, now));
  }

  Banner("Serving: cold full rebuild vs warm incremental Inspect",
         "the Sec. 5 deployment regime");

  // Correlation rows: score the home rule by rule as LiveGraph::AddRule
  // does (rule k against rules 0..k-1 in both directions), once with one
  // CorrelateRow call per rule and once pair by pair through Correlated.
  // Neither uses the verdict memo, so both time real scoring. A verdict
  // that differs between the two is an equivalence bug.
  const correlation::CorrelationDiscovery& discovery = detector.discovery();
  std::vector<double> row_us_per_pair, pair_us;
  bool corr_row_equivalent = true;
  for (size_t k = 1; k < deployed.size(); ++k) {
    std::vector<const rules::Rule*> others;
    for (size_t i = 0; i < k; ++i) others.push_back(&deployed[i]);
    std::vector<char> from, to;
    auto t0 = std::chrono::steady_clock::now();
    discovery.CorrelateRow(deployed[k], others, &from, &to);
    row_us_per_pair.push_back(Seconds(t0) * 1e6 / (2.0 * k));
    for (size_t i = 0; i < k; ++i) {
      t0 = std::chrono::steady_clock::now();
      const bool f = discovery.Correlated(deployed[i], deployed[k]);
      pair_us.push_back(Seconds(t0) * 1e6);
      t0 = std::chrono::steady_clock::now();
      const bool t = discovery.Correlated(deployed[k], deployed[i]);
      pair_us.push_back(Seconds(t0) * 1e6);
      if (f != (from[i] != 0) || t != (to[i] != 0)) {
        corr_row_equivalent = false;
      }
    }
  }
  const double corr_row_us_p50 = Percentile(row_us_per_pair, 0.50);
  const double corr_pair_us_p50 = Percentile(pair_us, 0.50);

  // Cold: the pre-split pipeline — every Inspect re-runs the O(n^2)
  // learned-correlation scan and rebuilds the graph from scratch. The cold
  // builder is its own, and its predicate is the learned classifier without
  // the detector's verdict memo, so the reference shares no cache with the
  // warm path it checks.
  graph::GraphBuilder cold_builder(detector.options().builder,
                                   &detector.word_model(),
                                   &detector.sentence_model());
  cold_builder.set_edge_predicate(
      [&detector](const rules::Rule& a, const rules::Rule& b) {
        return detector.discovery().Correlated(a, b);
      });
  auto cold_inspect = [&](const std::vector<rules::Rule>& rules) {
    return detector.AnalyzeGraph(cold_builder.BuildRealTime(rules, log, now));
  };
  std::vector<double> cold_ms;
  core::ThreatWarning cold_w;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    cold_w = cold_inspect(deployed);
    cold_ms.push_back(Seconds(t0) * 1e3);
  }

  // Warm: a DeploymentSession over the same rules and events. Each
  // measured op is a 1-rule delta (retire one rule, redeploy it) plus the
  // incremental Inspect — the caches never see an unchanged graph key, so
  // this times real incremental work, not verdict-cache hits.
  core::DeploymentSession session(&detector);
  for (const auto& r : deployed) session.AddRule(r);
  for (const auto& e : log.events()) session.OnEvent(e);
  core::ThreatWarning warm_w = session.TryInspect(now).ValueOrDie();

  std::vector<double> warm_ms;
  for (int r = 0; r < reps; ++r) {
    const auto cur = session.CurrentRules();
    const rules::Rule rotated = cur[static_cast<size_t>(r) % cur.size()];
    auto t0 = std::chrono::steady_clock::now();
    session.RemoveRule(rotated.id);
    session.AddRule(rotated);
    warm_w = session.TryInspect(now).ValueOrDie();
    warm_ms.push_back(Seconds(t0) * 1e3);
  }
  // No-change Inspect: the graph key matches, so the verdict cache answers.
  std::vector<double> hit_ms;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    warm_w = session.TryInspect(now).ValueOrDie();
    hit_ms.push_back(Seconds(t0) * 1e3);
  }

  // Sanity: warm and cold must agree bit-for-bit on the same deployment.
  const bool equivalent =
      session.TryInspect(now).ValueOrDie().Render() ==
      cold_inspect(session.CurrentRules()).Render();

  // Durability tax: the identical 1-rule-delta warm loop through a
  // ServingEngine with and without a WAL attached. The journaled run pays
  // one record encode + buffered fwrite + fflush per mutation; the gate
  // below holds it to <10% of the warm path (plus 0.5 ms absolute slack so
  // a noisy shared box cannot flake a sub-millisecond comparison). The two
  // engines are sampled in the same loop, alternating reps, so box-level
  // drift hits both distributions equally.
  const core::HomeId home = HomeName(0);
  auto warm_engine_rep = [&](core::ServingEngine* eng, int r) {
    const auto cur = eng->home_view(0).CurrentRules();
    const rules::Rule rotated = cur[static_cast<size_t>(r) % cur.size()];
    auto t0 = std::chrono::steady_clock::now();
    if (!eng->TryRemoveRule(home, rotated.id).ok() ||
        !eng->TryAddRule(home, rotated).ok() ||
        !eng->TryInspect(home, now).ok()) {
      std::fprintf(stderr, "warm engine loop op failed\n");
      std::exit(1);
    }
    return Seconds(t0) * 1e3;
  };
  core::ServingEngine plain_engine(&detector);
  BuildFleet(&plain_engine, 1, deployed, log);

  char state_dir[] = "/tmp/glint_bench_wal_XXXXXX";
  if (mkdtemp(state_dir) == nullptr) {
    std::fprintf(stderr, "cannot create bench state dir\n");
    return 1;
  }
  core::ServingEngine durable_engine(&detector);
  if (!durable_engine.Recover(state_dir).ok()) {
    std::fprintf(stderr, "bench recovery failed\n");
    return 1;
  }
  BuildFleet(&durable_engine, 1, deployed, log);

  std::vector<double> plain_ms, durable_ms;
  for (int r = 0; r < reps; ++r) {
    plain_ms.push_back(warm_engine_rep(&plain_engine, r));
    durable_ms.push_back(warm_engine_rep(&durable_engine, r));
  }
  const double warm_engine_p50 = Percentile(plain_ms, 0.50);
  const double warm_durable_p50 = Percentile(durable_ms, 0.50);
  const bool durable_gate_ok =
      warm_durable_p50 <= warm_engine_p50 * 1.10 + 0.5;

  // Raw WAL append latency, measured directly on the journal with a
  // typical event-record payload: runs of one record (what a rule change
  // or a one-event batch writes), then runs of 8 (an 8-event batch),
  // reported per record. Report-only; the durability gate is above.
  std::vector<double> append_us, run8_us_per_record;
  {
    char wal_dir[] = "/tmp/glint_bench_append_XXXXXX";
    if (mkdtemp(wal_dir) == nullptr) {
      std::fprintf(stderr, "cannot create append bench dir\n");
      return 1;
    }
    core::Journal journal((std::string(wal_dir)));
    core::Journal::RecoveryInfo info;
    auto nop_snapshot = [](const std::vector<char>&) {
      return Status::OK();
    };
    auto nop_record = [](uint64_t, const std::vector<char>&) {
      return Status::OK();
    };
    if (!journal.Recover(nop_snapshot, nop_record, &info).ok()) {
      std::fprintf(stderr, "append bench recovery failed\n");
      return 1;
    }
    const std::vector<char> payload(48, 'e');  // ~one encoded event op
    const int records = smoke ? 500 : 2000;
    uint64_t seq = 0;
    // Appends runs of `len` records; one sample per run, in us per record.
    auto time_runs = [&](int len, std::vector<double>* us) {
      for (int i = 0; i < records / len; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < len; ++k) {
          journal.StartRecord(++seq).Raw(payload.data(), payload.size());
        }
        if (!journal.AppendRun().ok()) return false;
        us->push_back(Seconds(t0) * 1e6 / len);
      }
      return true;
    };
    if (!time_runs(1, &append_us) || !time_runs(8, &run8_us_per_record)) {
      std::fprintf(stderr, "bench append failed\n");
      return 1;
    }
  }
  const double wal_append_us_p50 = Percentile(append_us, 0.50);
  const double wal_append_us_p95 = Percentile(append_us, 0.95);
  const double wal_run8_us_per_record_p50 =
      Percentile(run8_us_per_record, 0.50);

  const double cold_p50 = Percentile(cold_ms, 0.50);
  const double cold_p95 = Percentile(cold_ms, 0.95);
  const double warm_p50 = Percentile(warm_ms, 0.50);
  const double warm_p95 = Percentile(warm_ms, 0.95);
  const double hit_p50 = Percentile(hit_ms, 0.50);
  const double speedup = warm_p50 > 0 ? cold_p50 / warm_p50 : 0;

  std::printf("%-34s %10s %10s\n", "inspect path", "p50 ms", "p95 ms");
  std::printf("%-34s %10.2f %10.2f\n", "cold full rebuild", cold_p50,
              cold_p95);
  std::printf("%-34s %10.2f %10.2f\n", "warm incremental (1-rule delta)",
              warm_p50, warm_p95);
  std::printf("%-34s %10.3f %10.3f\n", "warm no-change (verdict cache)",
              hit_p50, Percentile(hit_ms, 0.95));
  std::printf("cold/warm p50 speedup: %.1fx   warm==cold: %s\n", speedup,
              equivalent ? "yes" : "NO — DETERMINISM BUG");
  std::printf("%-34s %10.2f %10s\n", "warm engine (no WAL)", warm_engine_p50,
              "");
  std::printf("%-34s %10.2f %10s\n", "warm engine (journaled)",
              warm_durable_p50, "");
  std::printf("wal append p50: %.1f us  p95: %.1f us  durability gate: %s\n",
              wal_append_us_p50, wal_append_us_p95,
              durable_gate_ok ? "ok" : "FAIL (>10% warm-path regression)");
  std::printf("wal 8-record runs p50: %.2f us per record\n",
              wal_run8_us_per_record_p50);
  std::printf("correlation p50: %.1f us per pair by rows, %.1f us by "
              "pairs   rows==pairs: %s\n",
              corr_row_us_p50, corr_pair_us_p50,
              corr_row_equivalent ? "yes" : "NO — EQUIVALENCE BUG");

  // Fleet throughput: ServingEngine with `homes` sessions, one 1-rule
  // delta per home per round, an InspectAll sweep across the thread sweep.
  const int initial = ThreadPool::Global().threads();
  std::vector<int> sweep = {1};
  if (smoke) {
    if (initial > 1) sweep.push_back(initial);
  } else {
    if (initial >= 2) sweep.push_back(2);
    if (ThreadPool::ConfiguredThreads() > 2) {
      sweep.push_back(ThreadPool::ConfiguredThreads());
    }
  }

  core::ServingEngine engine(&detector);
  BuildFleet(&engine, homes, deployed, log);

  std::printf("\n%8s %16s\n", "threads", "rules/sec");
  std::vector<double> rates;
  int round = 0;
  for (int t : sweep) {
    ThreadPool::SetGlobalThreads(t);
    const int rounds = smoke ? 2 : 4;
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < rounds; ++k, ++round) {
      for (int h = 0; h < homes; ++h) {
        const auto cur = engine.home_view(h).CurrentRules();
        const rules::Rule rotated =
            cur[static_cast<size_t>(round) % cur.size()];
        // Route mutations through the engine API (the journaled path on a
        // durable engine) instead of poking the session directly.
        if (!engine.TryRemoveRule(HomeName(h), rotated.id).ok() ||
            !engine.TryAddRule(HomeName(h), rotated).ok()) {
          std::fprintf(stderr, "thread-sweep rotate op failed\n");
          return 1;
        }
      }
      engine.InspectAll(now);
    }
    const double rate =
        static_cast<double>(engine.total_rules()) * rounds / Seconds(t0);
    rates.push_back(rate);
    std::printf("%8d %16.1f\n", t, rate);
  }
  ThreadPool::SetGlobalThreads(initial);

  // Batched warm fleet: two identical engines walk the same 1-rule-delta
  // script; each round times a per-home TryInspect loop on one and the
  // batched InspectAll sweep on the other, and the warnings and cache
  // counters must match bit-for-bit (the serving equivalence gate — see
  // batched_serving_test for the full sweep). Alternating measurement
  // within one loop keeps box-level drift symmetric.
  core::ServingEngine eng_seq(&detector);
  core::ServingEngine eng_bat(&detector);
  BuildFleet(&eng_seq, homes, deployed, log);
  BuildFleet(&eng_bat, homes, deployed, log);
  bool batched_equivalent = true;
  std::vector<double> seq_fleet_ms, bat_fleet_ms;
  std::vector<core::ThreatWarning> ws(static_cast<size_t>(homes));
  const int bat_rounds = smoke ? 4 : 8;
  for (int r = 0; r < bat_rounds; ++r) {
    for (int h = 0; h < homes; ++h) {
      const auto cur = eng_seq.home_view(h).CurrentRules();
      const rules::Rule rotated =
          cur[static_cast<size_t>(r + 1) % cur.size()];
      if (!eng_seq.TryRemoveRule(HomeName(h), rotated.id).ok() ||
          !eng_seq.TryAddRule(HomeName(h), rotated).ok() ||
          !eng_bat.TryRemoveRule(HomeName(h), rotated.id).ok() ||
          !eng_bat.TryAddRule(HomeName(h), rotated).ok()) {
        std::fprintf(stderr, "batched-fleet rotate op failed\n");
        return 1;
      }
    }
    auto t0 = std::chrono::steady_clock::now();
    for (int h = 0; h < homes; ++h) {
      auto w = eng_seq.TryInspect(HomeName(h), now);
      MustOk(w.status(), "per-home inspect");
      ws[static_cast<size_t>(h)] = std::move(w).value();
    }
    seq_fleet_ms.push_back(Seconds(t0) * 1e3);
    t0 = std::chrono::steady_clock::now();
    const auto wb = eng_bat.InspectAll(now);
    bat_fleet_ms.push_back(Seconds(t0) * 1e3);
    for (int h = 0; h < homes; ++h) {
      if (ws[static_cast<size_t>(h)].Render() !=
          wb[static_cast<size_t>(h)].Render()) {
        batched_equivalent = false;
      }
    }
    const auto ss = eng_seq.AggregateStats();
    const auto sb = eng_bat.AggregateStats();
    if (ss.inspects != sb.inspects || ss.verdict_hits != sb.verdict_hits ||
        ss.verdict_misses != sb.verdict_misses) {
      batched_equivalent = false;
    }
  }
  const double seq_fleet_p50 = Percentile(seq_fleet_ms, 0.50);
  const double bat_fleet_p50 = Percentile(bat_fleet_ms, 0.50);
  const double batched_speedup =
      bat_fleet_p50 > 0 ? seq_fleet_p50 / bat_fleet_p50 : 0;
  std::printf("\n%-34s %10.2f\n", "warm fleet per-home p50 ms",
              seq_fleet_p50);
  std::printf("%-34s %10.2f\n", "warm fleet InspectAll p50 ms",
              bat_fleet_p50);
  std::printf("batched fleet speedup: %.2fx   batched==per-home: %s\n",
              batched_speedup,
              batched_equivalent ? "yes" : "NO — EQUIVALENCE BUG");

  // Home state: the resident memory one registered home adds (its live
  // graph: rules, features shared with every other home of the same
  // texts, pair matrices, retained events). Report-only.
  const int state_homes = smoke ? 64 : 256;
  double home_state_kb = 0;
  {
    const long rss_before = RssKb();
    core::ServingEngine state_engine(&detector);
    BuildFleet(&state_engine, state_homes, deployed, log);
    const long rss_after = RssKb();
    if (rss_after > rss_before) {
      home_state_kb = static_cast<double>(rss_after - rss_before) /
                      static_cast<double>(state_homes);
    }
  }
  std::printf("%-34s %10.1f  (%d homes of %d rules)\n",
              "home state KiB RSS each", home_state_kb, state_homes,
              home_rules);

  JsonWriter json;
  json.Str("bench", "serving");
  json.Int("home_rules", home_rules);
  json.Num("cold_p50_ms", cold_p50);
  json.Num("cold_p95_ms", cold_p95);
  json.Num("warm_p50_ms", warm_p50);
  json.Num("warm_p95_ms", warm_p95);
  json.Num("nochange_p50_ms", hit_p50, 4);
  json.Num("speedup_p50", speedup, 2);
  json.Bool("equivalent", equivalent);
  json.Num("warm_engine_p50_ms", warm_engine_p50);
  json.Num("warm_durable_p50_ms", warm_durable_p50);
  json.Num("wal_append_us_p50", wal_append_us_p50, 1);
  json.Num("wal_append_us_p95", wal_append_us_p95, 1);
  json.Num("wal_run8_us_per_record_p50", wal_run8_us_per_record_p50, 2);
  json.Bool("durable_gate_ok", durable_gate_ok);
  json.Num("corr_row_us_per_pair_p50", corr_row_us_p50, 1);
  json.Num("corr_pair_us_p50", corr_pair_us_p50, 1);
  json.Bool("corr_row_equivalent", corr_row_equivalent);
  json.Ints("threads", sweep);
  json.Nums("rules_per_sec", rates);
  json.Num("fleet_seq_p50_ms", seq_fleet_p50);
  json.Num("fleet_batched_p50_ms", bat_fleet_p50);
  json.Num("batched_speedup", batched_speedup, 2);
  json.Bool("batched_equivalent", batched_equivalent);
  json.Num("home_state_kb", home_state_kb, 1);
  std::printf("BENCH_JSON %s\n", json.Render().c_str());
  if (!durable_gate_ok) return 1;
  if (!batched_equivalent) return 1;
  if (!corr_row_equivalent) return 1;
  return equivalent ? 0 : 1;
}

}  // namespace
}  // namespace glint::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return glint::bench::Run(smoke);
}
