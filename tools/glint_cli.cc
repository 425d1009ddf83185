// glint — command-line interface to the Glint interactive-threat detection
// system. Usage() at the bottom is the command and flag list (`glint` with
// no arguments prints it); the comment above each Cmd* function says what
// its command does.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/serving.h"
#include "core/session.h"
#include "fleet/server.h"
#include "graph/dataset_store.h"
#include "obs/obs.h"
#include "graph/threat_analyzer.h"
#include "testbed/attacks.h"
#include "testbed/scenarios.h"
#include "util/string_utils.h"

using namespace glint;  // NOLINT
namespace wire = glint::fleet::wire;

namespace {

// Minimal flag parser: --key value pairs after the subcommand. A --key
// followed by another --flag (or by nothing) is a valueless boolean flag
// and parses as "1" (e.g. `fleet-serve --stats`).
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int start) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const char* key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[i + 1];
      ++i;
    } else {
      flags[key] = "1";
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& def) {
  auto it = flags.find(key);
  return it == flags.end() ? def : it->second;
}

std::vector<rules::Rule> DemoRules(const std::string& name) {
  if (name == "table4") return rules::CorpusGenerator::Table4Settings();
  if (name == "blueprints") {
    std::vector<rules::Rule> all;
    for (const auto& g : rules::CorpusGenerator::NewThreatBlueprints()) {
      all.insert(all.end(), g.begin(), g.end());
    }
    return all;
  }
  return rules::CorpusGenerator::Table1Rules();
}

core::TrainedDetector::Options DefaultOptions(int graphs, int epochs,
                                              uint64_t seed) {
  core::TrainedDetector::Options opts;
  opts.corpus.ifttt = 500;
  opts.corpus.smartthings = 80;
  opts.corpus.alexa = 150;
  opts.corpus.google_assistant = 80;
  opts.corpus.home_assistant = 80;
  opts.num_training_graphs = graphs;
  opts.builder.max_nodes = 10;
  opts.builder.size_skew = 2.0;
  opts.model.num_scales = 2;
  opts.model.embed_dim = 64;
  opts.train.epochs = epochs;
  opts.train.oversample_factor = 2.5;
  opts.pairs.num_positive = 200;
  opts.pairs.num_negative = 300;
  opts.seed = seed;
  return opts;
}

// Generates the 5-platform synthetic rule corpus as text (one rule per
// line, tab-separated platform/id/text).
int CmdGenerateCorpus(const std::map<std::string, std::string>& flags) {
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate-corpus requires --out FILE\n");
    return 2;
  }
  rules::CorpusConfig cc;
  const double scale = std::atof(FlagOr(flags, "scale", "1").c_str());
  cc.ifttt = static_cast<int>(cc.ifttt * scale);
  cc.alexa = static_cast<int>(cc.alexa * scale);
  cc.google_assistant = static_cast<int>(cc.google_assistant * scale);
  cc.seed = std::strtoull(FlagOr(flags, "seed", "4242").c_str(), nullptr, 10);
  auto corpus = rules::CorpusGenerator(cc).Generate();
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  for (const auto& r : corpus) {
    std::fprintf(f, "%s\t%d\t%s\n", rules::PlatformName(r.platform), r.id,
                 r.text.c_str());
  }
  std::fclose(f);
  std::printf("wrote %zu rules to %s\n", corpus.size(), out.c_str());
  return 0;
}

// Builds a labeled interaction-graph dataset and saves it in the binary
// store format.
int CmdBuildDataset(const std::map<std::string, std::string>& flags) {
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) {
    std::fprintf(stderr, "build-dataset requires --out FILE\n");
    return 2;
  }
  const int n = std::atoi(FlagOr(flags, "graphs", "500").c_str());
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "1234").c_str(), nullptr, 10);
  const std::string platform = FlagOr(flags, "platform", "all");

  rules::CorpusConfig cc;
  auto corpus = rules::CorpusGenerator(cc).Generate();
  std::vector<rules::Rule> pool;
  if (platform == "all") {
    pool = corpus;
  } else {
    for (const auto& r : corpus) {
      if (platform == rules::PlatformName(r.platform)) pool.push_back(r);
    }
  }
  if (pool.empty()) {
    std::fprintf(stderr, "no rules for platform '%s'\n", platform.c_str());
    return 2;
  }
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder::Config bc;
  bc.seed = seed;
  graph::GraphBuilder builder(bc, &wm, &sm);
  auto ds = builder.BuildDataset(pool, n);
  Status st = graph::DatasetStore::Save(ds, out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu graphs (%d vulnerable) to %s\n", ds.size(),
              ds.CountVulnerable(), out.c_str());
  return 0;
}

// Prints summary statistics of a stored dataset.
int CmdDatasetInfo(const std::string& path) {
  auto loaded = graph::DatasetStore::Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const auto& ds = loaded.value();
  double nodes = 0, edges = 0;
  int hetero = 0;
  std::map<std::string, int> type_counts;
  for (const auto& g : ds.graphs) {
    nodes += g.num_nodes();
    edges += g.num_edges();
    hetero += g.IsHeterogeneous();
    for (auto t : g.threat_types()) {
      type_counts[graph::ThreatTypeName(t)] += 1;
    }
  }
  std::printf("%s: %zu graphs, %d vulnerable (%.1f%%), %d heterogeneous\n",
              path.c_str(), ds.size(), ds.CountVulnerable(),
              100.0 * ds.CountVulnerable() / std::max<size_t>(1, ds.size()),
              hetero);
  std::printf("mean %.1f nodes, %.1f edges\n",
              nodes / std::max<size_t>(1, ds.size()),
              edges / std::max<size_t>(1, ds.size()));
  for (const auto& [name, count] : type_counts) {
    std::printf("  %-20s %d graphs\n", name.c_str(), count);
  }
  return 0;
}

// Runs the offline stage and saves the ITGNN-S / ITGNN-C models and the
// drift statistics.
int CmdTrain(const std::map<std::string, std::string>& flags) {
  const std::string dir = FlagOr(flags, "model-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "train requires --model-dir DIR\n");
    return 2;
  }
  const int graphs = std::atoi(FlagOr(flags, "graphs", "600").c_str());
  const int epochs = std::atoi(FlagOr(flags, "epochs", "14").c_str());
  core::TrainedDetector detector(DefaultOptions(graphs, epochs, 97));
  std::printf("training offline (%d graphs, %d epochs)...\n", graphs, epochs);
  detector.TrainOffline();
  Status st = detector.SaveModels(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved %s/itgnn_s.bin and %s/itgnn_c.bin\n", dir.c_str(),
              dir.c_str());
  return 0;
}

// Inspects a demo rule deployment with models loaded from --model-dir, or
// with a freshly trained detector when it is absent.
int CmdInspect(const std::map<std::string, std::string>& flags) {
  const std::string dir = FlagOr(flags, "model-dir", "");
  core::TrainedDetector detector(DefaultOptions(600, 14, 97));
  if (!dir.empty()) {
    Status st = detector.LoadModels(dir);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("loaded models from %s\n", dir.c_str());
    std::printf("note: interaction edges come from the semantic oracle "
                "(the correlation ensemble is not saved)\n");
  } else {
    std::printf("no --model-dir given; training a fresh detector...\n");
    detector.TrainOffline();
  }

  auto deployed = DemoRules(FlagOr(flags, "demo", "table1"));
  std::printf("inspecting %zu deployed rules...\n", deployed.size());
  core::DeploymentSession session(&detector);
  for (const auto& r : deployed) session.AddRule(r);
  std::printf("%s\n", session.InspectStatic().Render().c_str());
  return 0;
}

/// Fleet summary + registry telemetry as one single-line JSON object:
/// {"serving":{...per-home aggregate...},"counters":{...},"gauges":{...},
///  "histograms":{...}} — see `glint stats` for the schema.
std::string StatsJson(size_t homes,
                      const core::DeploymentSession::CacheStats& agg) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "{\"serving\":{\"homes\":%zu,\"rules\":%llu,\"inspects\":%llu,"
      "\"events\":%llu,\"verdict_hits\":%llu,\"verdict_misses\":%llu,"
      "\"tensor_hits\":%llu,\"tensor_misses\":%llu},",
      homes, static_cast<unsigned long long>(agg.rules),
      static_cast<unsigned long long>(agg.inspects),
      static_cast<unsigned long long>(agg.events),
      static_cast<unsigned long long>(agg.verdict_hits),
      static_cast<unsigned long long>(agg.verdict_misses),
      static_cast<unsigned long long>(agg.tensor_hits),
      static_cast<unsigned long long>(agg.tensor_misses));
  // Splice the registry object in after the serving section.
  std::string registry = obs::Registry::Global().TakeSnapshot().RenderJson();
  return std::string(buf) + registry.substr(1);
}

double HitRate(uint64_t hits, uint64_t misses) {
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0 : 100.0 * double(hits) / double(total);
}

void PrintFleetStatsReport(const core::TrainedDetector& detector,
                           const fleet::ShardedFleet& fleet,
                           const fleet::EventBus& bus) {
  std::printf("\n---- fleet telemetry ----\n");
  std::printf("%s",
              obs::Registry::Global().TakeSnapshot().RenderText().c_str());
  const auto agg = fleet.AggregateStats();
  const auto& corr = detector.correlation_cache();
  std::printf("cache hit rates:\n");
  std::printf("  %-44s %6.1f%%  (%llu/%llu)\n", "verdict (no-change inspect)",
              HitRate(agg.verdict_hits, agg.verdict_misses),
              static_cast<unsigned long long>(agg.verdict_hits),
              static_cast<unsigned long long>(agg.verdict_hits +
                                              agg.verdict_misses));
  std::printf("  %-44s %6.1f%%  (%llu/%llu)\n", "tensorization (GnnGraph)",
              HitRate(agg.tensor_hits, agg.tensor_misses),
              static_cast<unsigned long long>(agg.tensor_hits),
              static_cast<unsigned long long>(agg.tensor_hits +
                                              agg.tensor_misses));
  std::printf("  %-44s %6.1f%%  (%zu/%zu)\n", "correlation verdict memo",
              HitRate(corr.hits(), corr.misses()), corr.hits(),
              corr.hits() + corr.misses());
  std::printf("per-shard:\n");
  for (int k = 0; k < fleet.num_shards(); ++k) {
    const auto& shard = fleet.shard(k);
    const auto s = shard.AggregateStats();
    std::printf(
        "  shard %-2d homes=%-5zu rules=%-5llu events=%-7llu "
        "inspects=%-6llu queue_hw=%zu\n",
        k, shard.num_homes(), static_cast<unsigned long long>(s.rules),
        static_cast<unsigned long long>(s.events),
        static_cast<unsigned long long>(s.inspects),
        bus.queue_high_water(k));
  }
  std::printf("bus: rejected=%llu apply_errors=%llu\n",
              static_cast<unsigned long long>(bus.rejected()),
              static_cast<unsigned long long>(bus.apply_errors()));
}

// SIGTERM/SIGINT ask fleet-serve for a graceful drain instead of an
// abrupt exit: async-signal-safe flag only; the serve loop notices and
// runs FleetServer::Drain (DESIGN.md §16).
volatile std::sig_atomic_t g_shutdown_signal = 0;

void OnShutdownSignal(int sig) { g_shutdown_signal = sig; }

// Sharded fleet serving: N ServingEngine shards behind a consistent-hash
// HomeId router, mutations flowing through a bounded per-shard event bus
// (--shards 1 serves from one engine). Without --port, drives simulated
// homes through the bus locally and inspects every home each
// --inspect-every simulated hours (each home's new events of a tick ride
// one event batch); --stats prints per-stage latency, cache-hit and
// per-shard telemetry before the STATS_JSON line. With --port, listens on
// 127.0.0.1:P speaking the binary wire protocol (see src/fleet/wire.h)
// until --duration seconds elapse (or stdin closes when --duration is 0);
// requests slower than --trace-slow-ms keep their trace. --state-dir DIR
// makes serving durable: each shard journals to DIR/shard-K/, recovers on
// startup (snapshot + WAL replay, torn tails truncated) and snapshots on
// exit. SIGTERM/SIGINT drain gracefully: owed replies are flushed, the bus
// empties, durable shards snapshot, then the process exits (--drain-ms
// bounds the wait, default 2000).
int CmdFleetServe(const std::map<std::string, std::string>& flags) {
  const int shards = std::atoi(FlagOr(flags, "shards", "4").c_str());
  const int homes = std::atoi(FlagOr(flags, "homes", "8").c_str());
  const double hours = std::atof(FlagOr(flags, "hours", "6").c_str());
  const double every = std::atof(FlagOr(flags, "inspect-every", "1").c_str());
  const int batch = std::atoi(FlagOr(flags, "batch", "256").c_str());
  const bool stats = flags.count("stats") > 0;
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "2026").c_str(), nullptr, 10);
  const std::string dir = FlagOr(flags, "model-dir", "");
  const int port = std::atoi(FlagOr(flags, "port", "-1").c_str());
  const double duration = std::atof(FlagOr(flags, "duration", "0").c_str());
  const std::string policy = FlagOr(flags, "bus-policy", "block");
  if (shards < 1 || batch < 1) {
    std::fprintf(stderr, "--shards and --batch must be >= 1\n");
    return 2;
  }
  if (policy != "block" && policy != "reject") {
    std::fprintf(stderr, "--bus-policy must be block or reject\n");
    return 2;
  }

  core::TrainedDetector detector(DefaultOptions(600, 14, 97));
  if (!dir.empty()) {
    Status st = detector.LoadModels(dir);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("loaded models from %s\n", dir.c_str());
  } else {
    std::printf("no --model-dir given; training a fresh detector...\n");
    detector.TrainOffline();
  }

  // One FleetConfig block carries every shared knob: shard count, the
  // per-shard engine config, and the state-dir root (shard K journals to
  // <state-dir>/shard-K/).
  fleet::FleetConfig fc;
  fc.num_shards = shards;
  fc.state_dir = FlagOr(flags, "state-dir", "");
  fleet::ShardedFleet fleet(&detector, fc);
  if (!fc.state_dir.empty()) {
    Status st = fleet.Recover();
    if (!st.ok()) {
      std::fprintf(stderr, "fleet recovery failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("recovered %zu homes across %d shards from %s\n",
                fleet.num_homes(), shards, fc.state_dir.c_str());
  }

  fleet::EventBus::Config bus_cfg;
  bus_cfg.capacity = static_cast<size_t>(
      std::atoi(FlagOr(flags, "bus-capacity", "1024").c_str()));
  bus_cfg.policy = policy == "reject" ? fleet::EventBus::Backpressure::kReject
                                      : fleet::EventBus::Backpressure::kBlock;

  if (port >= 0) {
    // Network mode: speak the wire protocol on 127.0.0.1 until --duration
    // seconds elapse (0 = until stdin closes).
    fleet::FleetServer::Config sc;
    sc.port = port;
    sc.bus = bus_cfg;
    // Requests slower than this end-to-end land in the slow-trace ring
    // (surfaced by `glint fleet-top`).
    sc.trace.slow_threshold_ns = static_cast<uint64_t>(
        std::atof(FlagOr(flags, "trace-slow-ms", "10").c_str()) * 1e6);
    const int drain_ms =
        std::atoi(FlagOr(flags, "drain-ms", "2000").c_str());
    fleet::FleetServer server(&fleet, sc);
    Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("fleet-serve listening on 127.0.0.1:%d (%d shards, bus %s)\n",
                server.port(), shards, policy.c_str());
    std::fflush(stdout);
    // SIGTERM/SIGINT trigger a graceful drain. No SA_RESTART: a signal
    // must interrupt the blocking fgets below so the drain runs promptly.
    g_shutdown_signal = 0;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = OnShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    if (duration > 0) {
      // Sleep in slices so a shutdown signal is noticed within ~50ms even
      // if the C++ runtime restarts an interrupted nanosleep.
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(
                             static_cast<long>(duration * 1000));
      while (g_shutdown_signal == 0 &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    } else {
      char line[256];
      while (g_shutdown_signal == 0 &&
             std::fgets(line, sizeof line, stdin) != nullptr) {
      }
    }
    if (g_shutdown_signal != 0) {
      std::printf("signal %d: draining (deadline %d ms)...\n",
                  static_cast<int>(g_shutdown_signal), drain_ms);
      std::fflush(stdout);
      st = server.Drain(drain_ms);  // serve owed replies, snapshot, stop
      if (!st.ok()) {
        std::fprintf(stderr, "drain snapshot failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      std::printf("drained: %zu connections open, bus empty\n",
                  server.open_connections());
    } else {
      server.Stop();  // drains the bus: everything accepted is applied
      if (fleet.durable()) {
        st = fleet.Snapshot();
        if (!st.ok()) {
          std::fprintf(stderr, "snapshot failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
    }
    fleet.PublishShardGauges();
    if (stats) PrintFleetStatsReport(detector, fleet, server.bus());
    std::printf("STATS_JSON %s\n",
                StatsJson(fleet.num_homes(), fleet.AggregateStats()).c_str());
    return 0;
  }

  // Driver mode: simulate homes locally, posting every event through the
  // bus. Registration is control-plane and synchronous; the event stream
  // is data-plane and rides the bus.
  fleet::EventBus bus(&fleet, bus_cfg);
  std::vector<testbed::SmartHome> sims;
  std::vector<core::HomeId> ids;
  std::vector<size_t> cursor(static_cast<size_t>(homes), 0);
  sims.reserve(static_cast<size_t>(homes));
  ids.reserve(static_cast<size_t>(homes));
  // Resume the simulated clock past anything already journaled so replayed
  // state and fresh events stay chronological.
  double resume_hour = 18.0;
  for (int k = 0; k < fleet.num_shards(); ++k) {
    const auto& shard = fleet.shard(k);
    for (int h = 0; h < static_cast<int>(shard.num_homes()); ++h) {
      resume_hour =
          std::max(resume_hour, shard.home_view(h).live().latest_event_hours());
    }
  }
  for (int h = 0; h < homes; ++h) {
    testbed::SmartHome::Config cfg;
    cfg.seed = seed + static_cast<uint64_t>(h);
    cfg.start_hour = resume_hour;
    auto deployed = testbed::ScenarioGenerator::BenignDeployment();
    sims.emplace_back(cfg, deployed);
    // Stable ids: a rerun against the same --state-dir finds its homes
    // again instead of re-registering them.
    ids.push_back("home-" + std::to_string(h));
    if (!fleet.has_home(ids.back())) {
      auto added = fleet.TryAddHome(ids.back(), deployed);
      if (!added.ok()) {
        std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("fleet-serving %d homes on %d shards, %zu rules total%s\n",
              homes, shards, fleet.total_rules(),
              fleet.durable() ? " (journaled)" : "");

  const double start = sims.empty() ? resume_hour : sims[0].now();
  for (double t = start + every; t <= start + hours + 1e-9; t += every) {
    for (int h = 0; h < homes; ++h) {
      auto& sim = sims[static_cast<size_t>(h)];
      sim.Simulate(t - sim.now());
      const auto& events = sim.log().events();
      size_t& next = cursor[static_cast<size_t>(h)];
      if (next == events.size()) continue;  // quiet tick: nothing to post
      // The home's new events for this tick ride one batch, in log order.
      fleet::BusMessage msg;
      msg.kind = fleet::BusMessage::Kind::kEventBatch;
      msg.home = ids[static_cast<size_t>(h)];
      msg.events.assign(events.begin() + static_cast<std::ptrdiff_t>(next),
                        events.end());
      next = events.size();
      Status st = bus.PostBatch(std::move(msg));
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
    double t_inspect = t;
    for (const auto& sim : sims) t_inspect = std::max(t_inspect, sim.now());
    bus.Flush();  // inspection must cover every accepted event
    auto fw = fleet.InspectAll(t_inspect, batch);
    int threats = 0, drifting = 0;
    for (const auto& w : fw.warnings) {
      threats += w.threat;
      drifting += w.drifting;
    }
    std::printf("t=%5.1fh  homes=%zu threats=%d drifting=%d\n", t,
                fw.warnings.size(), threats, drifting);
    for (size_t i = 0; i < fw.warnings.size(); ++i) {
      const auto& w = fw.warnings[i];
      if (w.threat || w.drifting) {
        std::printf("-- %s --\n%s\n", fw.ids[i].c_str(), w.Render().c_str());
      }
    }
  }
  bus.Stop();
  // Apply errors are asynchronous (the post was accepted), so surface them
  // here: a dropped event (e.g. a failed WAL append) fails the run.
  if (bus.apply_errors() > 0) {
    for (int k = 0; k < fleet.num_shards(); ++k) {
      const Status st = bus.FirstError(k);
      if (!st.ok()) {
        std::fprintf(stderr, "shard %d apply failed: %s\n", k,
                     st.ToString().c_str());
      }
    }
    return 1;
  }
  if (fleet.durable()) {
    Status st = fleet.Snapshot();
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("fleet state snapshotted to %s\n", fc.state_dir.c_str());
  }
  fleet.PublishShardGauges();
  if (stats) PrintFleetStatsReport(detector, fleet, bus);
  std::printf("STATS_JSON %s\n",
              StatsJson(fleet.num_homes(), fleet.AggregateStats()).c_str());
  return 0;
}

void RenderFleetTop(const wire::Reply& r, bool live) {
  if (live) std::printf("\x1b[H\x1b[2J");  // clear only when refreshing
  uint64_t homes = 0, rules = 0, events = 0, inspects = 0;
  for (const auto& s : r.shard_stats) {
    homes += s.homes;
    rules += s.rules;
    events += s.events;
    inspects += s.inspects;
  }
  std::printf(
      "glint fleet-top — %zu shards, %llu homes, %llu rules, "
      "%llu events, %llu inspects\n",
      r.shard_stats.size(), static_cast<unsigned long long>(homes),
      static_cast<unsigned long long>(rules),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(inspects));
  std::printf(
      "server: conns=%llu reqs=%llu bad_frames=%llu bad_reqs=%llu "
      "backoffs=%llu   bus: rejected=%llu apply_errors=%llu\n\n",
      static_cast<unsigned long long>(r.server_connections),
      static_cast<unsigned long long>(r.server_requests),
      static_cast<unsigned long long>(r.server_bad_frames),
      static_cast<unsigned long long>(r.server_bad_requests),
      static_cast<unsigned long long>(r.server_accept_backoffs),
      static_cast<unsigned long long>(r.bus_rejected),
      static_cast<unsigned long long>(r.bus_apply_errors));
  std::printf(
      "shard  health      shed  homes   rules   events    ev/s  qdepth  "
      "q_hw  qwait p50/p99 ms  apply p50/p99 ms  inspect p50/p99 ms\n");
  for (size_t k = 0; k < r.shard_stats.size(); ++k) {
    const auto& s = r.shard_stats[k];
    // "shed" totals both shed classes (degraded/down + expired deadline);
    // restarts append as rN so a supervised recovery is visible at a
    // glance without another column.
    char health[32];
    if (s.restarts > 0) {
      std::snprintf(health, sizeof health, "%s r%llu",
                    fleet::ShardHealthName(
                        static_cast<fleet::ShardHealth>(s.health)),
                    static_cast<unsigned long long>(s.restarts));
    } else {
      std::snprintf(health, sizeof health, "%s",
                    fleet::ShardHealthName(
                        static_cast<fleet::ShardHealth>(s.health)));
    }
    std::printf(
        "%5zu  %-9s %6llu  %5llu  %6llu  %7llu  %6.0f  %6llu  %4llu  "
        "%7.3f/%-7.3f  %7.3f/%-7.3f  %7.3f/%-7.3f\n",
        k, health,
        static_cast<unsigned long long>(s.overload_shed + s.deadline_shed),
        static_cast<unsigned long long>(s.homes),
        static_cast<unsigned long long>(s.rules),
        static_cast<unsigned long long>(s.events), s.events_per_sec,
        static_cast<unsigned long long>(s.queue_depth),
        static_cast<unsigned long long>(s.queue_high_water),
        s.queue_wait_p50_ms, s.queue_wait_p99_ms, s.apply_p50_ms,
        s.apply_p99_ms, s.inspect_p50_ms, s.inspect_p99_ms);
  }
  if (!r.slow_traces.empty()) {
    std::printf("\nrecent slow requests (newest first, stage µs):\n");
    for (const auto& t : r.slow_traces) {
      std::printf("  #%-6llu %-11s shard %-3d total %8.3f ms ",
                  static_cast<unsigned long long>(t.id),
                  wire::MsgTypeName(static_cast<wire::MsgType>(t.msg_type)),
                  t.shard, static_cast<double>(t.total_us) / 1000.0);
      for (int i = 0; i < obs::kNumTraceStages; ++i) {
        if (t.stage_us[i] == 0) continue;  // stages the type skips
        std::printf(" %s=%llu",
                    obs::TraceStageName(static_cast<obs::TraceStage>(i)),
                    static_cast<unsigned long long>(t.stage_us[i]));
      }
      std::printf("\n");
    }
  }
  std::fflush(stdout);
}

// Live fleet dashboard: polls a running fleet-serve over the wire
// protocol (kStatsJson) and renders per-shard queue depth, event rates,
// and request-stage latency quantiles (p50/p99), plus the most recent slow
// requests with their per-stage breakdown (DESIGN.md §14). --once prints a
// single snapshot and exits; --json dumps the raw STATS_JSON and
// SERIES_JSON lines instead of the table.
int CmdFleetTop(const std::map<std::string, std::string>& flags) {
  const std::string host = FlagOr(flags, "host", "127.0.0.1");
  const int port = std::atoi(FlagOr(flags, "port", "0").c_str());
  const double interval =
      std::atof(FlagOr(flags, "interval", "1").c_str());
  const bool json = flags.count("json") > 0;
  int count = std::atoi(FlagOr(flags, "count", "0").c_str());  // 0 = forever
  if (flags.count("once") > 0) count = 1;
  if (port <= 0) {
    std::fprintf(stderr, "fleet-top requires --port P (a fleet-serve port)\n");
    return 2;
  }
  wire::Client client;
  Status st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const bool live = count != 1;
  for (int polled = 0; count <= 0 || polled < count; ++polled) {
    if (polled > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(interval * 1000)));
    }
    wire::Request req;
    req.type = wire::MsgType::kStatsJson;
    wire::Reply reply;
    st = client.Call(req, &reply);
    if (!st.ok() || reply.type != wire::MsgType::kStatsJsonReply) {
      std::fprintf(stderr, "fleet-top poll failed: %s\n",
                   st.ok() ? "unexpected reply type" : st.ToString().c_str());
      return 1;
    }
    if (json) {
      std::printf("STATS_JSON %s\n", reply.stats_json.c_str());
      std::printf("SERIES_JSON %s\n", reply.series_json.c_str());
      std::fflush(stdout);
    } else {
      RenderFleetTop(reply, live);
    }
  }
  return 0;
}

// ---- fleet-replay -------------------------------------------------------
//
// Heavy-traffic replay driver against a running fleet-serve: M
// connections, each pipelining kEventBatch frames up to --depth in
// flight, while one extra connection samples kInspect latency under that
// load. Pure wire client — no model is loaded, so it starts instantly
// and measures the serving plane, not inference warmup. Events are
// synthesized deterministically (or loaded with --log FILE) and can be
// recorded with --record FILE for replayable workloads.

/// Replay log format: "GLRL" | u32 version | u32 count | count × (Str
/// home | event). Little-endian by construction (util/binio).
constexpr uint32_t kReplayLogVersion = 1;

struct ReplayRecord {
  std::string home;
  graph::Event event;
};

bool WriteReplayLog(const std::string& path,
                    const std::vector<ReplayRecord>& records) {
  util::ByteWriter w;
  w.Raw("GLRL", 4);
  w.U32(kReplayLogVersion);
  w.U32(static_cast<uint32_t>(records.size()));
  for (const auto& rec : records) {
    w.Str(rec.home);
    graph::WriteEvent(&w, rec.event);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(w.buffer().data(), 1, w.size(), f) == w.size();
  return std::fclose(f) == 0 && ok;
}

bool ReadReplayLog(const std::string& path,
                   std::vector<ReplayRecord>* records) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<char> bytes;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  util::ByteReader r(bytes);
  char magic[4];
  uint32_t version = 0, count = 0;
  if (!r.Raw(magic, 4) || std::memcmp(magic, "GLRL", 4) != 0 ||
      !r.U32(&version) || version != kReplayLogVersion || !r.U32(&count)) {
    return false;
  }
  records->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ReplayRecord rec;
    if (!r.Str(&rec.home) || !graph::ReadEvent(&r, &rec.event)) {
      return false;
    }
    records->push_back(std::move(rec));
  }
  return r.exhausted();
}

// Replay driver against a running fleet-serve: M connections pipeline
// kEventBatch frames (window D, B events per frame) while an extra
// connection samples kInspect latency under load. Prints sustained
// events/sec and inspect p50/p99 (plus a REPLAY_JSON line). --record FILE
// writes the event log it sent; --log FILE replays a previously recorded
// log instead of synthesizing one.
int CmdFleetReplay(const std::map<std::string, std::string>& flags) {
  const std::string host = FlagOr(flags, "host", "127.0.0.1");
  const int port = std::atoi(FlagOr(flags, "port", "0").c_str());
  const int conns = std::max(1, std::atoi(FlagOr(flags, "conns", "4").c_str()));
  const size_t depth = static_cast<size_t>(
      std::max(1, std::atoi(FlagOr(flags, "depth", "64").c_str())));
  const uint32_t batch = static_cast<uint32_t>(std::min<int>(
      static_cast<int>(wire::kMaxBatchEvents),
      std::max(1, std::atoi(FlagOr(flags, "batch", "64").c_str()))));
  const int total_events =
      std::max(1, std::atoi(FlagOr(flags, "events", "1000").c_str()));
  const int num_homes =
      std::max(1, std::atoi(FlagOr(flags, "homes", "100").c_str()));
  const std::string prefix = FlagOr(flags, "prefix", "replay-");
  const std::string log_path = FlagOr(flags, "log", "");
  const std::string record_path = FlagOr(flags, "record", "");
  if (port <= 0) {
    std::fprintf(stderr, "fleet-replay requires --port P (a fleet-serve port)\n");
    return 2;
  }

  // The workload: either a recorded log (per-home order = file order) or
  // a deterministic synthetic stream over --homes homes.
  std::vector<ReplayRecord> records;
  if (!log_path.empty()) {
    if (!ReadReplayLog(log_path, &records) || records.empty()) {
      std::fprintf(stderr, "fleet-replay: cannot read replay log %s\n",
                   log_path.c_str());
      return 1;
    }
  } else {
    records.reserve(static_cast<size_t>(total_events));
    for (int i = 0; i < total_events; ++i) {
      ReplayRecord rec;
      rec.home = prefix + std::to_string(i % num_homes);
      rec.event.time_hours = 0.1 + 0.01 * (i / num_homes);
      rec.event.location = rules::Location::kHallway;
      rec.event.device = rules::DeviceType::kMotionSensor;
      rec.event.state = "active";
      records.push_back(std::move(rec));
    }
  }
  if (!record_path.empty() && !WriteReplayLog(record_path, records)) {
    std::fprintf(stderr, "fleet-replay: cannot write %s\n",
                 record_path.c_str());
    return 1;
  }

  // Group into per-home FIFO sequences; home -> one owning connection,
  // so each home's events ride one pipeline in order.
  std::map<std::string, std::vector<graph::Event>> by_home;
  double max_hours = 0;
  for (const auto& rec : records) {
    by_home[rec.home].push_back(rec.event);
    max_hours = std::max(max_hours, rec.event.time_hours);
  }

  // Register every home (idempotent per server run: a duplicate AddHome
  // surfaces as an apply error on the server, not a failed replay). The
  // two deployed rules interact, so inspects exercise the real verdict
  // path.
  std::vector<rules::Rule> deployed;
  for (int j = 0; j < 2; ++j) {
    rules::Rule r;
    r.id = 9100 + j;
    r.platform = rules::Platform::kIFTTT;
    r.location = rules::Location::kHallway;
    r.text = j == 0 ? "If motion is detected, turn on the hallway light."
                    : "If the hallway light turns on, unlock the door.";
    r.trigger.device =
        j == 0 ? rules::DeviceType::kMotionSensor : rules::DeviceType::kLight;
    r.trigger.state = j == 0 ? "active" : "on";
    r.actions.push_back({j == 0 ? rules::DeviceType::kLight
                                : rules::DeviceType::kLock,
                         j == 0 ? rules::Command::kOn
                                : rules::Command::kUnlock,
                         0});
    deployed.push_back(std::move(r));
  }
  {
    wire::Client reg;
    if (!reg.Connect(host, port).ok()) {
      std::fprintf(stderr, "fleet-replay: cannot connect to %s:%d\n",
                   host.c_str(), port);
      return 1;
    }
    for (const auto& [home, events] : by_home) {
      wire::Request req;
      wire::Reply reply;
      req.type = wire::MsgType::kAddHome;
      req.home = home;
      req.rules = deployed;
      if (!reg.Call(req, &reply).ok() || reply.code != 0) {
        std::fprintf(stderr, "fleet-replay: AddHome(%s) refused: %s\n",
                     home.c_str(), reply.message.c_str());
        return 1;
      }
    }
  }

  // Partition homes across connections, then pipeline batched frames.
  std::vector<std::vector<const std::pair<const std::string,
                                          std::vector<graph::Event>>*>>
      owned(static_cast<size_t>(conns));
  {
    size_t i = 0;
    for (const auto& entry : by_home) {
      owned[i++ % static_cast<size_t>(conns)].push_back(&entry);
    }
  }
  // Per-event accounting, split by outcome (DESIGN.md §16): acked means
  // the server took responsibility; rejected/overloaded/io_error events
  // were NOT applied and make the replay exit nonzero — a replay that
  // silently drops events is how "lossless" claims rot.
  std::atomic<uint64_t> sent_events{0};
  std::atomic<uint64_t> acked_events{0};
  std::atomic<uint64_t> rejected_events{0};
  std::atomic<uint64_t> overloaded_events{0};
  std::atomic<uint64_t> io_errors{0};
  std::atomic<int> errors{0};
  std::atomic<bool> ingest_done{false};
  std::vector<double> inspect_ms;
  std::thread inspector;
  {
    // The inspector connects first so its reads overlap the whole run.
    auto inspect_client = std::make_unique<wire::Client>();
    if (!inspect_client->Connect(host, port).ok()) {
      std::fprintf(stderr, "fleet-replay: inspector connect failed\n");
      return 1;
    }
    std::vector<std::string> homes;
    homes.reserve(by_home.size());
    for (const auto& [home, events] : by_home) homes.push_back(home);
    inspector = std::thread([&, client = std::move(inspect_client),
                             homes = std::move(homes)] {
      wire::Request req;
      wire::Reply reply;
      req.type = wire::MsgType::kInspect;
      req.now_hours = max_hours + 1.0;
      int i = 0;
      while (!ingest_done.load(std::memory_order_relaxed) || i < 16) {
        req.home = homes[static_cast<size_t>(i * 37) % homes.size()];
        const auto t0 = std::chrono::steady_clock::now();
        if (!client->Call(req, &reply).ok() || reply.code != 0) {
          errors.fetch_add(1);
          break;
        }
        inspect_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
        ++i;
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      wire::Client::Options opt;
      opt.max_window = depth;
      wire::Client client(opt);
      if (!client.Connect(host, port).ok()) {
        io_errors.fetch_add(1);
        errors.fetch_add(1);
        return;
      }
      // Replies come back FIFO over the pipeline, so the oldest in-flight
      // frame size attributes each ack to the right number of events.
      std::deque<uint64_t> inflight;
      auto recv_one = [&]() -> bool {
        wire::Reply reply;
        if (!client.Recv(&reply).ok()) {
          io_errors.fetch_add(1);
          errors.fetch_add(1);
          return false;
        }
        const uint64_t n = inflight.front();
        inflight.pop_front();
        if (reply.code == 0) {
          acked_events.fetch_add(n);
        } else if (reply.code ==
                   static_cast<int32_t>(StatusCode::kOverloaded)) {
          overloaded_events.fetch_add(n);
        } else {
          rejected_events.fetch_add(n);
        }
        return true;
      };
      for (const auto* entry : owned[static_cast<size_t>(c)]) {
        const auto& events = entry->second;
        for (size_t off = 0; off < events.size(); off += batch) {
          wire::Request req;
          req.type = wire::MsgType::kEventBatch;
          req.home = entry->first;
          req.events.assign(
              events.begin() + static_cast<ptrdiff_t>(off),
              events.begin() +
                  static_cast<ptrdiff_t>(
                      std::min(off + batch, events.size())));
          while (client.pending() >= depth) {
            if (!recv_one()) return;
          }
          if (!client.Send(req).ok()) {
            io_errors.fetch_add(1);
            errors.fetch_add(1);
            return;
          }
          sent_events.fetch_add(req.events.size());
          inflight.push_back(req.events.size());
        }
      }
      while (client.pending() > 0) {
        if (!recv_one()) return;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  ingest_done.store(true);
  inspector.join();

  std::sort(inspect_ms.begin(), inspect_ms.end());
  auto pct = [&](double q) {
    if (inspect_ms.empty()) return 0.0;
    const size_t i = static_cast<size_t>(
        q * static_cast<double>(inspect_ms.size() - 1) + 0.5);
    return inspect_ms[std::min(i, inspect_ms.size() - 1)];
  };
  const double ev_per_sec =
      secs > 0 ? static_cast<double>(records.size()) / secs : 0;
  std::printf(
      "fleet-replay: %zu events over %zu homes in %.1f ms (%.0f ev/s) "
      "across %d conns (depth %zu, batch %u)\n",
      records.size(), by_home.size(), secs * 1e3, ev_per_sec, conns, depth,
      batch);
  std::printf(
      "fleet-replay: inspect p50 %.2f ms p99 %.2f ms (%zu sampled under "
      "load); %d errors\n",
      pct(0.50), pct(0.99), inspect_ms.size(), errors.load());
  std::printf(
      "fleet-replay: sent %llu acked %llu rejected %llu overloaded %llu "
      "io_errors %llu\n",
      static_cast<unsigned long long>(sent_events.load()),
      static_cast<unsigned long long>(acked_events.load()),
      static_cast<unsigned long long>(rejected_events.load()),
      static_cast<unsigned long long>(overloaded_events.load()),
      static_cast<unsigned long long>(io_errors.load()));
  std::printf(
      "REPLAY_JSON {\"events\":%zu,\"homes\":%zu,\"seconds\":%.4f,"
      "\"events_per_sec\":%.0f,\"conns\":%d,\"depth\":%zu,\"batch\":%u,"
      "\"inspect_p50_ms\":%.3f,\"inspect_p99_ms\":%.3f,\"errors\":%d,"
      "\"sent\":%llu,\"acked\":%llu,\"rejected\":%llu,\"overloaded\":%llu,"
      "\"io_errors\":%llu}\n",
      records.size(), by_home.size(), secs, ev_per_sec, conns, depth, batch,
      pct(0.50), pct(0.99), errors.load(),
      static_cast<unsigned long long>(sent_events.load()),
      static_cast<unsigned long long>(acked_events.load()),
      static_cast<unsigned long long>(rejected_events.load()),
      static_cast<unsigned long long>(overloaded_events.load()),
      static_cast<unsigned long long>(io_errors.load()));
  // Loss is a hard failure: anything sent but not acked (rejected,
  // overloaded without retry, or lost to a transport error) exits nonzero
  // so scripted replays cannot quietly under-deliver.
  const bool lossless = errors.load() == 0 && rejected_events.load() == 0 &&
                        overloaded_events.load() == 0 &&
                        io_errors.load() == 0 &&
                        acked_events.load() == sent_events.load();
  if (!lossless) {
    std::fprintf(stderr,
                 "fleet-replay: LOSS — %llu of %llu sent events were not "
                 "acked (rejected %llu, overloaded %llu, io_errors %llu)\n",
                 static_cast<unsigned long long>(sent_events.load() -
                                                 acked_events.load()),
                 static_cast<unsigned long long>(sent_events.load()),
                 static_cast<unsigned long long>(rejected_events.load()),
                 static_cast<unsigned long long>(overloaded_events.load()),
                 static_cast<unsigned long long>(io_errors.load()));
  }
  return lossless ? 0 : 1;
}

// Documents the glint::obs instrument taxonomy and STATS_JSON schema.
int CmdStats() {
  std::printf(
      "glint::obs — process-wide telemetry registry\n\n"
      "Instruments are named glint.<subsystem>.<name>; suffixes:\n"
      "  *_ms       histogram of wall-time per stage, in milliseconds\n"
      "  *.hits / *.misses   cache counters (hit rate = hits/(hits+misses))\n"
      "  (others)   plain event counters or gauges (value + peak)\n\n"
      "subsystems:\n"
      "  glint.nlp.*         sentence embedding + encode cache\n"
      "  glint.correlation.* rule-pair correlation model + verdict memo\n"
      "  glint.graph.*       interaction-graph build + node-feature memo\n"
      "  glint.live.*        LiveGraph incremental deltas / materialize\n"
      "  glint.gnn.*         tensorization, ITGNN forward (sequential +\n"
      "                      batched), GnnGraph cache\n"
      "  glint.kernel.*      selected SIMD kernel backend (gauge: the\n"
      "                      kernels::Backend code; GLINT_KERNEL overrides)\n"
      "  glint.batch.*       block-diagonal super-graph sizes per batched\n"
      "                      fleet inspection (InspectAll)\n"
      "  glint.explain.*     gradient screen + occlusion refinement\n"
      "  glint.drift.*       behavioral drift detector\n"
      "  glint.detector.*    end-to-end Analyze verdicts\n"
      "  glint.session.*     per-home Inspect + verdict LRU\n"
      "  glint.serving.*     fleet event routing + InspectAll + WAL append\n"
      "  glint.journal.*     WAL appends, snapshot writes (durable serving)\n"
      "  glint.recovery.*    snapshots loaded, records replayed, torn tails\n"
      "                      truncated + bytes dropped (glint\n"
      "                      fleet-serve --state-dir DIR)\n"
      "  glint.threadpool.*  ParallelFor calls, queue depth, task wait/run "
      "latency\n"
      "  glint.fleet.*       sharded fleet: shard/home gauges, per-server\n"
      "                      connection + request counters, bus queue\n"
      "                      high-water / rejected / apply_errors, sampled\n"
      "                      bus queue_wait_ms / apply_ms histograms\n"
      "  glint.fleet.conn.*  epoll front-end connection lifecycle:\n"
      "                      .opened / .closed — accepted and closed\n"
      "                        connections (counters)\n"
      "                      .open — live connections (sampled series)\n"
      "                      .write_stalls — sends that hit EAGAIN (reply\n"
      "                        queued until the socket drains)\n"
      "                      .read_backpressure — reads paused because a\n"
      "                        slow reader's write buffer was full\n"
      "  glint.fleet.server.batch_frames / .batch_events\n"
      "                      kEventBatch frames accepted and the events\n"
      "                      they carried (events/frame = amortization)\n"
      "  glint.fleet.bus.posted / .posted_events\n"
      "                      bus messages enqueued vs events they span\n"
      "                      (posted_events > posted ⇔ batching active)\n"
      "  glint.fleet.trace.* per-request stage decomposition of wire\n"
      "                      requests (DESIGN.md §14):\n"
      "                      .shard<K>.<stage>_ms — stage histograms for\n"
      "                        requests owned by shard K; stages are\n"
      "                        accept, decode, enqueue, queue_wait, apply,\n"
      "                        inspect, encode, reply\n"
      "                      .server.<stage>_ms  — requests touching no\n"
      "                        single shard (ping, stats)\n"
      "                      view live with `glint fleet-top --port P`\n\n"
      "`glint fleet-serve` ends with one machine-readable line (after a\n"
      "human-readable report when --stats is given):\n\n"
      "  STATS_JSON {\"serving\":{\"homes\":N,\"rules\":N,\"inspects\":N,\n"
      "    \"events\":N,\"verdict_hits\":N,\"verdict_misses\":N,\n"
      "    \"tensor_hits\":N,\"tensor_misses\":N},\n"
      "   \"counters\":{\"name\":N,...},\n"
      "   \"gauges\":{\"name\":{\"value\":N,\"peak\":N},...},\n"
      "   \"histograms\":{\"name\":{\"count\":N,\"sum_ms\":X,\"mean\":X,\n"
      "     \"p50\":X,\"p95\":X,\"p99\":X},...}}\n\n"
      "Collection is on by default; set GLINT_OBS=off to reduce every\n"
      "instrument to a relaxed-load branch.\n"
      "Overhead budget: <= 5%% on the warm serving path (enforced by\n"
      "bench_obs_overhead in tools/check.sh).\n");
  return 0;
}

// Runs the smart-home testbed simulator and prints its event log.
int CmdSimulate(const std::map<std::string, std::string>& flags) {
  const double hours = std::atof(FlagOr(flags, "hours", "24").c_str());
  const std::string attack_name = FlagOr(flags, "attack", "none");
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "1337").c_str(), nullptr, 10);

  testbed::SmartHome::Config cfg;
  cfg.seed = seed;
  testbed::SmartHome home(cfg, testbed::ScenarioGenerator::BenignDeployment());
  home.Simulate(hours / 2);
  for (int a = 0; a < testbed::kNumAttackTypes; ++a) {
    const auto type = static_cast<testbed::AttackType>(a);
    if (attack_name == testbed::AttackName(type) &&
        type != testbed::AttackType::kNone) {
      Rng rng(seed ^ 0xa77ac);
      testbed::ApplyAttack(type, &home, &rng);
      std::printf("** injected attack: %s **\n", attack_name.c_str());
    }
  }
  home.Simulate(hours / 2);
  for (const auto& line : home.log().Render()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("-- %zu events over %.1f simulated hours --\n",
              home.log().size(), hours);
  return 0;
}

// Runs the rule-semantics threat analyzer (no ML) on a demo rule set.
int CmdAnalyze(const std::map<std::string, std::string>& flags) {
  auto deployed = DemoRules(FlagOr(flags, "demo", "table1"));
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder builder({}, &wm, &sm);
  auto g = builder.BuildFromRules(deployed);
  std::printf("graph: %d nodes, %d edges, vulnerable=%s\n", g.num_nodes(),
              g.num_edges(), g.vulnerable() ? "YES" : "no");
  for (const auto& f : graph::ThreatAnalyzer::DetectClassic(g)) {
    std::printf("  [classic] %-18s rules:", graph::ThreatTypeName(f.type));
    for (int n : f.nodes) {
      std::printf(" #%d", g.nodes()[static_cast<size_t>(n)].rule.id);
    }
    std::printf("\n");
  }
  for (const auto& f : graph::ThreatAnalyzer::DetectNewTypes(g)) {
    std::printf("  [new]     %-18s rules:", graph::ThreatTypeName(f.type));
    for (int n : f.nodes) {
      std::printf(" #%d", g.nodes()[static_cast<size_t>(n)].rule.id);
    }
    std::printf("\n");
  }
  return 0;
}

void Usage() {
  std::printf(
      "glint — interactive-threat detection for smart home rules\n\n"
      "usage: glint <command> [flags]\n\n"
      "commands:\n"
      "  generate-corpus --out FILE [--scale N] [--seed S]\n"
      "  build-dataset   --out FILE [--graphs N] [--platform P] [--seed S]\n"
      "  dataset-info    FILE\n"
      "  train           --model-dir DIR [--graphs N] [--epochs E]\n"
      "  inspect         [--model-dir DIR] [--demo table1|table4|blueprints]\n"
      "  fleet-serve     [--model-dir DIR] [--shards N] [--homes N]\n"
      "                  [--hours H] [--inspect-every H] [--batch N]\n"
      "                  [--state-dir DIR] [--stats] [--bus-capacity N]\n"
      "                  [--bus-policy block|reject]\n"
      "                  [--port P [--duration SECS] [--drain-ms MS]]\n"
      "                  [--trace-slow-ms MS] [--seed S]\n"
      "  fleet-top       [--host H] [--port P] [--interval SECS] [--once]\n"
      "                  [--count N] [--json]\n"
      "  fleet-replay    --port P [--host H] [--conns M] [--depth D]\n"
      "                  [--batch B] [--events N] [--homes K] [--log FILE]\n"
      "                  [--record FILE] [--prefix P]\n"
      "  stats\n"
      "  simulate        [--hours H] [--attack NAME] [--seed S]\n"
      "  analyze         [--demo table1|table4|blueprints]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (cmd == "generate-corpus") return CmdGenerateCorpus(flags);
  if (cmd == "build-dataset") return CmdBuildDataset(flags);
  if (cmd == "dataset-info") {
    if (argc < 3) {
      std::fprintf(stderr, "dataset-info requires a FILE\n");
      return 2;
    }
    return CmdDatasetInfo(argv[2]);
  }
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "inspect") return CmdInspect(flags);
  if (cmd == "fleet-serve") return CmdFleetServe(flags);
  if (cmd == "fleet-top") return CmdFleetTop(flags);
  if (cmd == "fleet-replay") return CmdFleetReplay(flags);
  if (cmd == "stats") return CmdStats();
  if (cmd == "simulate") return CmdSimulate(flags);
  if (cmd == "analyze") return CmdAnalyze(flags);
  Usage();
  return 2;
}
