// Sharded-fleet bench: the million-home serving shape at bench scale. One
// ShardedFleet (default 10k homes over 8 shards, each home deploying 2-3
// rules from a small shared pool) is driven through every fleet layer:
//
//   register   synchronous routed TryAddHome           -> homes/sec
//   ingest     EventBus, multi-producer, kBlock        -> events/sec,
//              per-shard queue high-water rollup
//   inspect    sampled per-home TryInspect p50/p99 and a full
//              InspectAll(batched)                     -> homes/sec
//   identity   a 64-home sample replayed on a single ServingEngine must
//              render bit-identically (the fleet determinism gate)
//   wire       FleetServer on loopback TCP: ping RTT p50/p99, multi-
//              connection event ingestion              -> events/sec
//
// Emits one machine-readable line (prefix BENCH_JSON).
//
// Usage: bench_fleet [--smoke] [--homes N] [--shards K]
//   --smoke  400 homes / 4 shards, fewer wire ops; used by tools/check.sh.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "core/serving.h"
#include "fleet/event_bus.h"
#include "fleet/server.h"
#include "fleet/sharding.h"
#include "obs/obs.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace glint::bench {
namespace {

using fleet::BusMessage;
using fleet::EventBus;
using fleet::FleetServer;
using fleet::ShardedFleet;

constexpr int kPoolSize = 8;
constexpr int kEventRounds = 3;

graph::Event EventFor(const rules::Rule& r, double t) {
  graph::Event e;
  e.time_hours = t;
  e.location = r.location;
  e.device = r.trigger.device;
  e.state = r.trigger.state;
  return e;
}

/// Home i's deployed rules: 2-3 drawn from the shared pool, so detector
/// memo caches are shared across homes (the production shape).
std::vector<rules::Rule> DeployedFor(const std::vector<rules::Rule>& pool,
                                     int i) {
  std::vector<rules::Rule> d = {pool[static_cast<size_t>(i % kPoolSize)],
                                pool[static_cast<size_t>((i + 3) % kPoolSize)]};
  if (i % 2 == 0) d.push_back(pool[static_cast<size_t>((i + 5) % kPoolSize)]);
  return d;
}

/// Home i's round-r event — a pure function of (i, r), so the bus replay
/// and the single-engine identity replay see the identical stream.
graph::Event EventAt(const std::vector<rules::Rule>& pool, int i, int r) {
  const rules::Rule& rule = pool[static_cast<size_t>((i + r) % kPoolSize)];
  return EventFor(rule, 0.4 + 0.01 * (kEventRounds * i + r));
}

/// Resident set size in KiB (/proc/self/status VmRSS), 0 if unreadable.
long RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

int Run(int homes, int shards, bool smoke) {
  core::TrainedDetector::Options opts;
  opts.corpus.ifttt = 200;
  opts.corpus.smartthings = 40;
  opts.corpus.alexa = 60;
  opts.corpus.google_assistant = 40;
  opts.corpus.home_assistant = 40;
  opts.num_training_graphs = 40;
  opts.builder.max_nodes = 8;
  opts.model.num_scales = 2;
  opts.model.embed_dim = 32;
  opts.train.epochs = 2;
  opts.pairs.num_positive = 60;
  opts.pairs.num_negative = 90;
  core::TrainedDetector detector(opts);
  std::printf("training the detector (offline stage)...\n");
  detector.TrainOffline();

  std::vector<rules::Rule> pool(
      detector.corpus().begin(),
      detector.corpus().begin() +
          std::min<size_t>(kPoolSize, detector.corpus().size()));
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i].id = 9000 + static_cast<int>(i);
  }

  Banner("Sharded fleet: register / ingest / inspect / wire",
         "the Sec. 5 deployment regime at fleet scale");
  std::printf("homes=%d shards=%d threads=%d\n\n", homes, shards,
              ThreadPool::Global().threads());

  fleet::FleetConfig fcfg;
  fcfg.num_shards = shards;
  ShardedFleet fleet(&detector, fcfg);

  std::vector<core::HomeId> ids;
  ids.reserve(static_cast<size_t>(homes));
  for (int i = 0; i < homes; ++i) ids.push_back("home-" + std::to_string(i));

  // ---- Register: synchronous routed TryAddHome --------------------------
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < homes; ++i) {
    if (!fleet.TryAddHome(ids[static_cast<size_t>(i)], DeployedFor(pool, i))
             .ok()) {
      std::fprintf(stderr, "TryAddHome(%s) failed\n",
                   ids[static_cast<size_t>(i)].c_str());
      return 1;
    }
  }
  const double register_s = Seconds(t0);
  const double register_per_sec = homes / register_s;

  size_t shard_min = fleet.shard(0).num_homes();
  size_t shard_max = shard_min;
  for (int k = 1; k < shards; ++k) {
    shard_min = std::min(shard_min, fleet.shard(k).num_homes());
    shard_max = std::max(shard_max, fleet.shard(k).num_homes());
  }
  std::printf("%-38s %12.0f  (%.2fs; shard homes %zu..%zu)\n",
              "register homes/sec", register_per_sec, register_s, shard_min,
              shard_max);

  // ---- Ingest: EventBus, multi-producer, kBlock -------------------------
  // Each producer owns a strided partition of homes and posts all of a
  // home's rounds in order, so per-home FIFO order is fixed and the end
  // state is deterministic (the bit-identity gate below depends on it).
  const int producers =
      std::max(1, std::min(smoke ? 2 : 4,
                           static_cast<int>(std::thread::hardware_concurrency())));
  EventBus::Config bcfg;
  bcfg.capacity = 1024;
  bcfg.policy = EventBus::Backpressure::kBlock;
  EventBus bus(&fleet, bcfg);
  const uint64_t total_events =
      static_cast<uint64_t>(homes) * kEventRounds;
  t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = p; i < homes; i += producers) {
          for (int r = 0; r < kEventRounds; ++r) {
            BusMessage m;
            m.kind = BusMessage::Kind::kEventBatch;
            m.home = ids[static_cast<size_t>(i)];
            m.events = {EventAt(pool, i, r)};
            if (!bus.PostBatch(std::move(m)).ok()) {
              std::fprintf(stderr, "bus post refused under kBlock\n");
              std::abort();
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    bus.Flush();
  }
  const double ingest_s = Seconds(t0);
  const double bus_events_per_sec = static_cast<double>(total_events) / ingest_s;
  size_t queue_hw_max = 0;
  double queue_hw_sum = 0;
  for (int k = 0; k < shards; ++k) {
    queue_hw_max = std::max(queue_hw_max, bus.queue_high_water(k));
    queue_hw_sum += static_cast<double>(bus.queue_high_water(k));
  }
  const uint64_t bus_rejected = bus.rejected();
  const uint64_t bus_apply_errors = bus.apply_errors();
  // Per-shard apply rates over the ingest window, plus the sampled bus
  // stage quantiles (glint.fleet.bus.* — 1-in-2^shift messages timed).
  std::vector<double> shard_events_per_sec;
  shard_events_per_sec.reserve(static_cast<size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    shard_events_per_sec.push_back(static_cast<double>(bus.applied(k)) /
                                   ingest_s);
  }
  auto& reg = obs::Registry::Global();
  obs::Histogram* qw_hist = reg.GetHistogram("glint.fleet.bus.queue_wait_ms");
  obs::Histogram* ap_hist = reg.GetHistogram("glint.fleet.bus.apply_ms");
  const double queue_wait_us_p50 = qw_hist->Quantile(0.50) * 1e3;
  const double queue_wait_us_p99 = qw_hist->Quantile(0.99) * 1e3;
  const double apply_us_p50 = ap_hist->Quantile(0.50) * 1e3;
  const double apply_us_p99 = ap_hist->Quantile(0.99) * 1e3;
  bus.Stop();
  std::printf("%-38s %12.0f  (%d producers; queue hw max %zu avg %.0f)\n",
              "bus events/sec", bus_events_per_sec, producers, queue_hw_max,
              queue_hw_sum / shards);
  std::printf("%-38s %12.1f  (p99 %.1f; sampled)\n", "bus queue-wait p50 us",
              queue_wait_us_p50, queue_wait_us_p99);
  std::printf("%-38s %12.1f  (p99 %.1f; sampled)\n", "bus apply p50 us",
              apply_us_p50, apply_us_p99);

  // ---- Inspect: sampled per-home latency, then the batched full sweep ---
  const double now = 0.4 + 0.01 * (kEventRounds * homes) + 1.0;
  const int samples = std::min(homes, 256);
  const int stride = std::max(1, homes / samples);
  std::vector<double> inspect_ms;
  inspect_ms.reserve(static_cast<size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    const auto& id = ids[static_cast<size_t>(s * stride)];
    auto ti = std::chrono::steady_clock::now();
    if (!fleet.TryInspect(id, now).ok()) {
      std::fprintf(stderr, "TryInspect(%s) failed\n", id.c_str());
      return 1;
    }
    inspect_ms.push_back(Seconds(ti) * 1e3);
  }
  const double inspect_p50 = Percentile(inspect_ms, 0.50);
  const double inspect_p99 = Percentile(inspect_ms, 0.99);

  t0 = std::chrono::steady_clock::now();
  fleet::FleetWarnings all = fleet.InspectAll(now, /*max_batch=*/64);
  const double inspect_all_s = Seconds(t0);
  const double inspect_homes_per_sec = homes / inspect_all_s;
  if (all.ids.size() != static_cast<size_t>(homes)) {
    std::fprintf(stderr, "InspectAll covered %zu of %d homes\n",
                 all.ids.size(), homes);
    return 1;
  }
  std::printf("%-38s %12.2f  (p99 %.2f; %d sampled)\n",
              "inspect p50 ms", inspect_p50, inspect_p99, samples);
  std::printf("%-38s %12.0f  (full sweep %.2fs, batch 64)\n",
              "InspectAll homes/sec", inspect_homes_per_sec, inspect_all_s);

  // ---- Identity gate: a 64-home sample vs a single engine ---------------
  bool identity_ok = true;
  {
    core::ServingEngine single(&detector);
    const int n = std::min(homes, 64);
    const int id_stride = std::max(1, homes / n);
    for (int s = 0; s < n; ++s) {
      const int i = s * id_stride;
      const auto& id = ids[static_cast<size_t>(i)];
      if (!single.TryAddHome(id, DeployedFor(pool, i)).ok()) return 1;
      for (int r = 0; r < kEventRounds; ++r) {
        if (!single.TryOnEvent(id, EventAt(pool, i, r)).ok()) return 1;
      }
      auto lhs = fleet.TryInspect(id, now);
      auto rhs = single.TryInspect(id, now);
      if (!lhs.ok() || !rhs.ok() ||
          lhs.value().Render() != rhs.value().Render()) {
        identity_ok = false;
      }
    }
    std::printf("%-38s %12s  (%d-home sample)\n", "fleet == single engine",
                identity_ok ? "yes" : "NO — DETERMINISM BUG", n);
  }

  // ---- Wire: loopback TCP through FleetServer ---------------------------
  FleetServer server(&fleet, {});
  if (!server.Start().ok()) {
    std::fprintf(stderr, "FleetServer failed to start\n");
    return 1;
  }
  const int pings = smoke ? 200 : 1000;
  std::vector<double> ping_us;
  ping_us.reserve(static_cast<size_t>(pings));
  {
    fleet::wire::Client client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      std::fprintf(stderr, "wire client connect failed\n");
      return 1;
    }
    fleet::wire::Request req;
    fleet::wire::Reply reply;
    req.type = fleet::wire::MsgType::kPing;
    for (int i = 0; i < pings; ++i) {
      auto ti = std::chrono::steady_clock::now();
      if (!client.Call(req, &reply).ok()) {
        std::fprintf(stderr, "wire ping failed\n");
        return 1;
      }
      ping_us.push_back(Seconds(ti) * 1e6);
    }
  }
  const double ping_p50 = Percentile(ping_us, 0.50);
  const double ping_p99 = Percentile(ping_us, 0.99);

  // Multi-connection event ingestion over the socket: each connection owns
  // a strided partition of existing homes; acks are accepted-acks, so this
  // measures the framed request/ack round-trip rate, end to end.
  const int conns = smoke ? 2 : 4;
  const int wire_events_per_conn = smoke ? 250 : 2500;
  std::vector<int> wire_failures(static_cast<size_t>(conns), 0);
  t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(conns));
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        fleet::wire::Client client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          wire_failures[static_cast<size_t>(c)] = wire_events_per_conn;
          return;
        }
        fleet::wire::Request req;
        fleet::wire::Reply reply;
        req.type = fleet::wire::MsgType::kEventBatch;
        for (int i = 0; i < wire_events_per_conn; ++i) {
          const int h = (c + i * conns) % homes;
          req.home = ids[static_cast<size_t>(h)];
          req.events = {EventFor(pool[static_cast<size_t>(h % kPoolSize)],
                                 now + 0.01 * (i + 1))};
          if (!client.Call(req, &reply).ok() || reply.code != 0) {
            ++wire_failures[static_cast<size_t>(c)];
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double wire_s = Seconds(t0);
  const uint64_t wire_events =
      static_cast<uint64_t>(conns) * wire_events_per_conn;
  const double wire_events_per_sec = static_cast<double>(wire_events) / wire_s;
  int wire_failed = 0;
  for (int f : wire_failures) wire_failed += f;
  server.bus().Flush();
  const uint64_t wire_apply_errors = server.bus().apply_errors();
  std::printf("%-38s %12.1f  (p99 %.1f us, %d pings)\n", "wire ping p50 us",
              ping_p50, ping_p99, pings);
  std::printf("%-38s %12.0f  (%d conns x %d events; %d failed)\n",
              "wire events/sec", wire_events_per_sec, conns,
              wire_events_per_conn, wire_failed);

  // ---- Pipelining: one connection, batch-of-one frames, varying depth ---
  // depth 1 is the lockstep request/ack baseline (one RTT per event —
  // the pre-pipelining client behavior); deeper windows hide the RTT.
  const int kDepths[] = {1, 16, 256};
  double depth_events_per_sec[3] = {0, 0, 0};
  const int pipeline_events = smoke ? 1500 : 6000;
  bool pipeline_failed = false;
  for (size_t di = 0; di < 3; ++di) {
    const size_t depth = static_cast<size_t>(kDepths[di]);
    fleet::wire::Client::Options copt;
    copt.max_window = depth;
    fleet::wire::Client client(copt);
    if (!client.Connect("127.0.0.1", server.port()).ok()) return 1;
    fleet::wire::Request req;
    fleet::wire::Reply reply;
    req.type = fleet::wire::MsgType::kEventBatch;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < pipeline_events; ++i) {
      const int h = i % homes;
      req.home = ids[static_cast<size_t>(h)];
      req.events = {EventFor(pool[static_cast<size_t>(h % kPoolSize)],
                             now + 1.0 + 0.01 * (i + 1))};
      while (client.pending() >= depth) {
        if (!client.Recv(&reply).ok() || reply.code != 0) {
          pipeline_failed = true;
        }
      }
      if (!client.Send(req).ok()) pipeline_failed = true;
    }
    while (client.pending() > 0) {
      if (!client.Recv(&reply).ok() || reply.code != 0) {
        pipeline_failed = true;
      }
    }
    depth_events_per_sec[di] =
        static_cast<double>(pipeline_events) / Seconds(t0);
    std::printf("%-38s %12.0f  (%d events, window %d)\n",
                ("wire events/sec @depth " + std::to_string(kDepths[di]))
                    .c_str(),
                depth_events_per_sec[di], pipeline_events, kDepths[di]);
  }

  // ---- Batched frames under pipelining, with inspects riding the load ---
  // The headline C10k number: kEventBatch frames of `kBatch` events, a
  // 16-deep window, while a second connection keeps inspecting — tail
  // read latency is measured UNDER ingest load, not on an idle server.
  const uint32_t kBatch = 64;
  const int batch_frames_total = smoke ? 100 : 1000;
  std::atomic<bool> ingest_done{false};
  std::atomic<int> batch_failures{0};
  std::vector<double> loaded_inspect_ms;
  double batched_events_per_sec = 0;
  {
    // Connect the inspector BEFORE ingest starts so its reads genuinely
    // overlap the batch stream (smoke ingest is over in milliseconds),
    // and take a minimum number of samples either way.
    fleet::wire::Client inspect_client;
    if (!inspect_client.Connect("127.0.0.1", server.port()).ok()) return 1;
    std::thread inspector([&] {
      fleet::wire::Request req;
      fleet::wire::Reply reply;
      req.type = fleet::wire::MsgType::kInspect;
      // Past every batch event's stamp: inspect time may never trail the
      // home's event watermark.
      req.now_hours = now + 100.0;
      int i = 0;
      while (!ingest_done.load(std::memory_order_relaxed) || i < 16) {
        req.home = ids[static_cast<size_t>((i * 37) % homes)];
        auto ti = std::chrono::steady_clock::now();
        if (!inspect_client.Call(req, &reply).ok() || reply.code != 0) break;
        loaded_inspect_ms.push_back(Seconds(ti) * 1e3);
        ++i;
      }
    });
    fleet::wire::Client::Options copt;
    copt.max_window = 16;
    fleet::wire::Client client(copt);
    if (!client.Connect("127.0.0.1", server.port()).ok()) return 1;
    fleet::wire::Request req;
    fleet::wire::Reply reply;
    t0 = std::chrono::steady_clock::now();
    for (int f = 0; f < batch_frames_total; ++f) {
      const int h = f % homes;
      req = fleet::wire::Request();
      req.type = fleet::wire::MsgType::kEventBatch;
      req.home = ids[static_cast<size_t>(h)];
      for (uint32_t j = 0; j < kBatch; ++j) {
        req.events.push_back(
            EventFor(pool[static_cast<size_t>((h + static_cast<int>(j)) %
                                              kPoolSize)],
                     now + 2.0 + 0.01 * (f * static_cast<int>(kBatch) +
                                         static_cast<int>(j) + 1)));
      }
      while (client.pending() >= copt.max_window) {
        if (!client.Recv(&reply).ok() || reply.code != 0 ||
            reply.batch_events != kBatch) {
          batch_failures.fetch_add(1);
        }
      }
      if (!client.Send(req).ok()) batch_failures.fetch_add(1);
    }
    while (client.pending() > 0) {
      if (!client.Recv(&reply).ok() || reply.code != 0) {
        batch_failures.fetch_add(1);
      }
    }
    batched_events_per_sec =
        static_cast<double>(batch_frames_total) * kBatch / Seconds(t0);
    ingest_done.store(true);
    inspector.join();
  }
  const double batch_speedup =
      depth_events_per_sec[0] > 0
          ? batched_events_per_sec / depth_events_per_sec[0]
          : 0;
  const double loaded_inspect_p50 = Percentile(loaded_inspect_ms, 0.50);
  const double loaded_inspect_p99 = Percentile(loaded_inspect_ms, 0.99);
  std::printf("%-38s %12.0f  (batch %u, window 16; %.1fx depth-1)\n",
              "wire batched events/sec", batched_events_per_sec, kBatch,
              batch_speedup);
  std::printf("%-38s %12.2f  (p99 %.2f; %zu under ingest load)\n",
              "wire inspect-under-load p50 ms", loaded_inspect_p50,
              loaded_inspect_p99, loaded_inspect_ms.size());

  // ---- Batch decode cost (the per-frame CPU batching amortizes) ---------
  std::vector<double> decode_us;
  size_t batch_payload_bytes = 0;
  {
    fleet::wire::Request proto;
    proto.type = fleet::wire::MsgType::kEventBatch;
    proto.home = ids[0];
    for (uint32_t j = 0; j < kBatch; ++j) {
      proto.events.push_back(
          EventFor(pool[static_cast<size_t>(j % kPoolSize)], 1.0 + j));
    }
    const auto payload = fleet::wire::EncodeRequest(proto);
    batch_payload_bytes = payload.size();
    decode_us.reserve(256);
    for (int i = 0; i < 256; ++i) {
      fleet::wire::Request out;
      auto ti = std::chrono::steady_clock::now();
      if (!fleet::wire::DecodeRequest(payload, &out).ok()) return 1;
      decode_us.push_back(Seconds(ti) * 1e6);
    }
  }
  const double batch_decode_us_p50 = Percentile(decode_us, 0.50);
  std::printf("%-38s %12.2f  (batch %u, %zu-byte payload)\n",
              "batch decode p50 us", batch_decode_us_p50, kBatch,
              batch_payload_bytes);

  // ---- Idle connections: what a held connection costs -------------------
  const int idle_conns = smoke ? 200 : 500;
  double idle_conn_kb = 0;
  size_t open_conns = 0;
  {
    const long rss_before = RssKb();
    std::vector<std::unique_ptr<fleet::wire::Client>> idlers;
    idlers.reserve(static_cast<size_t>(idle_conns));
    for (int i = 0; i < idle_conns; ++i) {
      auto c = std::make_unique<fleet::wire::Client>();
      if (!c->Connect("127.0.0.1", server.port()).ok()) break;
      idlers.push_back(std::move(c));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.open_connections() < idlers.size() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    open_conns = server.open_connections();
    const long rss_after = RssKb();
    if (!idlers.empty() && rss_after > rss_before) {
      idle_conn_kb = static_cast<double>(rss_after - rss_before) /
                     static_cast<double>(idlers.size());
    }
    std::printf("%-38s %12zu  (~%.1f KiB RSS each, %d io workers)\n",
                "idle connections held", open_conns, idle_conn_kb,
                server.io_workers());
  }
  server.bus().Flush();
  const uint64_t apply_errors_total = server.bus().apply_errors();
  server.Stop();

  // ---- Overload: offered load >= 2x the sustainable pipelined rate ------
  // A dedicated server with a tiny kReject bus (capacity 64) is driven at
  // twice the window-16 ingest rate measured above (full speed if the
  // sender cannot reach that). Overload is made by construction, not left
  // to a race between the sender and the consumers: the next shard
  // consumer to loop stalls for kOverloadStallMs, far longer than the
  // sender takes to fill its 64-slot queue and well inside the bus's
  // wedge timeout (1000 ms). The survivability contract under test:
  // every offered event is answered — acked OK and applied, or answered
  // kOverloaded (queue reject or health shed) — nothing is dropped
  // silently and nothing crashes; inspects riding the overload keep a
  // bounded tail because the 100ms deadline sheds what would answer late.
  uint64_t ov_offered = 0;
  uint64_t ov_ok = 0;
  uint64_t ov_shed = 0;
  uint64_t ov_other = 0;
  uint64_t ov_applied = 0;
  uint64_t ov_inspect_served = 0;
  uint64_t ov_inspect_shed = 0;
  double ov_inspect_p50 = 0;
  double ov_inspect_p99 = 0;
  const double ov_target_rate = 2.0 * depth_events_per_sec[1];
  {
    FleetServer::Config oc;
    oc.bus.capacity = 64;
    oc.bus.policy = EventBus::Backpressure::kReject;
    oc.bus.watchdog_interval_ms = 5;
    oc.bus.retry_after_ms = 5;
    FleetServer oserver(&fleet, oc);
    if (!oserver.Start().ok()) {
      std::fprintf(stderr, "overload server failed to start\n");
      return 1;
    }
    std::atomic<bool> ov_done{false};
    std::vector<double> ov_inspect_ms;
    std::thread ov_inspector([&] {
      fleet::wire::Client c;
      if (!c.Connect("127.0.0.1", oserver.port()).ok()) return;
      fleet::wire::Request req;
      fleet::wire::Reply reply;
      int j = 0;
      while (!ov_done.load(std::memory_order_relaxed) || j < 8) {
        req = fleet::wire::Request();
        req.type = fleet::wire::MsgType::kInspect;
        req.home = ids[static_cast<size_t>((j * 13) % homes)];
        // Past every event the sender stamps (now + 300 + 0.01 * i), so
        // TryInspect never sees a time before a home's newest event.
        req.now_hours = now + 1000.0;
        req.deadline_ms = 100;
        auto ti = std::chrono::steady_clock::now();
        if (!c.Call(req, &reply).ok()) break;
        if (reply.code == 0) {
          ov_inspect_ms.push_back(Seconds(ti) * 1e3);
          ++ov_inspect_served;
        } else if (reply.code ==
                   static_cast<int32_t>(StatusCode::kOverloaded)) {
          ++ov_inspect_shed;  // deadline expired in queue, or shard down
        } else {
          break;
        }
        ++j;
      }
    });
    fleet::wire::Client::Options copt;
    copt.max_window = 256;
    copt.auto_reconnect = false;  // one attempt per event: exact books
    fleet::wire::Client client(copt);
    if (!client.Connect("127.0.0.1", oserver.port()).ok()) return 1;
    fleet::wire::Request req;
    fleet::wire::Reply reply;
    bool ov_transport_failed = false;
    auto account = [&](const fleet::wire::Reply& r) {
      if (r.code == 0) {
        ++ov_ok;
      } else if (r.code == static_cast<int32_t>(StatusCode::kOverloaded)) {
        ++ov_shed;
      } else {
        ++ov_other;
      }
    };
    const int ov_total = smoke ? 4000 : 20000;
    constexpr int kOverloadStallMs = 300;
    fault::Registry::Global().Arm("fleet.bus.consumer.run",
                                  fault::Mode::kDelay, 1, kOverloadStallMs);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < ov_total && !ov_transport_failed; ++i) {
      // Pace to the 2x target; a sender that cannot reach it just runs
      // flat out, which is >= 2x sustainable by definition of "cannot".
      const double due_s =
          ov_target_rate > 0 ? static_cast<double>(i) / ov_target_rate : 0;
      while (Seconds(t0) < due_s) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const int h = i % homes;
      req = fleet::wire::Request();
      req.type = fleet::wire::MsgType::kEventBatch;
      req.home = ids[static_cast<size_t>(h)];
      req.events = {EventFor(pool[static_cast<size_t>(h % kPoolSize)],
                             now + 300.0 + 0.01 * (i + 1))};
      while (client.pending() >= copt.max_window) {
        if (!client.Recv(&reply).ok()) {
          ov_transport_failed = true;
          break;
        }
        account(reply);
      }
      if (ov_transport_failed) break;
      if (!client.Send(req).ok()) {
        ov_transport_failed = true;
        break;
      }
      ++ov_offered;
    }
    while (!ov_transport_failed && client.pending() > 0) {
      if (!client.Recv(&reply).ok()) {
        ov_transport_failed = true;
        break;
      }
      account(reply);
    }
    const double ov_s = Seconds(t0);
    ov_done.store(true);
    ov_inspector.join();
    oserver.bus().Flush();
    fault::Registry::Global().Disarm("fleet.bus.consumer.run");
    for (int k = 0; k < shards; ++k) {
      ov_applied += oserver.bus().applied_events(k);
    }
    oserver.Stop();
    if (ov_transport_failed) {
      std::fprintf(stderr, "overload leg: transport failure\n");
      return 1;
    }
    ov_inspect_p50 = Percentile(ov_inspect_ms, 0.50);
    ov_inspect_p99 = Percentile(ov_inspect_ms, 0.99);
    std::printf("%-38s %12.0f  (offered %llu in %.2fs; target %.0f/s)\n",
                "overload offered events/sec",
                static_cast<double>(ov_offered) / ov_s,
                static_cast<unsigned long long>(ov_offered), ov_s,
                ov_target_rate);
    std::printf("%-38s %12llu  (shed %llu, applied %llu, other %llu)\n",
                "overload acked ok",
                static_cast<unsigned long long>(ov_ok),
                static_cast<unsigned long long>(ov_shed),
                static_cast<unsigned long long>(ov_applied),
                static_cast<unsigned long long>(ov_other));
    std::printf("%-38s %12.2f  (p99 %.2f; served %llu, shed %llu)\n",
                "overload inspect p50 ms", ov_inspect_p50, ov_inspect_p99,
                static_cast<unsigned long long>(ov_inspect_served),
                static_cast<unsigned long long>(ov_inspect_shed));
  }

  JsonWriter json;
  json.Str("bench", "fleet");
  json.Int("homes", homes);
  json.Int("shards", shards);
  json.Int("producers", producers);
  json.Num("register_per_sec", register_per_sec, 0);
  json.Int("shard_homes_min", static_cast<long long>(shard_min));
  json.Int("shard_homes_max", static_cast<long long>(shard_max));
  json.Num("bus_events_per_sec", bus_events_per_sec, 0);
  json.Nums("shard_events_per_sec", shard_events_per_sec, 0);
  json.Num("queue_wait_us_p50", queue_wait_us_p50, 1);
  json.Num("queue_wait_us_p99", queue_wait_us_p99, 1);
  json.Num("apply_us_p50", apply_us_p50, 1);
  json.Num("apply_us_p99", apply_us_p99, 1);
  json.Int("bus_queue_hw_max", static_cast<long long>(queue_hw_max));
  json.Num("bus_queue_hw_avg", queue_hw_sum / shards, 1);
  json.Int("bus_rejected", static_cast<long long>(bus_rejected));
  json.Int("bus_apply_errors", static_cast<long long>(bus_apply_errors));
  json.Num("inspect_p50_ms", inspect_p50);
  json.Num("inspect_p99_ms", inspect_p99);
  json.Num("inspect_all_s", inspect_all_s, 2);
  json.Num("inspect_homes_per_sec", inspect_homes_per_sec, 0);
  json.Bool("identity_sample_ok", identity_ok);
  json.Num("wire_ping_p50_us", ping_p50, 1);
  json.Num("wire_ping_p99_us", ping_p99, 1);
  json.Num("wire_events_per_sec", wire_events_per_sec, 0);
  json.Int("wire_failed", wire_failed);
  json.Int("wire_apply_errors", static_cast<long long>(wire_apply_errors));
  json.Num("wire_events_per_sec_depth1", depth_events_per_sec[0], 0);
  json.Num("wire_events_per_sec_depth16", depth_events_per_sec[1], 0);
  json.Num("wire_events_per_sec_depth256", depth_events_per_sec[2], 0);
  json.Num("wire_batched_events_per_sec", batched_events_per_sec, 0);
  json.Num("batch_speedup_vs_depth1", batch_speedup, 2);
  json.Num("inspect_under_load_p50_ms", loaded_inspect_p50);
  json.Num("inspect_under_load_p99_ms", loaded_inspect_p99);
  json.Num("batch_decode_us_p50", batch_decode_us_p50, 2);
  json.Int("open_conns", static_cast<long long>(open_conns));
  json.Num("idle_conn_kb", idle_conn_kb, 1);
  json.Int("overload_offered", static_cast<long long>(ov_offered));
  json.Int("overload_ok_acked", static_cast<long long>(ov_ok));
  json.Int("overload_shed", static_cast<long long>(ov_shed));
  json.Int("overload_other", static_cast<long long>(ov_other));
  json.Int("overload_applied", static_cast<long long>(ov_applied));
  json.Num("overload_target_events_per_sec", ov_target_rate, 0);
  json.Num("overload_inspect_p50_ms", ov_inspect_p50);
  json.Num("overload_inspect_p99_ms", ov_inspect_p99);
  json.Int("overload_inspect_served",
           static_cast<long long>(ov_inspect_served));
  json.Int("overload_inspect_shed",
           static_cast<long long>(ov_inspect_shed));
  std::printf("BENCH_JSON %s\n", json.Render().c_str());

  if (!identity_ok) return 1;
  if (bus_rejected != 0 || bus_apply_errors != 0) {
    std::fprintf(stderr, "bus lost or failed messages under kBlock\n");
    return 1;
  }
  if (wire_failed != 0 || apply_errors_total != 0 || pipeline_failed ||
      batch_failures.load() != 0) {
    std::fprintf(stderr, "wire leg failed requests\n");
    return 1;
  }
  // The batching gate (tools/check.sh runs this under --smoke): batch-64
  // pipelined ingestion must beat lockstep batch-of-one frames by >= 3x,
  // or the batched path has regressed into per-event costs.
  if (batch_speedup < 3.0) {
    std::fprintf(stderr,
                 "BATCHING REGRESSION: batch-64 %.0f ev/s is only %.2fx "
                 "depth-1 %.0f ev/s (gate: >= 3x)\n",
                 batched_events_per_sec, batch_speedup,
                 depth_events_per_sec[0]);
    return 1;
  }
  // The overload gate (tools/check.sh greps these fields): every offered
  // event is accounted for — acked OK (and applied exactly once) or
  // answered kOverloaded. Anything else is silent loss or a wrong error.
  if (ov_ok + ov_shed + ov_other != ov_offered || ov_other != 0) {
    std::fprintf(stderr,
                 "OVERLOAD ACCOUNTING BROKEN: offered %llu != ok %llu + "
                 "shed %llu (+ %llu non-overload errors)\n",
                 static_cast<unsigned long long>(ov_offered),
                 static_cast<unsigned long long>(ov_ok),
                 static_cast<unsigned long long>(ov_shed),
                 static_cast<unsigned long long>(ov_other));
    return 1;
  }
  if (ov_applied != ov_ok) {
    std::fprintf(stderr,
                 "OVERLOAD APPLY MISMATCH: %llu events applied but %llu "
                 "acked OK (at-least-once leak or lost ack)\n",
                 static_cast<unsigned long long>(ov_applied),
                 static_cast<unsigned long long>(ov_ok));
    return 1;
  }
  if (ov_shed == 0) {
    std::fprintf(stderr,
                 "OVERLOAD LEG NEVER OVERLOADED: %llu offered, all acked — "
                 "the 2x-rate driver is not saturating the kReject bus\n",
                 static_cast<unsigned long long>(ov_offered));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace glint::bench

int main(int argc, char** argv) {
  bool smoke = false;
  int homes = 0;
  int shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--homes") == 0 && i + 1 < argc) {
      homes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_fleet [--smoke] [--homes N] [--shards K]\n");
      return 2;
    }
  }
  if (homes <= 0) homes = smoke ? 400 : 10000;
  if (shards <= 0) shards = smoke ? 4 : 8;
  return glint::bench::Run(homes, shards, smoke);
}
