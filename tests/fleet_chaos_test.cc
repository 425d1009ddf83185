// Fleet survivability proof obligations (DESIGN.md §16):
//   1. Overload detector: hysteresis on the queue-wait p99, a depth
//      trigger that needs no samples, and an idle-exit path so a shard
//      that sheds (and therefore measures nothing) can still recover.
//   2. Chaos matrix: with every fleet fault point (client send/recv,
//      server accept/recv/send, bus post) failing at varied positions, a
//      sequenced retrying client converges on fingerprints BIT-IDENTICAL
//      to a clean run — at-least-once transport, exactly-once apply.
//   3. Supervision: a consumer thread that dies mid-workload is contained
//      (queue intact), its engine re-Recover()ed from the WAL, its queue
//      replayed, and the workload still lands on the clean fingerprint.
//   4. Wedge: a consumer stalled on a non-empty queue flips the shard
//      kDown (shedding mutations AND inspects with retry-after hints);
//      resumed progress heals it.
//   5. Degraded mode: queue-wait p99 over threshold flips kDegraded —
//      mutations shed with the configured hint, kHealth reports it,
//      inspects still answer with a bit-identical verdict — and the shard
//      heals once drained. Telemetry switched off changes none of this.
//   6. Deadlines are enforced at DEQUEUE: an inspect whose deadline
//      expired in the queue is shed (kOverloaded + hint), not served late.
//   7. Graceful drain under live pipelined load: every acked event is
//      applied and snapshotted; a fresh Recover() sees all of it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "fleet/event_bus.h"
#include "fleet/health.h"
#include "fleet/server.h"
#include "fleet/sharding.h"
#include "fleet/wire.h"
#include "obs/registry.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace glint::fleet {
namespace {

using core::TrainedDetector;

constexpr double kInspectHour = 3.5;

const std::vector<HomeId>& ChaosHomes() {
  static const std::vector<HomeId> homes = {"ch-alpha", "ch-bravo",
                                            "ch-charlie", "ch-delta"};
  return homes;
}

class FleetChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool::SetGlobalThreads(1);
    TrainedDetector::Options opts;
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
    detector_ = new TrainedDetector(opts);
    detector_->TrainOffline();

    char tmpl[] = "/tmp/glint_chaos_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    base_dir_ = new std::string(tmpl);
  }

  void SetUp() override { fault::Registry::Global().Clear(); }
  void TearDown() override { fault::Registry::Global().Clear(); }

  static std::string Dir(const std::string& name) {
    return *base_dir_ + "/" + name;
  }

  static std::vector<rules::Rule> RulePool(int n) {
    std::vector<rules::Rule> out(
        detector_->corpus().begin(),
        detector_->corpus().begin() +
            std::min<size_t>(static_cast<size_t>(n),
                             detector_->corpus().size()));
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].id = 9000 + static_cast<int>(i);
    }
    return out;
  }

  static graph::Event EventFor(const rules::Rule& r, double t) {
    graph::Event e;
    e.time_hours = t;
    e.location = r.location;
    e.device = r.trigger.device;
    e.state = r.trigger.state;
    return e;
  }

  /// Full-precision warning fingerprint (%.17a doubles — string equality
  /// is bit identity). Verdict fields only: attribution is legitimately
  /// shed in degraded mode, the verdict never is.
  static std::string VerdictFp(const wire::Reply& r) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17a", r.confidence);
    return std::to_string(r.threat) + "/" + std::to_string(r.drifting) +
           "/" + buf;
  }

  /// Verdict + rendered attribution: what a clean, non-degraded inspect
  /// must reproduce exactly.
  static std::string FullFp(const wire::Reply& r) {
    return VerdictFp(r) + "/" + r.rendered;
  }

  /// Calls with bounded retry over every failure mode the chaos matrix
  /// can produce: transport errors and a poisoned pipeline (reconnect),
  /// kOverloaded (CallRetrying waits out the hint), and error acks from an
  /// injected bus-post failure (the retransmit is dedup-safe because every
  /// event carries a seq). Returns false when the budget is exhausted.
  static bool MustCall(wire::Client* c, int port, const wire::Request& req,
                       wire::Reply* reply) {
    for (int attempt = 0; attempt < 80; ++attempt) {
      if (!c->connected() || !c->poisoned().ok()) {
        (void)c->Connect("127.0.0.1", port);
        if (!c->connected()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
      }
      Status st = c->CallRetrying(req, reply);
      if (st.ok() && reply->code == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// The sequenced workload every chaos leg replays: per home one AddHome,
  /// three 4-event batches (seqs 1..12), two retransmittable singles
  /// (13, 14), then an inspect whose full fingerprint is the run's output.
  static bool RunWorkload(int port,
                          std::map<HomeId, std::string>* out) {
    wire::Client::Options copt;
    copt.backoff_base_ms = 1;
    copt.backoff_max_ms = 8;
    copt.max_retries = 6;
    copt.recv_timeout_ms = 10000;
    wire::Client client(copt);
    auto pool = RulePool(6);
    const auto& homes = ChaosHomes();
    for (size_t i = 0; i < homes.size(); ++i) {
      wire::Request req;
      wire::Reply reply;
      req.type = wire::MsgType::kAddHome;
      req.home = homes[i];
      req.rules = {pool[i % 6], pool[(i + 2) % 6]};
      if (!MustCall(&client, port, req, &reply)) return false;
    }
    for (size_t i = 0; i < homes.size(); ++i) {
      for (int b = 0; b < 3; ++b) {
        wire::Request req;
        wire::Reply reply;
        req.type = wire::MsgType::kEventBatch;
        req.home = homes[i];
        req.seq = static_cast<uint64_t>(4 * b + 1);
        for (int j = 0; j < 4; ++j) {
          const int n = 4 * b + j;
          req.events.push_back(
              EventFor(pool[(i + static_cast<size_t>(n)) % 6],
                       0.5 + 0.2 * n));
        }
        if (!MustCall(&client, port, req, &reply)) return false;
      }
      for (int n = 12; n < 14; ++n) {
        wire::Request req;
        wire::Reply reply;
        req.type = wire::MsgType::kEventBatch;
        req.home = homes[i];
        req.seq = static_cast<uint64_t>(n + 1);
        req.events = {EventFor(pool[(i + static_cast<size_t>(n)) % 6],
                               0.5 + 0.2 * n)};
        if (!MustCall(&client, port, req, &reply)) return false;
      }
    }
    for (const auto& home : homes) {
      wire::Request req;
      wire::Reply reply;
      req.type = wire::MsgType::kInspect;
      req.home = home;
      req.now_hours = kInspectHour;
      // A restart's replay burst can leave a shard transiently degraded;
      // the fingerprint wants the full answer, so wait out the heal.
      bool full = false;
      for (int attempt = 0; attempt < 300 && !full; ++attempt) {
        if (!MustCall(&client, port, req, &reply)) return false;
        full = !reply.degraded;
        if (!full) std::this_thread::sleep_for(
            std::chrono::milliseconds(5));
      }
      if (!full) return false;
      (*out)[home] = FullFp(reply);
    }
    client.Close();
    return true;
  }

  /// The clean-run fingerprints every fault leg must converge on.
  /// Computed once, with no faults armed.
  static const std::map<HomeId, std::string>& Reference() {
    static const std::map<HomeId, std::string> ref = [] {
      std::map<HomeId, std::string> m;
      FleetConfig cfg;
      cfg.num_shards = 3;
      ShardedFleet fleet(detector_, cfg);
      FleetServer server(&fleet, {});
      if (!server.Start().ok()) return m;
      if (!RunWorkload(server.port(), &m)) m.clear();
      server.Stop();
      return m;
    }();
    return ref;
  }

  /// Scenario 5 (degraded mode): queue waits past enter_ms flip the shard
  /// kDegraded, mutations shed with the configured hint, a degraded
  /// inspect still answers bit-identically, and the drained shard heals.
  static void RunOverloadScenario();

  static TrainedDetector* detector_;
  static std::string* base_dir_;
};

TrainedDetector* FleetChaosTest::detector_ = nullptr;
std::string* FleetChaosTest::base_dir_ = nullptr;

// ---- 1. Overload detector unit ------------------------------------------

TEST_F(FleetChaosTest, OverloadDetectorHysteresisAndIdleExit) {
  OverloadDetector::Config cfg;
  cfg.enter_ms = 100.0;
  cfg.exit_ms = 10.0;
  cfg.window = 4;
  cfg.recover_ticks = 2;

  OverloadDetector d(cfg);
  EXPECT_FALSE(d.Tick(false)) << "empty window must read healthy";
  for (int i = 0; i < 4; ++i) d.Observe(200.0);
  EXPECT_TRUE(d.Tick(false)) << "p99 over enter_ms must trip";
  // Calm samples displace the window; recovery takes recover_ticks
  // CONSECUTIVE calm ticks, so the first one is still overloaded.
  for (int i = 0; i < 4; ++i) d.Observe(1.0);
  EXPECT_TRUE(d.Tick(false));
  EXPECT_FALSE(d.Tick(false));
  EXPECT_FALSE(d.Tick(false)) << "exit clears the stale window";

  // A stuffed queue trips the detector before any wait was ever measured.
  OverloadDetector depth(cfg);
  EXPECT_TRUE(depth.Tick(true));

  // Idle exit: a shedding shard measures no new waits, so without the
  // idle clause the stale hot window would pin it degraded forever.
  OverloadDetector idle(cfg);
  for (int i = 0; i < 4; ++i) idle.Observe(200.0);
  EXPECT_TRUE(idle.Tick(false));
  EXPECT_TRUE(idle.Tick(false, /*idle=*/false)) << "hot window, not idle";
  EXPECT_TRUE(idle.Tick(false, /*idle=*/true));  // calm tick 1 of 2
  EXPECT_FALSE(idle.Tick(false, /*idle=*/true));
  EXPECT_FALSE(idle.Tick(false)) << "idle exit also drops the window";

  // An interrupted recovery starts over.
  OverloadDetector flap(cfg);
  for (int i = 0; i < 4; ++i) flap.Observe(200.0);
  EXPECT_TRUE(flap.Tick(false));
  EXPECT_TRUE(flap.Tick(false, /*idle=*/true));  // calm tick 1
  EXPECT_TRUE(flap.Tick(true));                  // depth spike: reset calm
  EXPECT_TRUE(flap.Tick(false, /*idle=*/true));  // calm tick 1 again
  EXPECT_FALSE(flap.Tick(false, /*idle=*/true));

  OverloadDetector reset(cfg);
  for (int i = 0; i < 4; ++i) reset.Observe(200.0);
  EXPECT_TRUE(reset.Tick(false));
  reset.Reset();
  EXPECT_FALSE(reset.overloaded());
  EXPECT_FALSE(reset.Tick(false));
}

// ---- 2. Chaos matrix ----------------------------------------------------

TEST_F(FleetChaosTest, FaultMatrixConvergesOnTheCleanFingerprint) {
  const auto& want = Reference();
  ASSERT_EQ(want.size(), ChaosHomes().size())
      << "clean reference run failed";

  // (point, nth) pairs chosen so each fault actually fires inside the
  // workload: accept is hit once per connection, the others dozens of
  // times, so deeper positions exercise mid-stream failures.
  const std::vector<std::pair<std::string, int>> matrix = {
      {"fleet.wire.send", 1},    {"fleet.wire.send", 4},
      {"fleet.wire.recv", 1},    {"fleet.wire.recv", 4},
      {"fleet.server.accept", 1},
      {"fleet.server.recv", 1},  {"fleet.server.recv", 2},
      {"fleet.server.send", 1},  {"fleet.server.send", 3},
      {"fleet.bus.post", 1},     {"fleet.bus.post", 5},
  };
  for (const auto& [point, nth] : matrix) {
    SCOPED_TRACE(point + " nth=" + std::to_string(nth));
    fault::Registry::Global().Clear();
    fault::Registry::Global().Arm(point, fault::Mode::kFail, nth);

    FleetConfig cfg;
    cfg.num_shards = 3;
    ShardedFleet fleet(detector_, cfg);
    FleetServer server(&fleet, {});
    ASSERT_TRUE(server.Start().ok());
    std::map<HomeId, std::string> got;
    ASSERT_TRUE(RunWorkload(server.port(), &got))
        << "workload did not converge under the injected fault";
    // The fault must actually have fired — a matrix of unreachable
    // faults proves nothing.
    EXPECT_GE(fault::Registry::Global().hits(point),
              static_cast<uint64_t>(nth));
    server.Stop();
    fault::Registry::Global().Clear();
    EXPECT_EQ(got, want);
  }
}

// ---- 3. Consumer death: contained, restarted, lossless ------------------

TEST_F(FleetChaosTest, ConsumerDeathIsContainedRestartedAndLossless) {
  const auto& want = Reference();  // resolve BEFORE arming the fault
  ASSERT_EQ(want.size(), ChaosHomes().size());

  FleetConfig cfg;
  cfg.num_shards = 3;
  cfg.state_dir = Dir("supervise");
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.Recover().ok());
  FleetServer::Config sc;
  sc.bus.watchdog_interval_ms = 5;  // restart within one workload beat
  FleetServer server(&fleet, sc);
  ASSERT_TRUE(server.Start().ok());

  // The 10th loop-top hit kills whichever consumer gets there mid-stream;
  // its queue stays intact, the watchdog re-Recovers the engine from the
  // shard WAL and replays the queue (seq dedup makes that exactly-once).
  fault::Registry::Global().Arm("fleet.bus.consumer.run",
                                fault::Mode::kFail, 10);
  std::map<HomeId, std::string> got;
  ASSERT_TRUE(RunWorkload(server.port(), &got));
  EXPECT_GE(fault::Registry::Global().hits("fleet.bus.consumer.run"), 10u);
  EXPECT_EQ(got, want);

  // The death was real and supervised: some shard restarted.
  uint64_t restarts = 0;
  for (int waited = 0; waited < 400; ++waited) {
    restarts = 0;
    for (int k = 0; k < cfg.num_shards; ++k) {
      restarts += server.bus().restarts(k);
    }
    if (restarts >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(restarts, 1u);
  server.Stop();
}

// ---- 4. Wedged consumer: kDown, shed, heal ------------------------------

TEST_F(FleetChaosTest, WedgedConsumerFlipsDownShedsAndHeals) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer::Config sc;
  sc.bus.watchdog_interval_ms = 5;
  sc.bus.wedge_timeout_ms = 40;
  sc.bus.timing_sample_shift = 20;  // blind the p99 detector: this test
                                    // isolates the wedge state machine
  FleetServer server(&fleet, sc);
  ASSERT_TRUE(server.Start().ok());

  const HomeId home = "wg-alpha";
  const int k = fleet.ShardOf(home);
  auto pool = RulePool(4);
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kAddHome;
  req.home = home;
  req.rules = {pool[0], pool[1]};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;

  // Stall the consumer mid-apply, then queue work behind it: a non-empty
  // queue with no drain progress past wedge_timeout_ms is a wedge.
  std::thread staller([&server, k] {
    (void)server.bus().RunOnShard(k, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (int i = 0; i < 2; ++i) {
    req = wire::Request();
    req.type = wire::MsgType::kEventBatch;
    req.home = home;
    req.seq = static_cast<uint64_t>(i + 1);
    req.events = {EventFor(pool[i % 2], 0.5 + 0.3 * i)};
    ASSERT_TRUE(client.Call(req, &reply).ok());
    ASSERT_EQ(reply.code, 0) << reply.message;
  }
  ShardHealth h = ShardHealth::kHealthy;
  for (int waited = 0; waited < 400; ++waited) {
    h = server.bus().health(k);
    if (h == ShardHealth::kDown) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(h, ShardHealth::kDown);

  // Mutations shed with the retry hint; the ack is the error, nothing
  // was enqueued.
  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = home;
  req.seq = 3;
  req.events = {EventFor(pool[0], 1.4)};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, static_cast<int32_t>(StatusCode::kOverloaded));
  EXPECT_NE(reply.message.find("down"), std::string::npos) << reply.message;
  EXPECT_EQ(reply.retry_after_ms, 50u);  // bus default

  // Inspects never queue behind a wedged consumer: immediate shed.
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = home;
  req.now_hours = kInspectHour;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, static_cast<int32_t>(StatusCode::kOverloaded));

  // kHealth answers from atomics even while the shard is wedged.
  req = wire::Request();
  req.type = wire::MsgType::kHealth;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kHealthReply);
  EXPECT_EQ(reply.fleet_health,
            static_cast<uint8_t>(ShardHealth::kDown));
  ASSERT_EQ(reply.shard_health.size(), 2u);
  EXPECT_EQ(reply.shard_health[static_cast<size_t>(k)].state,
            static_cast<uint8_t>(ShardHealth::kDown));
  EXPECT_GE(reply.shard_health[static_cast<size_t>(k)].overload_shed, 2u);

  // Progress resumes when the stall ends; the watchdog heals the shard.
  staller.join();
  for (int waited = 0; waited < 1000; ++waited) {
    h = server.bus().health(k);
    if (h == ShardHealth::kHealthy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(h, ShardHealth::kHealthy);
  wire::Client::Options ropt;
  ropt.backoff_base_ms = 1;
  ropt.backoff_max_ms = 8;
  wire::Client retrier(ropt);
  ASSERT_TRUE(retrier.Connect("127.0.0.1", server.port()).ok());
  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = home;
  req.seq = 3;
  req.events = {EventFor(pool[0], 1.4)};
  ASSERT_TRUE(retrier.CallRetrying(req, &reply).ok());
  EXPECT_EQ(reply.code, 0) << reply.message;
  server.Stop();
}

// ---- 5. Degraded mode: shed with hints, serve verdicts, heal ------------

void FleetChaosTest::RunOverloadScenario() {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer::Config sc;
  sc.bus.watchdog_interval_ms = 5;
  sc.bus.wedge_timeout_ms = 10000;  // keep the wedge path out of this test
  sc.bus.timing_sample_shift = 0;   // every message feeds the detector
  sc.bus.overload.enter_ms = 5.0;
  sc.bus.overload.exit_ms = 1.0;
  sc.bus.overload.window = 16;
  sc.bus.overload.recover_ticks = 2;
  sc.bus.retry_after_ms = 37;

  const HomeId home = "ov-alpha";
  const int k = fleet.ShardOf(home);
  auto pool = RulePool(4);
  // Register and warm the home on the engine directly, before the bus
  // exists: events queued behind a cold-cache AddHome apply can wait past
  // enter_ms and degrade the shard before the scenario below has begun.
  ASSERT_TRUE(fleet.TryAddHome(home, {pool[0], pool[1]}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fleet.TryOnEvent(home, EventFor(pool[i % 2], 0.5 + 0.3 * i)).ok());
  }
  FleetServer server(&fleet, sc);
  ASSERT_TRUE(server.Start().ok());
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  wire::Request req;
  wire::Reply reply;

  // Stall A makes the next five events wait ~100ms in the queue; once
  // drained, their sampled waits push the window p99 over enter_ms.
  // Stall B (queued after them) then holds the shard busy — depth 0 but
  // applying, which is NOT idle — so the degraded state is stable while
  // the assertions below run.
  // jthreads: a failed assertion below returns early, and the stalls must
  // still be joined (not terminate the binary) before the server stops.
  std::jthread stall_a([&server, k] {
    (void)server.bus().RunOnShard(k, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 3; i < 8; ++i) {
    req = wire::Request();
    req.type = wire::MsgType::kEventBatch;
    req.home = home;
    req.seq = static_cast<uint64_t>(i + 1);
    req.events = {EventFor(pool[i % 2], 0.6 + 0.25 * i)};
    ASSERT_TRUE(client.Call(req, &reply).ok());
    ASSERT_EQ(reply.code, 0) << reply.message;
  }
  std::jthread stall_b([&server, k] {
    (void)server.bus().RunOnShard(k, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
    });
  });
  stall_a.join();
  ShardHealth h = ShardHealth::kHealthy;
  for (int waited = 0; waited < 500; ++waited) {
    h = server.bus().health(k);
    if (h == ShardHealth::kDegraded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(h, ShardHealth::kDegraded);

  // Mutations shed BEFORE the ack, with the configured hint. Plain Call:
  // CallRetrying would wait out the overload we are asserting on.
  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = home;
  req.seq = 9;
  req.events = {EventFor(pool[0], 2.6)};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, static_cast<int32_t>(StatusCode::kOverloaded));
  EXPECT_NE(reply.message.find("degraded"), std::string::npos)
      << reply.message;
  EXPECT_EQ(reply.retry_after_ms, 37u);

  // The health probe reports the degraded shard and the same hint.
  req = wire::Request();
  req.type = wire::MsgType::kHealth;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kHealthReply);
  EXPECT_EQ(reply.fleet_health,
            static_cast<uint8_t>(ShardHealth::kDegraded));
  EXPECT_EQ(reply.retry_after_ms, 37u);
  ASSERT_EQ(reply.shard_health.size(), 2u);
  EXPECT_EQ(reply.shard_health[static_cast<size_t>(k)].state,
            static_cast<uint8_t>(ShardHealth::kDegraded));
  EXPECT_GE(reply.shard_health[static_cast<size_t>(k)].overload_shed, 1u);

  // A degraded inspect still answers — explainer shed, verdict intact.
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = home;
  req.now_hours = kInspectHour;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;
  EXPECT_TRUE(reply.degraded);
  const std::string degraded_verdict = VerdictFp(reply);

  // Drained and idle, the shard heals within recover_ticks watchdog
  // ticks — the exact starvation the idle-exit path exists for: shedding
  // admits no new samples, so only idleness can testify to calm.
  stall_b.join();
  for (int waited = 0; waited < 1000; ++waited) {
    h = server.bus().health(k);
    if (h == ShardHealth::kHealthy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(h, ShardHealth::kHealthy);

  // Nothing was applied while shedding, so a full-fidelity inspect of the
  // same state must reproduce the degraded verdict bit-for-bit.
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = home;
  req.now_hours = kInspectHour;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(VerdictFp(reply), degraded_verdict);

  // And the healed shard accepts ingest again.
  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = home;
  req.seq = 9;
  req.events = {EventFor(pool[0], 2.6)};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, 0) << reply.message;
  server.Stop();
}

TEST_F(FleetChaosTest, OverloadDegradesShedsWithHintsAndHeals) {
  RunOverloadScenario();
}

// Load shedding is control, not telemetry: with glint::obs switched off
// (GLINT_OBS=off) the bus must still time its sampled queue waits, or the
// overload detector never sees a wait and the shard never degrades.
TEST_F(FleetChaosTest, OverloadDegradesWithTelemetryOff) {
  struct RestoreObs {
    bool was = obs::Enabled();
    ~RestoreObs() { obs::SetEnabled(was); }
  } restore;
  obs::SetEnabled(false);
  RunOverloadScenario();
}

// ---- 6. Deadline shed at dequeue ----------------------------------------

TEST_F(FleetChaosTest, DeadlineExpiredInspectIsShedAtDequeue) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());

  const HomeId home = "dl-alpha";
  const int k = fleet.ShardOf(home);
  auto pool = RulePool(4);
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kAddHome;
  req.home = home;
  req.rules = {pool[0], pool[1]};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;
  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = home;
  req.seq = 1;
  req.events = {EventFor(pool[0], 0.6)};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;

  // The inspect queues behind a 250ms stall with a 50ms deadline: by the
  // time the consumer dequeues it, answering would be pointless. The shed
  // happens there — at dequeue — freeing exactly the work whose answer
  // could no longer arrive in time.
  std::thread staller([&server, k] {
    (void)server.bus().RunOnShard(k, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = home;
  req.now_hours = kInspectHour;
  req.deadline_ms = 50;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, static_cast<int32_t>(StatusCode::kOverloaded));
  EXPECT_NE(reply.message.find("deadline"), std::string::npos)
      << reply.message;
  EXPECT_GT(reply.retry_after_ms, 0u);
  EXPECT_EQ(server.bus().deadline_shed(k), 1u);
  staller.join();

  // No deadline = wait as long as it takes: same request now answers.
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = home;
  req.now_hours = kInspectHour;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, 0) << reply.message;
  server.Stop();
}

// ---- 7. Sequence numbers: exactly-once apply ----------------------------

TEST_F(FleetChaosTest, SequenceNumbersMakeRetransmitsExactlyOnce) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());

  const HomeId home = "sq-alpha";
  auto pool = RulePool(4);
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kAddHome;
  req.home = home;
  req.rules = {pool[0], pool[1]};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;

  auto send_event = [&](uint64_t seq, double t) {
    req = wire::Request();
    req.type = wire::MsgType::kEventBatch;
    req.home = home;
    req.seq = seq;
    req.events = {EventFor(pool[seq % 2], t)};
    ASSERT_TRUE(client.Call(req, &reply).ok());
    ASSERT_EQ(reply.code, 0) << reply.message;
  };
  send_event(1, 0.5);
  send_event(1, 0.5);  // verbatim retransmit: acked, dropped at apply
  send_event(2, 0.8);

  // A batch whose first event overlaps the high-water mark: the applied
  // prefix is skipped, the rest applies — the acked count is the batch
  // size (transport-level), the engine sees each event once.
  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = home;
  req.seq = 2;
  for (int j = 0; j < 4; ++j) {
    req.events.push_back(EventFor(pool[static_cast<size_t>(j) % 4],
                                  0.8 + 0.3 * j));
  }
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;
  EXPECT_EQ(reply.batch_events, 4u);

  // 1 + 2 + batch(4, one dup) = 5 distinct events; 2 retransmits dropped.
  req = wire::Request();
  req.type = wire::MsgType::kStats;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kStatsReply);
  EXPECT_EQ(reply.events, 5u);
  EXPECT_EQ(server.bus().dedup_dropped(), 2u);
  server.Stop();
}

// A failed apply does not advance a home's seq mark: an event that never
// took effect (its home was not registered yet) is retried by the
// retransmit of the same seq, not dropped as a duplicate.
TEST_F(FleetChaosTest, FailedApplyDoesNotAdvanceTheSeqMark) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());

  const HomeId home = "sq-late";
  auto pool = RulePool(4);
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  wire::Request event;
  event.type = wire::MsgType::kEventBatch;
  event.home = home;
  event.seq = 1;
  event.events = {EventFor(pool[0], 0.5)};
  wire::Reply reply;
  // Accepted on enqueue; the apply fails NotFound (no such home yet).
  ASSERT_TRUE(client.Call(event, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;

  wire::Request req;
  req.type = wire::MsgType::kAddHome;
  req.home = home;
  req.rules = {pool[0], pool[1]};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;

  // The retransmit of seq 1 lands behind the registration (per-home FIFO)
  // and must apply.
  ASSERT_TRUE(client.Call(event, &reply).ok());
  ASSERT_EQ(reply.code, 0) << reply.message;

  req = wire::Request();
  req.type = wire::MsgType::kStats;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kStatsReply);
  EXPECT_EQ(reply.events, 1u);
  EXPECT_EQ(reply.bus_apply_errors, 1u);
  EXPECT_EQ(server.bus().FirstError(fleet.ShardOf(home)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.bus().dedup_dropped(), 0u);
  server.Stop();
}

// ---- 8. Graceful drain under live pipelined load ------------------------

TEST_F(FleetChaosTest, GracefulDrainUnderPipelinedLoadIsLossless) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  cfg.state_dir = Dir("drain");
  auto fleet = std::make_unique<ShardedFleet>(detector_, cfg);
  auto server = std::make_unique<FleetServer>(fleet.get(),
                                              FleetServer::Config{});
  ASSERT_TRUE(fleet->Recover().ok());
  ASSERT_TRUE(server->Start().ok());
  const int port = server->port();

  const std::vector<HomeId> homes = {"dr-alpha", "dr-bravo"};
  auto pool = RulePool(4);
  {
    wire::Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", port).ok());
    for (const auto& home : homes) {
      wire::Request req;
      wire::Reply reply;
      req.type = wire::MsgType::kAddHome;
      req.home = home;
      req.rules = {pool[0], pool[1]};
      ASSERT_TRUE(setup.Call(req, &reply).ok());
      ASSERT_EQ(reply.code, 0) << reply.message;
    }
  }

  // Pipelined batch writers racing the drain. auto_reconnect off: without
  // replays every acked batch was accepted exactly once, so the acked
  // count is a lower bound the drained fleet must meet.
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < homes.size(); ++w) {
    writers.emplace_back([&, w] {
      wire::Client::Options opt;
      opt.max_window = 8;
      opt.recv_timeout_ms = 10000;
      opt.auto_reconnect = false;
      wire::Client c(opt);
      if (!c.Connect("127.0.0.1", port).ok()) return;
      uint64_t seq = 1;
      auto drain_one = [&]() -> bool {
        wire::Reply reply;
        if (!c.Recv(&reply).ok()) return false;
        if (reply.code == 0) acked.fetch_add(reply.batch_events);
        return true;
      };
      for (int i = 0; i < 3000; ++i) {
        wire::Request req;
        req.type = wire::MsgType::kEventBatch;
        req.home = homes[w];
        req.seq = seq;
        for (int j = 0; j < 4; ++j) {
          req.events.push_back(
              EventFor(pool[static_cast<size_t>(j) % 4],
                       0.5 + 0.001 * double(seq + uint64_t(j))));
        }
        seq += 4;
        if (c.pending() >= opt.max_window && !drain_one()) return;
        if (!c.Send(req).ok()) return;
      }
      while (c.pending() > 0) {
        if (!drain_one()) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(server->Drain(5000).ok());
  for (auto& t : writers) t.join();
  EXPECT_GT(acked.load(), 0u);
  EXPECT_EQ(server->open_connections(), 0u);

  // Every acked event survived the drain into the engines...
  const uint64_t served = fleet->AggregateStats().events;
  const uint64_t fleet_rules = fleet->AggregateStats().rules;
  EXPECT_GE(served, acked.load());
  // Inspect past the last possible event timestamp (seq tops out at
  // 12000 -> hour 12.5): TryInspect rejects times before the newest event.
  const double inspect_hour = 50.0;
  std::map<HomeId, std::string> before;
  for (const auto& home : homes) {
    auto w = fleet->TryInspect(home, inspect_hour);
    ASSERT_TRUE(w.ok());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17a", w.value().confidence);
    before[home] = std::to_string(w.value().threat) + "/" + buf;
  }
  server.reset();
  fleet.reset();

  // ...and into the drain-time snapshots: a fresh Recover reproduces the
  // drained fleet's verdicts bit-for-bit. (The events counter is a runtime
  // stat, not snapshot state — Drain snapshots and truncates the WAL, so
  // losslessness is proven by state fingerprints, not by the counter.)
  ShardedFleet recovered(detector_, cfg);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.AggregateStats().rules, fleet_rules);
  for (const auto& home : homes) {
    auto w = recovered.TryInspect(home, inspect_hour);
    ASSERT_TRUE(w.ok());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17a", w.value().confidence);
    EXPECT_EQ(std::to_string(w.value().threat) + "/" + buf, before[home]);
  }
}

}  // namespace
}  // namespace glint::fleet
