// Sharded-fleet proof obligations:
//   1. Routing: ShardOf is a pure, stable function of (id, shard count)
//      and spreads homes across shards.
//   2. Bit-identity: a ShardedFleet serving a scripted workload produces
//      per-home output BIT-IDENTICAL to one ServingEngine serving the same
//      homes — for shard counts {1,2,8}, thread counts {1,4}, and with the
//      workload flowing through the EventBus (threaded consumers, multiple
//      producers) instead of synchronous calls.
//   3. Backpressure: kReject surfaces a full queue as kOverloaded +
//      counter; kBlock is lossless; apply errors are counted, never thrown.
//   4. Crash-safety: with per-shard WALs, killing the process at every
//      registered I/O fault point loses at most the in-flight op of ONE
//      shard; recovery + per-shard tail replay lands on the reference
//      fingerprint. A torn WAL tail on one shard never affects the others.

#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "fleet/event_bus.h"
#include "fleet/server.h"
#include "fleet/sharding.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace glint::fleet {
namespace {

using core::DeploymentSession;
using core::TrainedDetector;
using core::ServingEngine;
using core::ThreatWarning;

struct Op {
  enum Kind { kAddHome, kAddRule, kRemoveRule, kEvent } kind;
  HomeId home;
  std::vector<rules::Rule> deployed;  // kAddHome
  rules::Rule rule;                   // kAddRule
  int rule_id = 0;                    // kRemoveRule
  graph::Event event;                 // kEvent
};

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Derived fixtures' suites share the one trained detector and script.
    if (detector_ != nullptr) return;
    // Crash-matrix tests fork; a forked child must not depend on pool
    // worker threads that do not survive fork.
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

    BuildScript();

    // The reference: ONE engine serving every home, synchronously.
    ServingEngine ref(detector_);
    for (const auto& op : *script_) {
      ASSERT_TRUE(ApplyToEngine(&ref, op).ok());
    }
    *reference_ = EngineMap(&ref);
    ASSERT_EQ(reference_->size(), kHomes.size());

    char tmpl[] = "/tmp/glint_fleet_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    base_dir_ = new std::string(tmpl);
  }

  void SetUp() override { fault::Registry::Global().Clear(); }
  void TearDown() override {
    fault::Registry::Global().Clear();
    ThreadPool::SetGlobalThreads(1);
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

  /// Ten homes with id shapes a real frontend would produce; FNV-1a
  /// scatters them across shards.
  static inline const std::vector<HomeId> kHomes = {
      "alpha", "bravo-2", "charlie", "delta#4", "echo",
      "fox",   "golf-77", "hotel",   "india",   "juliet-x"};

  static void BuildScript() {
    auto pool = RulePool(8);
    auto add_home = [&](const HomeId& id, std::vector<rules::Rule> d) {
      Op op;
      op.kind = Op::kAddHome;
      op.home = id;
      op.deployed = std::move(d);
      script_->push_back(std::move(op));
    };
    auto add_rule = [&](const HomeId& id, const rules::Rule& r) {
      Op op;
      op.kind = Op::kAddRule;
      op.home = id;
      op.rule = r;
      script_->push_back(std::move(op));
    };
    auto remove_rule = [&](const HomeId& id, int rid) {
      Op op;
      op.kind = Op::kRemoveRule;
      op.home = id;
      op.rule_id = rid;
      script_->push_back(std::move(op));
    };
    auto event = [&](const HomeId& id, const rules::Rule& r, double t) {
      Op op;
      op.kind = Op::kEvent;
      op.home = id;
      op.event = EventFor(r, t);
      script_->push_back(std::move(op));
    };

    for (size_t i = 0; i < kHomes.size(); ++i) {
      // Home i deploys 2-3 rules from the shared pool (shared content
      // keeps detector memo caches warm across homes, as in production).
      std::vector<rules::Rule> d = {pool[i % 8], pool[(i + 3) % 8]};
      if (i % 2 == 0) d.push_back(pool[(i + 5) % 8]);
      add_home(kHomes[i], std::move(d));
    }
    double t = 0.4;
    for (int round = 0; round < 3; ++round) {
      for (size_t i = 0; i < kHomes.size(); ++i) {
        event(kHomes[i], pool[(i + static_cast<size_t>(round)) % 8], t);
        t += 0.07;
      }
    }
    add_rule(kHomes[1], pool[6]);
    add_rule(kHomes[4], pool[7]);
    remove_rule(kHomes[0], 9000 + static_cast<int>(0 % 8));
    remove_rule(kHomes[6], 9000 + static_cast<int>((6 + 3) % 8));
    for (size_t i = 0; i < kHomes.size(); ++i) {
      event(kHomes[i], pool[(i + 1) % 8], t);
      t += 0.07;
    }
  }

  static Status ApplyToEngine(ServingEngine* e, const Op& op) {
    switch (op.kind) {
      case Op::kAddHome:
        return e->TryAddHome(op.home, op.deployed).status();
      case Op::kAddRule:
        return e->TryAddRule(op.home, op.rule);
      case Op::kRemoveRule:
        return e->TryRemoveRule(op.home, op.rule_id);
      case Op::kEvent:
        return e->TryOnEvent(op.home, op.event);
    }
    return Status::Internal("unreachable");
  }

  static Status ApplyToFleet(ShardedFleet* f, const Op& op) {
    switch (op.kind) {
      case Op::kAddHome:
        return f->TryAddHome(op.home, op.deployed).status();
      // Rule changes route to the owning shard, as the EventBus does.
      case Op::kAddRule:
        return f->shard(f->ShardOf(op.home)).TryAddRule(op.home, op.rule);
      case Op::kRemoveRule:
        return f->shard(f->ShardOf(op.home))
            .TryRemoveRule(op.home, op.rule_id);
      case Op::kEvent:
        return f->TryOnEvent(op.home, op.event);
    }
    return Status::Internal("unreachable");
  }

  static BusMessage ToMessage(const Op& op) {
    BusMessage m;
    m.home = op.home;
    switch (op.kind) {
      case Op::kAddHome:
        m.kind = BusMessage::Kind::kAddHome;
        m.rules = op.deployed;
        break;
      case Op::kAddRule:
        m.kind = BusMessage::Kind::kAddRule;
        m.rule = op.rule;
        break;
      case Op::kRemoveRule:
        m.kind = BusMessage::Kind::kRemoveRule;
        m.rule_id = op.rule_id;
        break;
      case Op::kEvent:
        m.kind = BusMessage::Kind::kEventBatch;
        m.events = {op.event};
        break;
    }
    return m;
  }

  /// Full-precision observable state of one home: rules, watermark, and
  /// every field of its warning (%.17a doubles — string equality is bit
  /// identity).
  static std::string HomeLine(const DeploymentSession& s,
                              const ThreatWarning& w) {
    std::string out;
    char buf[64];
    auto hex = [&](double v) {
      std::snprintf(buf, sizeof buf, "%.17a", v);
      out += buf;
    };
    out += "rules";
    for (const auto& r : s.CurrentRules()) out += " " + std::to_string(r.id);
    out += " events " + std::to_string(s.live().retained_events().size()) +
           " watermark ";
    hex(s.live().latest_event_hours());
    out += " threat " + std::to_string(w.threat) + " drifting " +
           std::to_string(w.drifting) + " confidence ";
    hex(w.confidence);
    out += " types";
    for (auto ty : w.types) out += " " + std::to_string(static_cast<int>(ty));
    for (const auto& c : w.culprits) {
      out += " culprit " + std::to_string(c.node) + " " + c.platform + " '" +
             c.rule_text + "' ";
      hex(c.importance);
    }
    return out;
  }

  static std::map<HomeId, std::string> EngineMap(ServingEngine* e) {
    std::map<HomeId, std::string> m;
    auto warnings = e->InspectAll(kInspectHour);
    for (size_t h = 0; h < e->num_homes(); ++h) {
      m[e->home_ids()[h]] =
          HomeLine(e->home_view(static_cast<int>(h)), warnings[h]);
    }
    return m;
  }

  static std::map<HomeId, std::string> FleetMap(ShardedFleet* f,
                                                int max_batch = 4) {
    std::map<HomeId, std::string> m;
    FleetWarnings fw = f->InspectAll(kInspectHour, max_batch);
    EXPECT_EQ(fw.ids.size(), fw.warnings.size());
    for (size_t i = 0; i < fw.ids.size(); ++i) {
      const ServingEngine& shard = f->shard(f->ShardOf(fw.ids[i]));
      const int h = shard.ResolveHome(fw.ids[i]);
      EXPECT_GE(h, 0);
      m[fw.ids[i]] = HomeLine(shard.home_view(h), fw.warnings[i]);
    }
    return m;
  }

  static std::string Dir(const std::string& name) {
    std::string d = *base_dir_ + "/" + name;
    for (char& c : d) {
      if (c == '.') c = '_';
    }
    return d;
  }

  /// Applies the script to a fleet, skipping for each shard the prefix it
  /// already recovered durably (shard K's journal_seq = ops applied to K).
  /// Snapshot after script index `snapshot_after` when durable (-1 =
  /// never). Stops at the first error.
  static Status RunFleetScript(ShardedFleet* fleet, int snapshot_after) {
    std::vector<uint64_t> done(static_cast<size_t>(fleet->num_shards()));
    for (int k = 0; k < fleet->num_shards(); ++k) {
      done[static_cast<size_t>(k)] = fleet->shard(k).journal_seq();
    }
    std::vector<uint64_t> seen(static_cast<size_t>(fleet->num_shards()), 0);
    for (size_t i = 0; i < script_->size(); ++i) {
      const Op& op = (*script_)[i];
      const size_t k = static_cast<size_t>(fleet->ShardOf(op.home));
      ++seen[k];
      if (seen[k] > done[k]) {
        GLINT_RETURN_IF_ERROR(ApplyToFleet(fleet, op));
      }
      if (static_cast<int>(i) == snapshot_after && fleet->durable()) {
        GLINT_RETURN_IF_ERROR(fleet->Snapshot());
      }
    }
    return Status::OK();
  }

  static constexpr double kInspectHour = 3.5;
  static constexpr int kSnapshotAfter = 17;

  static TrainedDetector* detector_;
  static std::vector<Op>* script_;
  static std::map<HomeId, std::string>* reference_;
  static std::string* base_dir_;
};

TrainedDetector* FleetTest::detector_ = nullptr;
std::vector<Op>* FleetTest::script_ = new std::vector<Op>();
std::map<HomeId, std::string>* FleetTest::reference_ =
    new std::map<HomeId, std::string>();
std::string* FleetTest::base_dir_ = nullptr;

// ---- Routing ------------------------------------------------------------

TEST_F(FleetTest, ShardRoutingIsStableAndSpreads) {
  FleetConfig cfg;
  cfg.num_shards = 8;
  ShardedFleet a(detector_, cfg);
  ShardedFleet b(detector_, cfg);
  std::set<int> used;
  for (int i = 0; i < 1000; ++i) {
    const HomeId id = "home-" + std::to_string(i);
    const int k = a.ShardOf(id);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 8);
    // Pure function of (id, shard count): two fleets agree.
    EXPECT_EQ(b.ShardOf(id), k);
    used.insert(k);
  }
  // 1000 ids over 8 shards: every shard owns some.
  EXPECT_EQ(used.size(), 8u);
}

TEST_F(FleetTest, GrowingTheRingMovesOnlyAFraction) {
  FleetConfig c4, c5;
  c4.num_shards = 4;
  c5.num_shards = 5;
  ShardedFleet f4(detector_, c4);
  ShardedFleet f5(detector_, c5);
  int moved = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const HomeId id = "home-" + std::to_string(i);
    moved += f4.ShardOf(id) != f5.ShardOf(id);
  }
  // Consistent hashing: going 4 -> 5 shards should move ~1/5 of homes;
  // naive modulo would move ~4/5. Allow generous slack over 1/5.
  EXPECT_LT(moved, n * 2 / 5) << "ring reshuffles too much";
  EXPECT_GT(moved, 0);
}

// ---- Crash-safety (fork-based; must run while the pool is 1 thread) -----

TEST_F(FleetTest, ShardCrashMatrixRecoversBitIdentical) {
  // Register every reachable I/O fault point by running one throwaway
  // durable fleet workload.
  {
    FleetConfig cfg;
    cfg.num_shards = 3;
    cfg.state_dir = Dir("enumerate");
    ShardedFleet fleet(detector_, cfg);
    ASSERT_TRUE(fleet.Recover().ok());
    ASSERT_TRUE(RunFleetScript(&fleet, kSnapshotAfter).ok());
    ASSERT_TRUE(fleet.Snapshot().ok());
    EXPECT_EQ(FleetMap(&fleet), *reference_);
  }
  std::vector<std::string> points;
  for (const auto& p : fault::Registry::Global().Points()) {
    if (p.rfind("wal.", 0) == 0 || p.rfind("snapshot.", 0) == 0 ||
        p.rfind("journal.", 0) == 0) {
      points.push_back(p);
    }
  }
  ASSERT_GE(points.size(), 10u) << "fault-point enumeration looks broken";

  int crashes = 0;
  for (const auto& point : points) {
    // nth=3: with 3 shards the first hits land in shard 0's journal; later
    // hits land mid-workload in other shards — either way exactly one
    // shard's I/O is interrupted.
    for (int nth : {1, 3}) {
      const std::string context =
          "crash @ " + point + " hit " + std::to_string(nth);
      const std::string dir =
          Dir("crash_" + point + "_" + std::to_string(nth));

      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        fault::Registry::Global().Clear();
        fault::Registry::Global().Arm(point, fault::Mode::kCrash, nth);
        FleetConfig cfg;
        cfg.num_shards = 3;
        cfg.state_dir = dir;
        ShardedFleet fleet(detector_, cfg);
        Status st = fleet.Recover();
        if (st.ok()) st = RunFleetScript(&fleet, kSnapshotAfter);
        if (st.ok()) st = fleet.Snapshot();
        _exit(st.ok() ? 0 : 3);
      }
      int wstatus = 0;
      ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus)) << context;
      const int code = WEXITSTATUS(wstatus);
      ASSERT_TRUE(code == fault::kCrashExitCode || code == 0)
          << context << " exited " << code;
      crashes += (code == fault::kCrashExitCode);

      // Recovery: every shard recovers its own journal independently; the
      // per-shard tail replay reapplies only what each shard lost.
      FleetConfig cfg;
      cfg.num_shards = 3;
      cfg.state_dir = dir;
      ShardedFleet fleet(detector_, cfg);
      Status st = fleet.Recover();
      ASSERT_TRUE(st.ok()) << context << ": " << st.ToString();
      st = RunFleetScript(&fleet, -1);
      ASSERT_TRUE(st.ok()) << context << ": " << st.ToString();
      EXPECT_EQ(FleetMap(&fleet), *reference_) << context;
    }
  }
  EXPECT_GE(crashes, static_cast<int>(points.size()));
}

TEST_F(FleetTest, TornTailOnOneShardDoesNotTouchTheOthers) {
  const std::string dir = Dir("torn_shard");
  {
    FleetConfig cfg;
    cfg.num_shards = 3;
    cfg.state_dir = dir;
    ShardedFleet fleet(detector_, cfg);
    ASSERT_TRUE(fleet.Recover().ok());
    ASSERT_TRUE(RunFleetScript(&fleet, -1).ok());
  }
  // Tear shard 1's WAL tail only: a frame header announcing 16 bytes,
  // followed by 4.
  {
    std::FILE* f = std::fopen((dir + "/shard-1/wal.log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t len = 16, crc = 0xabad1dea;
    std::fwrite(&len, sizeof len, 1, f);
    std::fwrite(&crc, sizeof crc, 1, f);
    std::fwrite("torn", 1, 4, f);
    std::fclose(f);
  }
  FleetConfig cfg;
  cfg.num_shards = 3;
  cfg.state_dir = dir;
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.Recover().ok());
  EXPECT_TRUE(fleet.shard(1).recovery_info().tail_torn);
  EXPECT_FALSE(fleet.shard(0).recovery_info().tail_torn);
  EXPECT_FALSE(fleet.shard(2).recovery_info().tail_torn);
  // No complete record was lost, so no replay is needed anywhere.
  ASSERT_TRUE(RunFleetScript(&fleet, -1).ok());
  EXPECT_EQ(FleetMap(&fleet), *reference_);
  // The fleet still serves: all shards accept new work after recovery.
  EXPECT_TRUE(fleet
                  .TryOnEvent(kHomes[0],
                              EventFor(RulePool(1)[0], kInspectHour - 0.2))
                  .ok());
}

// ---- Bit-identity: fleet vs single engine -------------------------------

TEST_F(FleetTest, FleetMatchesSingleEngineAcrossShardAndThreadCounts) {
  for (int shards : {1, 2, 8}) {
    for (int threads : {1, 4}) {
      ThreadPool::SetGlobalThreads(threads);
      FleetConfig cfg;
      cfg.num_shards = shards;
      ShardedFleet fleet(detector_, cfg);
      for (const auto& op : *script_) {
        ASSERT_TRUE(ApplyToFleet(&fleet, op).ok());
      }
      for (int max_batch : {1, 4, 256}) {
        EXPECT_EQ(FleetMap(&fleet, max_batch), *reference_)
            << "shards=" << shards << " threads=" << threads
            << " max_batch=" << max_batch;
      }
      EXPECT_EQ(fleet.num_homes(), kHomes.size());
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

TEST_F(FleetTest, BusPathMatchesSynchronousApply) {
  FleetConfig cfg;
  cfg.num_shards = 4;
  ShardedFleet fleet(detector_, cfg);
  EventBus bus(&fleet, {});
  // Two producers, homes partitioned between them, each posting its homes'
  // ops in script order — per-home order is preserved, which is all the
  // bus promises and all determinism needs.
  auto produce = [&](int parity) {
    for (const auto& op : *script_) {
      if (static_cast<int>(std::hash<std::string>{}(op.home) & 1) != parity) {
        continue;
      }
      Status st = bus.Post(ToMessage(op));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  };
  std::thread p0(produce, 0), p1(produce, 1);
  p0.join();
  p1.join();
  bus.Flush();
  EXPECT_EQ(bus.apply_errors(), 0u);
  EXPECT_EQ(FleetMap(&fleet), *reference_);
  bus.Stop();
  // After Stop, posts are refused.
  EXPECT_EQ(bus.Post(ToMessage((*script_)[0])).code(),
            StatusCode::kFailedPrecondition);
}

// ---- Backpressure & error surfacing -------------------------------------

TEST_F(FleetTest, RejectPolicySurfacesFullQueues) {
  FleetConfig cfg;
  cfg.num_shards = 1;
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.TryAddHome("bp-home", RulePool(2)).ok());
  EventBus::Config bc;
  bc.capacity = 2;
  bc.policy = EventBus::Backpressure::kReject;
  bc.manual_drain = true;  // no consumers: the queue fills deterministically
  EventBus bus(&fleet, bc);
  auto pool = RulePool(2);
  BusMessage m;
  m.kind = BusMessage::Kind::kEventBatch;
  m.home = "bp-home";
  m.events = {EventFor(pool[0], 0.5)};
  EXPECT_TRUE(bus.PostBatch(m).ok());
  EXPECT_TRUE(bus.PostBatch(m).ok());
  Status st = bus.PostBatch(m);  // queue full
  // Overloaded, not FailedPrecondition: the caller should retry later,
  // and the wire layer forwards this as a kOverloaded ack with a hint.
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_EQ(bus.rejected(), 1u);
  EXPECT_EQ(bus.queue_high_water(0), 2u);
  EXPECT_EQ(bus.DrainOnce(0), 2u);
  EXPECT_TRUE(bus.PostBatch(m).ok());  // space again
  EXPECT_EQ(bus.DrainOnce(0), 1u);
  EXPECT_EQ(bus.apply_errors(), 0u);
  bus.Stop();
}

TEST_F(FleetTest, BlockPolicyIsLossless) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.TryAddHome("bl-a", RulePool(2)).ok());
  ASSERT_TRUE(fleet.TryAddHome("bl-b", RulePool(2)).ok());
  EventBus::Config bc;
  bc.capacity = 1;  // every second post must wait for the consumer
  EventBus bus(&fleet, bc);
  auto pool = RulePool(2);
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    BusMessage m;
    m.kind = BusMessage::Kind::kEventBatch;
    m.home = (i & 1) ? "bl-a" : "bl-b";
    m.events = {EventFor(pool[i & 1], 0.1 + 0.01 * i)};
    ASSERT_TRUE(bus.PostBatch(std::move(m)).ok());
  }
  bus.Flush();
  EXPECT_EQ(bus.rejected(), 0u);
  EXPECT_EQ(bus.apply_errors(), 0u);
  const auto agg = fleet.AggregateStats();
  EXPECT_EQ(agg.events, static_cast<uint64_t>(n));
  bus.Stop();
}

TEST_F(FleetTest, ApplyErrorsAreCountedNotThrown) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  EventBus::Config bc;
  bc.manual_drain = true;
  EventBus bus(&fleet, bc);
  BusMessage m;
  m.kind = BusMessage::Kind::kEventBatch;
  m.home = "nobody-home";
  m.events = {EventFor(RulePool(1)[0], 0.5)};
  ASSERT_TRUE(bus.PostBatch(m).ok());  // accepted: routing never fails
  const int k = fleet.ShardOf("nobody-home");
  EXPECT_EQ(bus.DrainOnce(k), 1u);
  EXPECT_EQ(bus.apply_errors(), 1u);
  Status first = bus.FirstError(k);
  EXPECT_EQ(first.code(), StatusCode::kNotFound);
  bus.Stop();
}

// A sequenced batch meets a failed WAL write: the bus applies it with one
// engine call, which stops at the failed run, so what applied is a prefix
// of the batch and the home's seq mark sits at its end. A retransmit
// applies exactly the tail: all of a batch whose only run failed, and
// after a refused event and a failed second run, the events past the
// first run (the refused ones are refused again), the third run
// included. A third send is dropped whole.
TEST_F(FleetTest, FailedAppendInABatchLeavesTheTailForTheRetransmit) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  cfg.state_dir = Dir("batch-append-fault");
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.Recover().ok());
  const HomeId home = "wal-home";
  const auto pool = RulePool(2);
  ASSERT_TRUE(fleet.TryAddHome(home, pool).ok());
  EventBus::Config bc;
  bc.manual_drain = true;
  EventBus bus(&fleet, bc);
  const int k = fleet.ShardOf(home);
  auto events_applied = [&] {
    const core::ServingEngine& engine = fleet.shard(k);
    return engine.home_view(engine.ResolveHome(home)).Stats().events;
  };
  auto batch = [&](uint64_t seq, double t0, int n) {
    BusMessage m;
    m.kind = BusMessage::Kind::kEventBatch;
    m.home = home;
    m.seq = seq;
    for (int i = 0; i < n; ++i) {
      m.events.push_back(EventFor(pool[static_cast<size_t>(i) % 2],
                                  t0 + 0.1 * i));
    }
    return m;
  };
  auto post = [&](const BusMessage& m) {
    ASSERT_TRUE(bus.PostBatch(m).ok());
    EXPECT_EQ(bus.DrainOnce(k), 1u);
  };

  // The batch is one run; its write fails, so nothing applies and the
  // mark stays at 0.
  fault::Registry::Global().Arm("wal.append.write", fault::Mode::kFail, 1);
  const BusMessage first = batch(1, 0.5, 4);
  post(first);
  EXPECT_EQ(bus.apply_errors(), 1u);
  EXPECT_EQ(bus.FirstError(k).code(), StatusCode::kIOError);
  EXPECT_EQ(events_applied(), 0u);
  post(first);
  EXPECT_EQ(bus.dedup_dropped(), 0u);
  EXPECT_EQ(events_applied(), 4u);
  EXPECT_EQ(bus.apply_errors(), 1u);

  // Runs {0}, {2, 3} and {5} around the +inf events 1 and 4; the second
  // run's write fails, so seq 5 alone applies and the mark stays there.
  BusMessage second = batch(5, 1.0, 6);
  second.events[1].time_hours = std::numeric_limits<double>::infinity();
  second.events[4].time_hours = std::numeric_limits<double>::infinity();
  fault::Registry::Global().Arm("wal.append.write", fault::Mode::kFail, 2);
  post(second);
  EXPECT_EQ(bus.apply_errors(), 2u);
  EXPECT_EQ(events_applied(), 5u);
  post(second);  // seq 5 is dropped, 6 and 9 refused again, 7, 8, 10 apply
  EXPECT_EQ(bus.dedup_dropped(), 1u);
  EXPECT_EQ(bus.apply_errors(), 3u);
  EXPECT_EQ(events_applied(), 8u);
  post(second);
  EXPECT_EQ(bus.dedup_dropped(), 1u + 6u);
  EXPECT_EQ(events_applied(), 8u);
  EXPECT_EQ(fleet.shard(k).journal_seq(), 1u + 8u);
  bus.Stop();
}

// ---- RunOnShard: the race-free read path --------------------------------

TEST_F(FleetTest, RunOnShardRunsBehindEverythingAccepted) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.TryAddHome("ros-home", RulePool(2)).ok());
  const int k = fleet.ShardOf("ros-home");
  auto pool = RulePool(2);
  EventBus bus(&fleet, {});
  const uint64_t n = 32;
  for (uint64_t i = 0; i < n; ++i) {
    BusMessage m;
    m.kind = BusMessage::Kind::kEventBatch;
    m.home = "ros-home";
    m.events = {EventFor(pool[i & 1], 0.1 + 0.01 * static_cast<double>(i))};
    ASSERT_TRUE(bus.PostBatch(std::move(m)).ok());
  }
  // FIFO: the task is queued after the n events, so it must observe all
  // of them applied — and it must run on the shard's consumer thread,
  // which is what makes the read race-free against other producers.
  uint64_t seen = 0;
  std::thread::id task_thread;
  ASSERT_TRUE(bus.RunOnShard(k, [&] {
                   seen = fleet.shard(k).AggregateStats().events;
                   task_thread = std::this_thread::get_id();
                 }).ok());
  EXPECT_EQ(seen, n);
  EXPECT_NE(task_thread, std::this_thread::get_id());
  bus.Stop();
  // A stopped bus refuses the task and never runs the closure.
  bool ran = false;
  EXPECT_EQ(bus.RunOnShard(k, [&] { ran = true; }).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ran);
}

TEST_F(FleetTest, RunOnShardManualDrainAppliesThenRunsInline) {
  FleetConfig cfg;
  cfg.num_shards = 1;
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.TryAddHome("ros-md", RulePool(2)).ok());
  EventBus::Config bc;
  bc.manual_drain = true;
  EventBus bus(&fleet, bc);
  auto pool = RulePool(2);
  for (int i = 0; i < 3; ++i) {
    BusMessage m;
    m.kind = BusMessage::Kind::kEventBatch;
    m.home = "ros-md";
    m.events = {EventFor(pool[i & 1], 0.2 + 0.05 * i)};
    ASSERT_TRUE(bus.PostBatch(std::move(m)).ok());
  }
  uint64_t seen = 0;
  std::thread::id task_thread;
  ASSERT_TRUE(bus.RunOnShard(0, [&] {
                   seen = fleet.shard(0).AggregateStats().events;
                   task_thread = std::this_thread::get_id();
                 }).ok());
  EXPECT_EQ(seen, 3u);  // drained before the closure ran
  EXPECT_EQ(task_thread, std::this_thread::get_id());  // inline, no consumer
  bus.Stop();
}

TEST_F(FleetTest, AcceptedPostsAreAppliedDespiteConcurrentStop) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  ASSERT_TRUE(fleet.TryAddHome("st-a", RulePool(2)).ok());
  ASSERT_TRUE(fleet.TryAddHome("st-b", RulePool(2)).ok());
  EventBus::Config bc;
  bc.capacity = 4;  // small: most posts ride the blocking path mid-Stop
  EventBus bus(&fleet, bc);
  auto pool = RulePool(2);
  // The guarantee under test: a Post that returned OK is applied before
  // Stop() returns, even when Stop races the push — never silently lost.
  std::atomic<uint64_t> accepted{0};
  auto produce = [&](const HomeId& home) {
    for (int i = 0; i < 400; ++i) {
      BusMessage m;
      m.kind = BusMessage::Kind::kEventBatch;
      m.home = home;
      m.events = {EventFor(pool[i & 1], 0.1 + 0.001 * i)};
      if (bus.PostBatch(std::move(m)).ok()) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread p0(produce, "st-a"), p1(produce, "st-b");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  bus.Stop();
  p0.join();
  p1.join();
  EXPECT_EQ(bus.apply_errors(), 0u);
  EXPECT_EQ(fleet.AggregateStats().events, accepted.load());
}

// ---- Wire server end to end ---------------------------------------------

/// Raw loopback TCP connect (bypassing wire::Client) so tests can put
/// arbitrary bytes on the wire.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(FleetTest, ServerServesTheWireProtocolEndToEnd) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kPing;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kPong);

  auto pool = RulePool(4);
  req = wire::Request();
  req.type = wire::MsgType::kAddHome;
  req.home = "net-a";
  req.rules = {pool[0], pool[1]};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kAck);
  EXPECT_EQ(reply.code, 0) << reply.message;

  for (int i = 0; i < 4; ++i) {
    req = wire::Request();
    req.type = wire::MsgType::kEventBatch;
    req.home = "net-a";
    req.events = {EventFor(pool[i % 2], 0.5 + 0.3 * i)};
    ASSERT_TRUE(client.Call(req, &reply).ok());
    EXPECT_EQ(reply.code, 0) << reply.message;
  }

  // Inspect over the wire == inspect in process (the kInspect path runs on
  // the owning shard's consumer thread, behind the accepted events).
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = "net-a";
  req.now_hours = 2.0;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kWarning);
  ASSERT_EQ(reply.code, 0) << reply.message;
  auto direct = fleet.TryInspect("net-a", 2.0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(reply.rendered, direct.value().Render());
  EXPECT_EQ(reply.threat, direct.value().threat);

  // Mutations for unknown homes are *accepted* (ack OK) and fail at apply;
  // the failure surfaces in the stats counters, not the ack.
  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = "net-ghost";
  req.events = {EventFor(pool[0], 1.0)};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, 0);

  req = wire::Request();
  req.type = wire::MsgType::kStats;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kStatsReply);
  EXPECT_EQ(reply.homes, 1u);
  EXPECT_EQ(reply.events, 4u);
  EXPECT_EQ(reply.bus_apply_errors, 1u);

  // An inspect for an unknown home is a synchronous NotFound.
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = "net-ghost";
  req.now_hours = 2.0;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kWarning);
  EXPECT_EQ(reply.code, static_cast<int32_t>(StatusCode::kNotFound));

  client.Close();
  server.Stop();
}

// A home registered without rules tensorizes to a zero-node graph. Its
// inspection answers the benign warning, and the server keeps serving.
TEST_F(FleetTest, ZeroRuleHomeInspectsBenignOverTheWire) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kAddHome;
  req.home = "net-bare";
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kAck);
  EXPECT_EQ(reply.code, 0) << reply.message;

  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = "net-bare";
  req.now_hours = 1.0;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kWarning);
  EXPECT_EQ(reply.code, 0) << reply.message;
  EXPECT_FALSE(reply.threat);
  EXPECT_FALSE(reply.drifting);
  EXPECT_EQ(reply.rendered, ThreatWarning().Render());

  req = wire::Request();
  req.type = wire::MsgType::kPing;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kPong);
  client.Close();
  server.Stop();
}

// The inspection time comes from the client: one that is not a finite
// number is refused with an error warning, and the server keeps serving.
TEST_F(FleetTest, NonFiniteInspectTimeIsRefusedOverTheWire) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto pool = RulePool(2);
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kAddHome;
  req.home = "net-a";
  req.rules = {pool[0], pool[1]};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, 0) << reply.message;

  for (double now : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    req = wire::Request();
    req.type = wire::MsgType::kInspect;
    req.home = "net-a";
    req.now_hours = now;
    ASSERT_TRUE(client.Call(req, &reply).ok()) << now;
    ASSERT_EQ(reply.type, wire::MsgType::kWarning) << now;
    EXPECT_EQ(reply.code, static_cast<int32_t>(StatusCode::kInvalidArgument))
        << now << ": " << reply.message;
  }

  req = wire::Request();
  req.type = wire::MsgType::kPing;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kPong);
  req = wire::Request();
  req.type = wire::MsgType::kInspect;
  req.home = "net-a";
  req.now_hours = 1.0;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, 0) << reply.message;
  client.Close();
  server.Stop();
}

// An event time from the client that is not finite is refused at apply:
// the rest of its batch applies, and the home keeps answering finite
// inspections (an event at +inf used to make every later inspection
// "precede the latest ingested event").
TEST_F(FleetTest, NonFiniteEventTimeIsRefusedOverTheWire) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto pool = RulePool(2);
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kAddHome;
  req.home = "inf-a";
  req.rules = {pool[0], pool[1]};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, 0) << reply.message;

  req = wire::Request();
  req.type = wire::MsgType::kEventBatch;
  req.home = "inf-a";
  req.events = {EventFor(pool[0], 0.5),
                EventFor(pool[1], std::numeric_limits<double>::infinity()),
                EventFor(pool[1], std::numeric_limits<double>::quiet_NaN()),
                EventFor(pool[0], 0.7)};
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.code, 0) << reply.message;  // acked at enqueue

  for (double now : {5.0, 1e300}) {
    req = wire::Request();
    req.type = wire::MsgType::kInspect;
    req.home = "inf-a";
    req.now_hours = now;
    ASSERT_TRUE(client.Call(req, &reply).ok()) << now;
    ASSERT_EQ(reply.type, wire::MsgType::kWarning) << now;
    EXPECT_EQ(reply.code, 0) << now << ": " << reply.message;
  }
  req = wire::Request();
  req.type = wire::MsgType::kStats;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kStatsReply);
  EXPECT_EQ(reply.events, 2u);
  EXPECT_EQ(reply.bus_apply_errors, 1u);
  EXPECT_EQ(server.bus().FirstError(fleet.ShardOf("inf-a")).code(),
            StatusCode::kInvalidArgument);
  client.Close();
  server.Stop();
}

TEST_F(FleetTest, ServerSurvivesMalformedFramesAndKeepsServing) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());

  // 1. Frame-level corruption: flipped CRC. The server answers with an
  //    error ack where it can, then drops the connection (the stream
  //    cannot be resynchronized).
  {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    wire::Request ping;
    ping.type = wire::MsgType::kPing;
    std::vector<char> frame;
    wire::AppendFrame(&frame, wire::EncodeRequest(ping));
    frame[4] = static_cast<char>(frame[4] ^ 0x40);  // corrupt the crc field
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    std::vector<char> payload;
    Status st = wire::RecvFrame(fd, &payload);
    if (st.ok()) {  // the error ack, if the pipe still carried it
      wire::Reply reply;
      ASSERT_TRUE(wire::DecodeReply(payload, &reply).ok());
      EXPECT_EQ(reply.type, wire::MsgType::kAck);
      EXPECT_NE(reply.code, 0);
      // ...and then the connection is gone.
      EXPECT_FALSE(wire::RecvFrame(fd, &payload).ok());
    }
    ::close(fd);
  }

  // 2. Oversized length prefix: refused without buffering, connection
  //    dropped.
  {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    char header[8] = {0};
    const uint32_t len = wire::kMaxFramePayload + 1;
    std::memcpy(header, &len, sizeof len);
    ASSERT_EQ(::send(fd, header, sizeof header, 0), 8);
    std::vector<char> payload;
    Status st = wire::RecvFrame(fd, &payload);
    if (st.ok()) {
      wire::Reply reply;
      ASSERT_TRUE(wire::DecodeReply(payload, &reply).ok());
      EXPECT_NE(reply.code, 0);
    }
    ::close(fd);
  }

  // 3. An intact frame with a garbage body: error ack, connection STAYS —
  //    the stream is still in sync.
  {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::vector<char> frame;
    wire::AppendFrame(&frame, {char(0x33), 'x', 'y'});  // unknown type 0x33
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    std::vector<char> payload;
    ASSERT_TRUE(wire::RecvFrame(fd, &payload).ok());
    wire::Reply reply;
    ASSERT_TRUE(wire::DecodeReply(payload, &reply).ok());
    EXPECT_EQ(reply.type, wire::MsgType::kAck);
    EXPECT_NE(reply.code, 0);
    // Same connection still serves valid requests.
    wire::Request ping;
    ping.type = wire::MsgType::kPing;
    ASSERT_TRUE(wire::SendFrame(fd, wire::EncodeRequest(ping)).ok());
    ASSERT_TRUE(wire::RecvFrame(fd, &payload).ok());
    ASSERT_TRUE(wire::DecodeReply(payload, &reply).ok());
    EXPECT_EQ(reply.type, wire::MsgType::kPong);
    ::close(fd);
  }

  // After all that abuse the server still accepts fresh connections.
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kPing;
  ASSERT_TRUE(client.Call(req, &reply).ok());
  EXPECT_EQ(reply.type, wire::MsgType::kPong);
  server.Stop();
}

// ---- The service round: one send per round ------------------------------
//
// A round reads what the socket holds, serves every complete frame, and
// sends all their replies in one write; the replies already owed go out
// before a request that waits on a shard consumer. Sends are counted as
// hits of the fleet.server.send fault point, which counts only while some
// point is armed, so each test arms one its workload never reaches.

class ServiceRoundTest : public FleetTest {
 protected:
  void SetUp() override {
    FleetTest::SetUp();
    FleetConfig cfg;
    cfg.num_shards = 2;
    fleet_ = std::make_unique<ShardedFleet>(detector_, cfg);
    server_ = std::make_unique<FleetServer>(fleet_.get(),
                                            FleetServer::Config{});
    ASSERT_TRUE(server_->Start().ok());
    pool_ = RulePool(4);
    wire::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    wire::Request req;
    wire::Reply reply;
    req.type = wire::MsgType::kAddHome;
    req.home = kHome;
    req.rules = {pool_[0], pool_[1]};
    ASSERT_TRUE(client.Call(req, &reply).ok());
    ASSERT_EQ(reply.code, 0) << reply.message;
    client.Close();
    fd_ = RawConnect(server_->port());
    ASSERT_GE(fd_, 0);
    // A lost reply fails the test instead of hanging it.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    fault::Registry::Global().Arm("fleet_test.unreached", fault::Mode::kFail);
  }

  void TearDown() override {
    if (fd_ >= 0) ::close(fd_);
    server_->Stop();
    FleetTest::TearDown();
  }

  /// Appends the frame of a kEventBatch of `n` events starting at seq
  /// `seq`, so the ack's batch_events names the frame it answers.
  void AppendBatch(std::vector<char>* bytes, uint64_t seq, size_t n) {
    wire::Request req;
    req.type = wire::MsgType::kEventBatch;
    req.home = kHome;
    req.seq = seq;
    for (size_t i = 0; i < n; ++i) {
      t_ += 0.01;
      req.events.push_back(EventFor(pool_[i % pool_.size()], t_));
    }
    wire::AppendFrame(bytes, wire::EncodeRequest(req));
  }

  void SendAll(const std::vector<char>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  wire::Reply Recv() {
    std::vector<char> payload;
    wire::Reply reply;
    const Status st = wire::RecvFrame(fd_, &payload);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (st.ok()) EXPECT_TRUE(wire::DecodeReply(payload, &reply).ok());
    return reply;
  }

  /// Receives one kBatchAck and checks it accepted `n` events.
  void ExpectBatchAck(uint32_t n) {
    const wire::Reply ack = Recv();
    EXPECT_EQ(ack.type, wire::MsgType::kBatchAck);
    EXPECT_EQ(ack.code, 0) << ack.message;
    EXPECT_EQ(ack.batch_events, n);
  }

  static uint64_t Sends() {
    return fault::Registry::Global().hits("fleet.server.send");
  }

  static inline const HomeId kHome = "round-home";
  std::unique_ptr<ShardedFleet> fleet_;
  std::unique_ptr<FleetServer> server_;
  std::vector<rules::Rule> pool_;
  int fd_ = -1;
  double t_ = 0.1;
};

TEST_F(ServiceRoundTest, SixteenBatchesInOneWriteAreAckedInOneSend) {
  std::vector<char> bytes;
  uint64_t seq = 1;
  for (size_t i = 0; i < 16; ++i) {
    AppendBatch(&bytes, seq, i % 4 + 1);
    seq += i % 4 + 1;
  }
  SendAll(bytes);
  // FIFO: each ack carries its frame's event count.
  for (uint32_t i = 0; i < 16; ++i) ExpectBatchAck(i % 4 + 1);
  EXPECT_EQ(Sends(), 1u);
}

TEST_F(ServiceRoundTest, OwedAcksLeaveBeforeAnInspectWaitsOnItsShard) {
  // Park the home's shard consumer, so the inspect waits on it.
  const int k = fleet_->ShardOf(kHome);
  std::atomic<bool> parked{false}, release{false};
  std::thread holder([&] {
    (void)server_->bus().RunOnShard(k, [&] {
      parked = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (!parked) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::vector<char> bytes;
  AppendBatch(&bytes, 1, 2);
  AppendBatch(&bytes, 3, 3);
  wire::Request inspect;
  inspect.type = wire::MsgType::kInspect;
  inspect.home = kHome;
  inspect.now_hours = 1.0;
  wire::AppendFrame(&bytes, wire::EncodeRequest(inspect));
  SendAll(bytes);
  // Both acks arrive while the inspect is still parked.
  ExpectBatchAck(2);
  ExpectBatchAck(3);
  EXPECT_EQ(Sends(), 1u);
  release = true;
  holder.join();
  const wire::Reply warning = Recv();
  EXPECT_EQ(warning.type, wire::MsgType::kWarning);
  EXPECT_EQ(warning.code, 0) << warning.message;
  EXPECT_EQ(Sends(), 2u);
}

TEST_F(ServiceRoundTest, ARoundEndingInAPartialFrameSendsItsCompleteReplies) {
  std::vector<char> bytes;
  AppendBatch(&bytes, 1, 1);
  AppendBatch(&bytes, 2, 2);
  const size_t complete = bytes.size();
  AppendBatch(&bytes, 4, 3);
  const size_t cut = complete + (bytes.size() - complete) / 2;
  SendAll(std::vector<char>(bytes.begin(), bytes.begin() + cut));
  ExpectBatchAck(1);
  ExpectBatchAck(2);
  EXPECT_EQ(Sends(), 1u);
  SendAll(std::vector<char>(bytes.begin() + cut, bytes.end()));
  ExpectBatchAck(3);
  EXPECT_EQ(Sends(), 2u);
}

// The reviewer-found race this pins down: one connection inspecting a
// shard while another keeps posting events to it. kInspect/kStats must
// read the engine on the shard's consumer thread (RunOnShard), never on
// the connection thread behind a mere flush — the TSAN leg of check.sh
// runs this suite, so a regression to flush-then-read fails loudly there.
TEST_F(FleetTest, ConcurrentClientsPostAndInspectWithoutRacing) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());
  auto pool = RulePool(4);
  const std::vector<HomeId> homes = {"cc-a", "cc-b"};
  {
    wire::Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    for (const auto& home : homes) {
      wire::Request req;
      wire::Reply reply;
      req.type = wire::MsgType::kAddHome;
      req.home = home;
      req.rules = {pool[0], pool[1]};
      ASSERT_TRUE(c.Call(req, &reply).ok());
      ASSERT_EQ(reply.code, 0) << reply.message;
    }
  }
  // Every client hammers BOTH homes, alternating mutations and reads, so
  // posters and inspectors collide on each shard the whole run.
  const int kClients = 4;
  const int kOpsPerClient = 60;
  std::atomic<uint64_t> posted{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      wire::Client c;
      if (!c.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        wire::Request req;
        wire::Reply reply;
        req.home = homes[static_cast<size_t>(i & 1)];
        switch ((t + i) % 3) {
          case 0:
            req.type = wire::MsgType::kEventBatch;
            req.events = {EventFor(pool[static_cast<size_t>(i % 4)],
                                   0.2 + 0.01 * i)};
            break;
          case 1:
            req.type = wire::MsgType::kInspect;
            req.now_hours = 2.0;
            break;
          default:
            req.type = wire::MsgType::kStats;
            break;
        }
        if (!c.Call(req, &reply).ok() || reply.code != 0) {
          failures.fetch_add(1);
          return;
        }
        if (req.type == wire::MsgType::kEventBatch) posted.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every acked event was applied: kStats drains each shard behind its
  // accepted messages before reading the counters.
  wire::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kStats;
  ASSERT_TRUE(c.Call(req, &reply).ok());
  EXPECT_EQ(reply.homes, homes.size());
  EXPECT_EQ(reply.events, posted.load());
  EXPECT_EQ(reply.bus_apply_errors, 0u);
  server.Stop();
}

// Tracing proof obligation (DESIGN.md §14): every completed wire request
// yields exactly ONE completed trace whose stage durations are
// non-negative, partition its recorded wall time exactly, and fit inside
// the externally measured test window — across shards {1,8} × concurrent
// clients {1,4}. slow_threshold 0 turns the per-shard slow rings into a
// full capture so each individual trace can be checked, not just counts.
TEST_F(FleetTest, WireRequestsYieldCompletePerStageTraces) {
  if (!obs::Enabled()) GTEST_SKIP() << "observability disabled";
  auto pool = RulePool(4);
  const std::vector<HomeId> homes = {"tr-a", "tr-b#2", "tr-c", "tr-d-9"};
  for (int num_shards : {1, 8}) {
    for (int num_clients : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " clients=" + std::to_string(num_clients));
      FleetConfig cfg;
      cfg.num_shards = num_shards;
      ShardedFleet fleet(detector_, cfg);
      FleetServer::Config sc;
      sc.trace.slow_threshold_ns = 0;  // capture every trace
      sc.trace.ring_capacity = 1024;
      sc.sample_interval_ms = 0;  // keep the sampler thread out of the way
      FleetServer server(&fleet, sc);
      ASSERT_TRUE(server.Start().ok());

      const uint64_t t0 = obs::NowNs();
      uint64_t sent = 0;
      {
        wire::Client c;
        ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
        for (const auto& home : homes) {
          wire::Request req;
          wire::Reply reply;
          req.type = wire::MsgType::kAddHome;
          req.home = home;
          req.rules = {pool[0], pool[1]};
          ASSERT_TRUE(c.Call(req, &reply).ok());
          ASSERT_EQ(reply.code, 0) << reply.message;
          ++sent;
        }
      }
      const int kOpsPerClient = 24;  // alternating kEventBatch / kInspect
      std::atomic<uint64_t> ok_ops{0};
      std::vector<std::thread> clients;
      for (int t = 0; t < num_clients; ++t) {
        clients.emplace_back([&, t] {
          wire::Client c;
          if (!c.Connect("127.0.0.1", server.port()).ok()) return;
          for (int i = 0; i < kOpsPerClient; ++i) {
            wire::Request req;
            wire::Reply reply;
            req.home = homes[static_cast<size_t>((t + i) % homes.size())];
            if (i & 1) {
              req.type = wire::MsgType::kInspect;
              req.now_hours = 2.0;
            } else {
              req.type = wire::MsgType::kEventBatch;
              req.events = {
                  EventFor(pool[static_cast<size_t>(i % 4)], 0.3 + 0.01 * i)};
            }
            if (c.Call(req, &reply).ok() && reply.code == 0) {
              ok_ops.fetch_add(1);
            }
          }
        });
      }
      for (auto& th : clients) th.join();
      ASSERT_EQ(ok_ops.load(),
                uint64_t(num_clients) * uint64_t(kOpsPerClient));
      sent += ok_ops.load();

      obs::TraceRecorder* rec = server.recorder();
      ASSERT_NE(rec, nullptr);
      // Stop() joins every connection thread (inspect traces finish there)
      // and drains the bus (mutation traces finish on shard consumers), so
      // after it the recorder is quiescent and complete.
      server.Stop();
      const uint64_t t1 = obs::NowNs();

      EXPECT_EQ(rec->completed(), sent);

      std::set<uint64_t> ids;
      uint64_t inspect_traces = 0;
      for (int b = 0; b <= num_shards; ++b) {
        for (const auto& tr : rec->slow_ring(b).Snapshot()) {
          EXPECT_TRUE(ids.insert(tr.id).second)
              << "duplicate trace id " << tr.id;
          uint64_t sum = 0;
          for (int s = 0; s < obs::kNumTraceStages; ++s) {
            sum += tr.stage_ns[s];
          }
          // The stages partition birth → last mark exactly, and that
          // window sits inside the measured end-to-end wall time.
          EXPECT_EQ(sum, tr.total_ns);
          EXPECT_GE(tr.born_ns, t0);
          EXPECT_LE(tr.born_ns + tr.total_ns, t1);
          EXPECT_GE(tr.shard, 0);  // every request here is shard-addressed
          EXPECT_LT(tr.shard, num_shards);
          if (tr.msg_type ==
              static_cast<uint8_t>(wire::MsgType::kInspect)) {
            ++inspect_traces;
            // Synchronous read path: the full stage set through the reply
            // write, engine time charged to inspect, never apply.
            std::string stages;
            for (int s = 0; s < obs::kNumTraceStages; ++s) {
              stages += std::string(obs::TraceStageName(
                            static_cast<obs::TraceStage>(s))) +
                        "=" + std::to_string(tr.stage_ns[s]) + " ";
            }
            EXPECT_GT(tr.stage_ns[int(obs::TraceStage::kInspect)], 0u)
                << stages;
            EXPECT_GT(tr.stage_ns[int(obs::TraceStage::kReply)], 0u)
                << stages;
            EXPECT_EQ(tr.stage_ns[int(obs::TraceStage::kApply)], 0u)
                << stages;
          } else {
            // Mutations are acked on enqueue and finish on the shard
            // consumer: queue-wait/apply charged, no inspect.
            EXPECT_GT(tr.stage_ns[int(obs::TraceStage::kQueueWait)] +
                          tr.stage_ns[int(obs::TraceStage::kApply)],
                      0u);
            EXPECT_EQ(tr.stage_ns[int(obs::TraceStage::kInspect)], 0u);
          }
        }
      }
      // Exactly one trace per request: the count matched above, and every
      // captured trace id is distinct.
      EXPECT_EQ(ids.size(), sent);
      EXPECT_EQ(inspect_traces,
                uint64_t(num_clients) * uint64_t(kOpsPerClient / 2));
    }
  }
}

// ---- Pipelined, batched clients ------------------------------------------
//
// The C10k proof obligations for the epoll front end:
//   1. Bit-identity under pipelining: N clients, each owning a disjoint
//      set of homes, pipeline batched event frames up to `depth` in
//      flight; the fleet's final per-home state is bit-identical to a
//      single synchronous engine fed the same per-home sequences (the
//      batch IS the home's FIFO segment, and one connection's frames are
//      served strictly in order).
//   2. In-order replies: each reply received matches the oldest
//      in-flight request, across interleaved batch/inspect traffic.
TEST_F(FleetTest, PipelinedBatchedClientsMatchTheSynchronousReference) {
  auto pool = RulePool(4);
  const int kHomesHere = 8;
  const int kEventsPerHome = 30;
  const uint32_t kChunk = 7;  // uneven: exercises the remainder batch

  // Per-home scripts, and the synchronous single-engine reference.
  std::vector<HomeId> homes;
  std::vector<std::vector<graph::Event>> seqs;
  for (int h = 0; h < kHomesHere; ++h) {
    homes.push_back("pl-" + std::to_string(h));
    std::vector<graph::Event> seq;
    double t = 0.2 + 0.01 * h;
    for (int i = 0; i < kEventsPerHome; ++i) {
      seq.push_back(EventFor(pool[static_cast<size_t>((h + i) % 4)], t));
      t += 0.05;
    }
    seqs.push_back(std::move(seq));
  }
  ServingEngine ref(detector_);
  for (int h = 0; h < kHomesHere; ++h) {
    ASSERT_TRUE(ref.TryAddHome(homes[static_cast<size_t>(h)],
                               {pool[0], pool[1]})
                    .ok());
    for (const auto& e : seqs[static_cast<size_t>(h)]) {
      ASSERT_TRUE(ref.TryOnEvent(homes[static_cast<size_t>(h)], e).ok());
    }
  }
  const auto want = EngineMap(&ref);

  for (int num_shards : {1, 8}) {
    for (int num_clients : {1, 4}) {
      for (size_t depth : {size_t(1), size_t(64)}) {
        SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                     " clients=" + std::to_string(num_clients) +
                     " depth=" + std::to_string(depth));
        FleetConfig cfg;
        cfg.num_shards = num_shards;
        ShardedFleet fleet(detector_, cfg);
        FleetServer server(&fleet, {});
        ASSERT_TRUE(server.Start().ok());
        {
          wire::Client c;
          ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
          for (const auto& home : homes) {
            wire::Request req;
            wire::Reply reply;
            req.type = wire::MsgType::kAddHome;
            req.home = home;
            req.rules = {pool[0], pool[1]};
            ASSERT_TRUE(c.Call(req, &reply).ok());
            ASSERT_EQ(reply.code, 0) << reply.message;
          }
        }
        // Home h is owned by client h % num_clients: per-home order is
        // one connection's send order, which the server must preserve.
        std::atomic<int> failures{0};
        std::vector<std::thread> clients;
        for (int t = 0; t < num_clients; ++t) {
          clients.emplace_back([&, t] {
            wire::Client::Options opt;
            opt.max_window = depth;
            wire::Client c(opt);
            if (!c.Connect("127.0.0.1", server.port()).ok()) {
              failures.fetch_add(1);
              return;
            }
            // FIFO of (request type, expected batch size) still in
            // flight; every Recv must answer the front.
            std::vector<std::pair<wire::MsgType, uint32_t>> expect;
            size_t expect_head = 0;
            auto recv_one = [&]() -> bool {
              wire::Reply reply;
              wire::MsgType for_req = wire::MsgType::kAck;
              if (!c.Recv(&reply, &for_req).ok()) return false;
              const auto [sent_type, nevents] = expect[expect_head++];
              if (for_req != sent_type) return false;
              switch (sent_type) {
                case wire::MsgType::kEventBatch:
                  return reply.type == wire::MsgType::kBatchAck &&
                         reply.code == 0 && reply.batch_events == nevents;
                case wire::MsgType::kInspect:
                  return reply.type == wire::MsgType::kWarning &&
                         reply.code == 0;
                default:
                  return reply.type == wire::MsgType::kAck &&
                         reply.code == 0;
              }
            };
            auto send_one = [&](const wire::Request& req,
                                uint32_t nevents) -> bool {
              for (;;) {
                Status st = c.Send(req);
                if (st.ok()) break;
                if (st.code() != StatusCode::kFailedPrecondition) {
                  return false;  // real I/O failure
                }
                if (!recv_one()) return false;  // window full: drain one
              }
              expect.emplace_back(req.type, nevents);
              return true;
            };
            for (int h = t; h < kHomesHere; h += num_clients) {
              const auto& seq = seqs[static_cast<size_t>(h)];
              for (size_t off = 0; off < seq.size(); off += kChunk) {
                wire::Request req;
                req.type = wire::MsgType::kEventBatch;
                req.home = homes[static_cast<size_t>(h)];
                req.events.assign(
                    seq.begin() + static_cast<ptrdiff_t>(off),
                    seq.begin() +
                        static_cast<ptrdiff_t>(
                            std::min(off + kChunk, seq.size())));
                if (!send_one(req,
                              static_cast<uint32_t>(req.events.size()))) {
                  failures.fetch_add(1);
                  return;
                }
              }
              // An inspect rides the same pipeline: its kWarning must
              // come back in sequence, not jump the queue.
              wire::Request ins;
              ins.type = wire::MsgType::kInspect;
              ins.home = homes[static_cast<size_t>(h)];
              ins.now_hours = kInspectHour;
              if (!send_one(ins, 0)) {
                failures.fetch_add(1);
                return;
              }
            }
            while (c.pending() > 0) {
              if (!recv_one()) {
                failures.fetch_add(1);
                return;
              }
            }
          });
        }
        for (auto& th : clients) th.join();
        ASSERT_EQ(failures.load(), 0);
        const auto batch_frames = server.counters().batch_frames;
        EXPECT_GT(batch_frames, 0u);
        // Stop() drains the bus and joins every thread; the fleet is
        // then quiescent for the bit-identity sweep.
        server.Stop();
        EXPECT_EQ(FleetMap(&fleet), want);
      }
    }
  }
}

// A batch whose events fail at apply is ONE failed message: the batch was
// accepted (kBatchAck OK — accepted on enqueue like any mutation),
// and the apply failure is counted once per batch, not once per event.
TEST_F(FleetTest, BatchApplyFailureCountsOncePerBatch) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer server(&fleet, {});
  ASSERT_TRUE(server.Start().ok());
  auto pool = RulePool(2);
  wire::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
  wire::Request req;
  wire::Reply reply;
  req.type = wire::MsgType::kEventBatch;
  req.home = "batch-ghost";  // never registered: every event fails
  for (int i = 0; i < 5; ++i) {
    req.events.push_back(EventFor(pool[0], 0.5 + 0.1 * i));
  }
  ASSERT_TRUE(c.Call(req, &reply).ok());
  ASSERT_EQ(reply.type, wire::MsgType::kBatchAck);
  EXPECT_EQ(reply.code, 0) << reply.message;  // accepted, then fails at apply
  EXPECT_EQ(reply.batch_events, 5u);

  req = wire::Request();
  req.type = wire::MsgType::kStats;
  ASSERT_TRUE(c.Call(req, &reply).ok());
  EXPECT_EQ(reply.events, 0u);
  EXPECT_EQ(reply.bus_apply_errors, 1u);  // one batch, one error
  server.Stop();
}

// ---- C10k: connections cost buffers, never threads -----------------------

size_t OsThreadCount() {
  size_t n = 0;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n;
}

// A thread another test already joined can stay listed under
// /proc/self/task for a moment; poll until two reads a few ms apart agree
// so the count is a stable baseline rather than a snapshot mid-teardown.
size_t StableOsThreadCount() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  size_t prev = OsThreadCount();
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t now = OsThreadCount();
    if (now == prev) return now;
    prev = now;
  }
  return prev;
}

TEST_F(FleetTest, ThousandIdleConnectionsHoldWithBoundedThreads) {
  FleetConfig cfg;
  cfg.num_shards = 2;
  ShardedFleet fleet(detector_, cfg);
  FleetServer::Config sc;
  sc.io_workers = 2;
  FleetServer server(&fleet, sc);
  ASSERT_TRUE(server.Start().ok());
  const size_t threads_after_start = StableOsThreadCount();
  ASSERT_GT(threads_after_start, 0u);

  const int kConns = 1000;
  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0) << "connection " << i;
    fds.push_back(fd);
  }
  // connect() returning means the kernel SYN-ACKed (backlog); wait for
  // the server to have actually accepted all of them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.open_connections() < static_cast<size_t>(kConns)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "accepted " << server.open_connections() << "/" << kConns;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.open_connections(), static_cast<size_t>(kConns));
  EXPECT_EQ(server.counters().connections, static_cast<uint64_t>(kConns));

  // The C10k assertion: a thousand held connections added ZERO threads —
  // the worker pool is the configured constant.
  EXPECT_EQ(StableOsThreadCount(), threads_after_start);
  EXPECT_EQ(server.io_workers(), sc.io_workers);

  // The server is not merely holding the fds — sample some and serve.
  wire::Request ping;
  ping.type = wire::MsgType::kPing;
  for (int i = 0; i < kConns; i += 250) {
    const int fd = fds[static_cast<size_t>(i)];
    ASSERT_TRUE(wire::SendFrame(fd, wire::EncodeRequest(ping)).ok());
    std::vector<char> payload;
    ASSERT_TRUE(wire::RecvFrame(fd, &payload).ok()) << "conn " << i;
    wire::Reply reply;
    ASSERT_TRUE(wire::DecodeReply(payload, &reply).ok());
    EXPECT_EQ(reply.type, wire::MsgType::kPong);
  }
  for (int fd : fds) ::close(fd);
  server.Stop();
  EXPECT_EQ(server.open_connections(), 0u);
}

// ---- Stop vs. live pipelined load ----------------------------------------

size_t OpenFdCount() {
  size_t n = 0;
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n;
}

// Stop() racing pipelined batched load must neither hang nor lose acked
// work: every kBatchAck with code 0 covers events that are applied before
// Stop() returns, clients surface clean errors (never crash), and the
// whole episode leaks no file descriptors. The TSAN leg of check.sh runs
// this against the shutdown path's lock discipline.
TEST_F(FleetTest, StopRacesPipelinedBatchedLoadWithoutLossOrLeak) {
  const size_t fds_before = OpenFdCount();
  auto pool = RulePool(4);
  const std::vector<HomeId> homes = {"sr-a", "sr-b", "sr-c"};
  std::atomic<uint64_t> acked_events{0};
  {
    FleetConfig cfg;
    cfg.num_shards = 2;
    ShardedFleet fleet(detector_, cfg);
    FleetServer server(&fleet, {});
    ASSERT_TRUE(server.Start().ok());
    {
      wire::Client c;
      ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
      for (const auto& home : homes) {
        wire::Request req;
        wire::Reply reply;
        req.type = wire::MsgType::kAddHome;
        req.home = home;
        req.rules = {pool[0], pool[1]};
        ASSERT_TRUE(c.Call(req, &reply).ok());
        ASSERT_EQ(reply.code, 0) << reply.message;
      }
    }
    std::vector<std::thread> clients;
    for (size_t t = 0; t < homes.size(); ++t) {
      clients.emplace_back([&, t] {
        wire::Client::Options opt;
        opt.max_window = 16;
        opt.recv_timeout_ms = 10000;
        // No reconnect: a failure after Stop must surface as an error,
        // not loop retrying a server that is gone — and without replayed
        // frames, acked == accepted exactly once.
        opt.auto_reconnect = false;
        wire::Client c(opt);
        if (!c.Connect("127.0.0.1", server.port()).ok()) return;
        double now = 0.2 + 0.01 * static_cast<double>(t);
        for (int i = 0; i < 4000; ++i) {
          wire::Request req;
          req.type = wire::MsgType::kEventBatch;
          req.home = homes[t];
          for (int e = 0; e < 5; ++e) {
            req.events.push_back(
                EventFor(pool[static_cast<size_t>((i + e) % 4)], now));
            now += 0.001;
          }
          if (c.pending() >= opt.max_window) {
            wire::Reply reply;
            if (!c.Recv(&reply).ok()) return;  // server stopping: clean exit
            if (reply.code == 0) {
              acked_events.fetch_add(reply.batch_events);
            }
          }
          if (!c.Send(req).ok()) return;
        }
        while (c.pending() > 0) {
          wire::Reply reply;
          if (!c.Recv(&reply).ok()) return;
          if (reply.code == 0) acked_events.fetch_add(reply.batch_events);
        }
      });
    }
    // Let the pipelines build up real in-flight depth, then yank the rug.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.Stop();
    for (auto& th : clients) th.join();
    // Stop() drained the bus: every acked batch's events are applied (an
    // accepted-but-unacked batch may add more, never fewer).
    EXPECT_GE(fleet.AggregateStats().events, acked_events.load());
    EXPECT_EQ(server.open_connections(), 0u);
  }
  EXPECT_GT(acked_events.load(), 0u);
  // Server, clients, and fleet are gone: every fd they held is too.
  EXPECT_EQ(OpenFdCount(), fds_before);
}

// ---- Fleet-level routing sanity over the scripted homes -----------------

TEST_F(FleetTest, RoutedOpsLandOnTheOwningShardOnly) {
  FleetConfig cfg;
  cfg.num_shards = 8;
  ShardedFleet fleet(detector_, cfg);
  for (const auto& op : *script_) {
    ASSERT_TRUE(ApplyToFleet(&fleet, op).ok());
  }
  size_t total = 0;
  for (int k = 0; k < fleet.num_shards(); ++k) {
    for (size_t h = 0; h < fleet.shard(k).num_homes(); ++h) {
      const HomeId& id = fleet.shard(k).home_ids()[h];
      EXPECT_EQ(fleet.ShardOf(id), k) << id << " on the wrong shard";
    }
    total += fleet.shard(k).num_homes();
  }
  EXPECT_EQ(total, kHomes.size());
  EXPECT_TRUE(fleet.has_home("alpha"));
  EXPECT_FALSE(fleet.has_home("zulu"));
  // Duplicate registration is refused fleet-wide (same ring position).
  EXPECT_FALSE(fleet.TryAddHome("alpha", RulePool(1)).ok());
}

}  // namespace
}  // namespace glint::fleet
