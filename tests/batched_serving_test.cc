// Property suite for ServingEngine::InspectAll: for every batch size,
// thread count and kernel backend, the batched fleet sweep must be
// *bit-identical* to a serial loop of per-home TryInspect on a twin engine
// (the session path) — same verdicts, same confidences (compared as hex
// doubles), same explainer culprits, same rendered warnings — and the
// per-home verdict/tensor caches must end up in the same state
// (AggregateStats equality, verdict hits on re-inspect). A recovery leg
// runs the same equivalence through a durable engine with an injected WAL
// append failure and a post-snapshot Recover().

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/serving.h"
#include "core/session.h"
#include "gnn/kernels.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace glint::core {
namespace {

// Test setup goes through the Status-returning engine API; a failure there
// is a broken fixture, so stop the test.
#define ASSERT_OK(expr)                                        \
  do {                                                         \
    const Status assert_ok_st = (expr);                        \
    ASSERT_TRUE(assert_ok_st.ok()) << assert_ok_st.ToString(); \
  } while (0)

// One small trained detector shared by every test here; quality is
// irrelevant — equivalence only depends on the computation graph.
class BatchedServingTest : public ::testing::Test {
 public:  // helpers are shared with the free RunEquivalenceScript driver
  static void SetUpTestSuite() {
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
  }

  void SetUp() override { fault::Registry::Global().Clear(); }
  void TearDown() override {
    fault::Registry::Global().Clear();
    ThreadPool::SetGlobalThreads(ThreadPool::ConfiguredThreads());
    gnn::kernels::SetBackend(gnn::kernels::AvailableBackends().back());
  }

  static std::vector<rules::Rule> HomeRules(int n, int base_id = 9000) {
    std::vector<rules::Rule> out(
        detector_->corpus().begin(),
        detector_->corpus().begin() +
            std::min<size_t>(static_cast<size_t>(n),
                             detector_->corpus().size()));
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].id = base_id + static_cast<int>(i);
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

  /// Hex-exact fingerprint of a warning: flips in any bit of the verdict,
  /// confidence, or explainer output change the string.
  static std::string Fp(const ThreatWarning& w) {
    char buf[64];
    std::string out;
    out += w.threat ? "T" : "t";
    out += w.drifting ? "D" : "d";
    std::snprintf(buf, sizeof buf, " %.17a", w.confidence);
    out += buf;
    for (auto ty : w.types) {
      std::snprintf(buf, sizeof buf, " y%d", static_cast<int>(ty));
      out += buf;
    }
    for (const auto& c : w.culprits) {
      std::snprintf(buf, sizeof buf, " [%d %.17a ", c.node, c.importance);
      out += buf;
      out += c.platform + " " + c.rule_text + "]";
    }
    out += "\n" + w.Render();
    return out;
  }

  static std::string Fp(const std::vector<ThreatWarning>& ws) {
    std::string out;
    for (const auto& w : ws) out += Fp(w) + "\n---\n";
    return out;
  }

  static std::string StatsFp(const DeploymentSession::CacheStats& s) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "inspects=%llu events=%llu rules=%llu vh=%llu vm=%llu "
                  "th=%llu tm=%llu",
                  (unsigned long long)s.inspects, (unsigned long long)s.events,
                  (unsigned long long)s.rules,
                  (unsigned long long)s.verdict_hits,
                  (unsigned long long)s.verdict_misses,
                  (unsigned long long)s.tensor_hits,
                  (unsigned long long)s.tensor_misses);
    return buf;
  }

  static HomeId Id(int h) { return "home-" + std::to_string(h); }

  /// Registers the same small fleet into `eng`: homes with different rule
  /// counts (1-rule through 7-rule graphs) so super-graph segments have
  /// heterogeneous sizes.
  static void BuildFleet(ServingEngine* eng) {
    const int counts[] = {3, 5, 2, 7, 1, 4, 6, 3};
    for (int h = 0; h < 8; ++h) {
      ASSERT_OK(eng->TryAddHome(Id(h), HomeRules(counts[h], 9000 + 100 * h))
                    .status());
    }
  }

  /// Fires one round of events (a subset of homes, trigger events derived
  /// from their own rules) so graphs drift apart between inspections.
  static void FireRound(ServingEngine* eng, int round, double t) {
    const int counts[] = {3, 5, 2, 7, 1, 4, 6, 3};
    for (int h = 0; h < 8; ++h) {
      if ((h + round) % 3 == 0) continue;  // skip some homes each round
      auto rules = HomeRules(counts[h], 9000 + 100 * h);
      const auto& r = rules[static_cast<size_t>(round) % rules.size()];
      ASSERT_OK(eng->TryOnEvent(Id(h), EventFor(r, t)));
    }
  }

  /// The reference every sweep must match: one TryInspect per home, in
  /// registration order.
  static std::vector<ThreatWarning> InspectEach(ServingEngine* eng,
                                                double now) {
    std::vector<ThreatWarning> out;
    for (const HomeId& id : eng->home_ids()) {
      Result<ThreatWarning> w = eng->TryInspect(id, now);
      EXPECT_TRUE(w.ok()) << id << ": " << w.status().ToString();
      out.push_back(w.ok() ? w.value() : ThreatWarning());
    }
    return out;
  }

  static TrainedDetector* detector_;
};

TrainedDetector* BatchedServingTest::detector_ = nullptr;

/// Drives two engines (a per-home TryInspect reference and a batched
/// sweep with `max_batch`) through an identical script and asserts
/// bit-identical warnings and identical aggregate cache counters after
/// every round.
void RunEquivalenceScript(const TrainedDetector* detector, int max_batch) {
  ServingEngine seq(detector);
  ServingEngine bat(detector);
  BatchedServingTest::BuildFleet(&seq);
  BatchedServingTest::BuildFleet(&bat);

  double now = 1.0;
  for (int round = 0; round < 3; ++round) {
    BatchedServingTest::FireRound(&seq, round, now - 0.25);
    BatchedServingTest::FireRound(&bat, round, now - 0.25);
    const auto ws = BatchedServingTest::InspectEach(&seq, now);
    const auto wb = bat.InspectAll(now, max_batch);
    ASSERT_EQ(ws.size(), wb.size());
    EXPECT_EQ(BatchedServingTest::Fp(ws), BatchedServingTest::Fp(wb))
        << "round " << round << " max_batch " << max_batch;
    EXPECT_EQ(BatchedServingTest::StatsFp(seq.AggregateStats()),
              BatchedServingTest::StatsFp(bat.AggregateStats()))
        << "round " << round << " max_batch " << max_batch;
    now += 1.0;
  }

  // Re-inspect at the same instant: every home must serve its warning from
  // the verdict cache on both sides — FinishInspect left the batched
  // caches in the same state the per-home path did.
  const double pre_hits_now = now - 1.0;
  const auto s0 = bat.AggregateStats();
  const auto ws = BatchedServingTest::InspectEach(&seq, pre_hits_now);
  const auto wb = bat.InspectAll(pre_hits_now, max_batch);
  EXPECT_EQ(BatchedServingTest::Fp(ws), BatchedServingTest::Fp(wb));
  const auto s1 = bat.AggregateStats();
  EXPECT_EQ(s1.verdict_hits - s0.verdict_hits, bat.num_homes());
  EXPECT_EQ(BatchedServingTest::StatsFp(seq.AggregateStats()),
            BatchedServingTest::StatsFp(s1));
}

TEST_F(BatchedServingTest, MatchesSequentialAcrossBatchSizes) {
  // max_batch 1 (every super-graph is one graph), tiny batches that split
  // the fleet unevenly, and one covering the whole fleet.
  for (int max_batch : {1, 2, 3, 256}) {
    RunEquivalenceScript(detector_, max_batch);
    if (HasFatalFailure()) return;
  }
}

TEST_F(BatchedServingTest, MatchesSequentialAcrossThreadCounts) {
  for (int threads : {1, 2, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    RunEquivalenceScript(detector_, 3);
    if (HasFatalFailure()) return;
  }
}

TEST_F(BatchedServingTest, MatchesSequentialOnForcedScalarBackend) {
  ASSERT_TRUE(gnn::kernels::SetBackend(gnn::kernels::Backend::kScalar));
  RunEquivalenceScript(detector_, 256);
}

TEST_F(BatchedServingTest, SingleHomeAndEmptyFleet) {
  ServingEngine eng(detector_);
  EXPECT_TRUE(eng.InspectAll(1.0).empty());
  ASSERT_OK(eng.TryAddHome("solo", HomeRules(4)).status());
  ServingEngine ref(detector_);
  ASSERT_OK(ref.TryAddHome("solo", HomeRules(4)).status());
  EXPECT_EQ(Fp(InspectEach(&ref, 1.0)), Fp(eng.InspectAll(1.0)));
}

/// Registers a home without rules ("bare", first) and one whose rules were
/// all removed ("emptied", last) around the small fleet: both tensorize to
/// zero-node graphs.
void BuildFleetWithZeroNodeHomes(ServingEngine* eng) {
  ASSERT_OK(eng->TryAddHome("bare", {}).status());
  BatchedServingTest::BuildFleet(eng);
  const auto rules = BatchedServingTest::HomeRules(3, 7000);
  ASSERT_OK(eng->TryAddHome("emptied", rules).status());
  for (const auto& rule : rules) {
    bool removed = false;
    ASSERT_OK(eng->TryRemoveRule("emptied", rule.id, &removed));
    ASSERT_TRUE(removed);
  }
}

/// A zero-node graph has nothing that can interact: every inspection path
/// answers it with the default benign warning, and the batched sweep still
/// matches per-home TryInspect with those homes inside its batches.
TEST_F(BatchedServingTest, ZeroNodeHomesInspectBenignOnEveryPath) {
  const std::string benign = Fp(ThreatWarning());
  for (int max_batch : {1, 64}) {
    ServingEngine seq(detector_);
    ServingEngine bat(detector_);
    ServingEngine degraded(detector_);
    BuildFleetWithZeroNodeHomes(&seq);
    BuildFleetWithZeroNodeHomes(&bat);
    BuildFleetWithZeroNodeHomes(&degraded);
    if (HasFatalFailure()) return;

    const auto ws = InspectEach(&seq, 1.0);
    const auto wb = bat.InspectAll(1.0, max_batch);
    ASSERT_EQ(ws.size(), wb.size());
    EXPECT_EQ(Fp(ws), Fp(wb)) << "max_batch " << max_batch;
    EXPECT_EQ(StatsFp(seq.AggregateStats()), StatsFp(bat.AggregateStats()));
    const std::vector<HomeId>& ids = bat.home_ids();
    for (size_t h = 0; h < ids.size(); ++h) {
      if (ids[h] != "bare" && ids[h] != "emptied") continue;
      EXPECT_EQ(Fp(ws[h]), benign) << ids[h];
      EXPECT_EQ(Fp(wb[h]), benign) << ids[h];
      Result<ThreatWarning> d = degraded.TryInspectDegraded(ids[h], 1.0);
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      EXPECT_EQ(Fp(d.value()), benign) << ids[h];
    }
  }
}

/// GLINT_FAULTS leg: a durable engine suffers a WAL append failure (the op
/// must not be applied), recovers from snapshot + tail in a fresh engine,
/// and the recovered fleet's batched inspection still matches an
/// uninterrupted non-durable engine's per-home TryInspect bit-for-bit.
TEST_F(BatchedServingTest, BatchedMatchesSequentialAfterFaultAndRecovery) {
  char tmpl[] = "/tmp/glint_batched_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = std::string(tmpl) + "/state";

  ServingEngine ref(detector_);  // uninterrupted reference
  BuildFleet(&ref);

  auto dur = std::make_unique<ServingEngine>(detector_);
  ASSERT_TRUE(dur->Recover(dir).ok());
  BuildFleet(dur.get());

  // Round 0 on both, then a faulted append on the durable engine: the
  // rejected event must leave its state untouched (so no compensating op
  // on the reference side).
  FireRound(&ref, 0, 0.75);
  FireRound(dur.get(), 0, 0.75);
  fault::Registry::Global().Arm("wal.append.write", fault::Mode::kFail);
  auto rules0 = HomeRules(3, 9000);
  EXPECT_FALSE(dur->TryOnEvent(Id(0), EventFor(rules0[0], 0.9)).ok());
  fault::Registry::Global().Clear();

  ASSERT_TRUE(dur->Snapshot().ok());

  // Round 1 lands after the snapshot, so recovery replays it from the WAL
  // tail.
  FireRound(&ref, 1, 1.75);
  FireRound(dur.get(), 1, 1.75);

  dur.reset();  // drop without snapshotting: round 1 lives only in the WAL
  ServingEngine rec(detector_);
  ASSERT_TRUE(rec.Recover(dir).ok());
  ASSERT_EQ(rec.num_homes(), ref.num_homes());

  const auto ws = InspectEach(&ref, 2.0);
  const auto wb = rec.InspectAll(2.0, 3);
  EXPECT_EQ(Fp(ws), Fp(wb));
}

}  // namespace
}  // namespace glint::core
