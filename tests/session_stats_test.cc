// Ground-truth property test for the per-session cache counters surfaced
// through DeploymentSession::Stats() / ServingEngine::AggregateStats(): a
// scripted AddRule / OnEvent / Inspect sequence whose verdict-LRU and
// GnnGraphCache hit counts are derivable by hand, plus the unknown-id
// contract of ServingEngine's id-addressed Try* API (NotFound, nothing
// journaled, no session counter moved).

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/serving.h"
#include "core/session.h"

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
// irrelevant — the counters only depend on cache keys and LRU mechanics.
class SessionStatsTest : public ::testing::Test {
 protected:
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

  static std::vector<rules::Rule> HomeRules(int n) {
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

  static TrainedDetector* detector_;
};

TrainedDetector* SessionStatsTest::detector_ = nullptr;

TEST_F(SessionStatsTest, FreshSessionCountsRulesOnly) {
  auto rules = HomeRules(4);
  DeploymentSession session(detector_);
  for (const auto& r : rules) session.AddRule(r);
  const auto s = session.Stats();
  EXPECT_EQ(s.rules, 4u);
  EXPECT_EQ(s.inspects, 0u);
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.verdict_hits, 0u);
  EXPECT_EQ(s.verdict_misses, 0u);
  EXPECT_EQ(s.tensor_hits, 0u);
  EXPECT_EQ(s.tensor_misses, 0u);
}

TEST_F(SessionStatsTest, ScriptedSequenceHitsExactCounts) {
  // Capacity 2 on both caches. The script walks three graph structures:
  //   A = rules {0..4}, B = {0..3}, C = {0..2}
  // (removing the *last* rule, so re-adding it restores the exact node
  // order and therefore the exact cache key).
  auto rules = HomeRules(5);
  DeploymentSession::Config cfg;
  cfg.cache_capacity = 2;
  DeploymentSession session(detector_, cfg);
  for (const auto& r : rules) session.AddRule(r);
  const double now = 1.0;

  // 1) A: verdict miss, tensor miss.        verdict LRU {A}, tensor {A}
  const auto wa = session.TryInspect(now).ValueOrDie();
  // 2) B: verdict miss, tensor miss.        verdict {A,B}, tensor {A,B}
  ASSERT_TRUE(session.RemoveRule(rules[4].id));
  const auto wb = session.TryInspect(now).ValueOrDie();
  // 3) A again: verdict HIT (refreshes A in the verdict LRU only — the
  //    tensor cache is never consulted on a verdict hit, so its recency
  //    order still says A is oldest).       verdict {B,A}, tensor {A,B}
  session.AddRule(rules[4]);
  const auto wa2 = session.TryInspect(now).ValueOrDie();
  EXPECT_EQ(wa2.Render(), wa.Render());
  // 4) C: verdict miss, tensor miss; both caches are full, so the verdict
  //    LRU evicts B (oldest there) while the tensor cache evicts A.
  //                                         verdict {A,C}, tensor {B,C}
  ASSERT_TRUE(session.RemoveRule(rules[4].id));
  ASSERT_TRUE(session.RemoveRule(rules[3].id));
  const auto wc = session.TryInspect(now).ValueOrDie();
  // 5) B again: verdict miss (B was evicted in step 4) but tensor HIT —
  //    the divergent recency orders are exactly what the two counters are
  //    supposed to make visible.
  session.AddRule(rules[3]);
  const auto wb2 = session.TryInspect(now).ValueOrDie();
  EXPECT_EQ(wb2.Render(), wb.Render());  // hit path == recompute path

  const auto s = session.Stats();
  EXPECT_EQ(s.inspects, 5u);
  EXPECT_EQ(s.verdict_hits, 1u);
  EXPECT_EQ(s.verdict_misses, 4u);
  EXPECT_EQ(s.tensor_hits, 1u);
  EXPECT_EQ(s.tensor_misses, 3u);
  // Every verdict miss does exactly one tensor lookup.
  EXPECT_EQ(s.tensor_hits + s.tensor_misses, s.verdict_misses);
  EXPECT_EQ(s.rules, 4u);  // ended at structure B
  (void)wc;
}

TEST_F(SessionStatsTest, EventsAreCountedAndChangeTheKey) {
  auto rules = HomeRules(4);
  DeploymentSession session(detector_);
  for (const auto& r : rules) session.AddRule(r);
  (void)session.TryInspect(1.0).ValueOrDie();
  session.OnEvent(EventFor(rules[0], 1.1));
  session.OnEvent(EventFor(rules[1], 1.2));
  const auto s = session.Stats();
  EXPECT_EQ(s.events, 2u);
  // Counters stay internally consistent whatever the events did to edges.
  const auto s2 = session.Stats();
  (void)session.TryInspect(1.3).ValueOrDie();
  const auto s3 = session.Stats();
  EXPECT_EQ(s3.inspects, s2.inspects + 1);
  EXPECT_EQ(s3.verdict_hits + s3.verdict_misses, s3.inspects);
}

TEST_F(SessionStatsTest, AggregateStatsSumsHomes) {
  auto rules = HomeRules(4);
  ServingEngine engine(detector_);
  for (const char* id : {"h0", "h1", "h2"}) {
    ASSERT_OK(engine.TryAddHome(id, rules).status());
  }
  ASSERT_OK(engine.TryOnEvent("h0", EventFor(rules[0], 1.0)));
  ASSERT_OK(engine.TryOnEvent("h2", EventFor(rules[1], 1.1)));
  (void)engine.InspectAll(1.5);
  (void)engine.InspectAll(1.5);  // unchanged structures: all verdict hits

  DeploymentSession::CacheStats manual;
  for (int h = 0; h < 3; ++h) manual += engine.home_view(h).Stats();
  const auto agg = engine.AggregateStats();
  EXPECT_EQ(agg.inspects, manual.inspects);
  EXPECT_EQ(agg.events, manual.events);
  EXPECT_EQ(agg.rules, manual.rules);
  EXPECT_EQ(agg.verdict_hits, manual.verdict_hits);
  EXPECT_EQ(agg.tensor_hits, manual.tensor_hits);
  EXPECT_EQ(agg.inspects, 6u);
  EXPECT_EQ(agg.events, 2u);
  EXPECT_EQ(agg.verdict_hits, 3u);  // the second InspectAll, per home
}

TEST_F(SessionStatsTest, UnknownIdIsNotFoundAndTouchesNothing) {
  // A durable engine, so "nothing journaled" is observable as journal_seq.
  char tmpl[] = "/tmp/glint_unknown_id_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  auto rules = HomeRules(3);
  ServingEngine engine(detector_);
  ASSERT_OK(engine.Recover(std::string(tmpl) + "/state"));
  ASSERT_OK(engine.TryAddHome("known", rules).status());
  ASSERT_OK(engine.TryOnEvent("known", EventFor(rules[0], 1.0)));
  ASSERT_OK(engine.TryInspect("known", 1.5).status());

  const graph::Event e = EventFor(rules[1], 2.0);
  const struct {
    const char* call;
    std::function<Status(ServingEngine&)> run;
  } cases[] = {
      {"TryAddRule",
       [&](ServingEngine& eng) { return eng.TryAddRule("nope", rules[2]); }},
      {"TryRemoveRule",
       [&](ServingEngine& eng) {
         return eng.TryRemoveRule("nope", rules[0].id);
       }},
      {"TryOnEvent",
       [&](ServingEngine& eng) { return eng.TryOnEvent("nope", e); }},
      {"TryInspect",
       [](ServingEngine& eng) { return eng.TryInspect("nope", 3.0).status(); }},
      {"TryInspectDegraded",
       [](ServingEngine& eng) {
         return eng.TryInspectDegraded("nope", 3.0).status();
       }},
  };
  for (const auto& c : cases) {
    const uint64_t seq = engine.journal_seq();
    const DeploymentSession::CacheStats before = engine.AggregateStats();
    const Status st = c.run(engine);
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << c.call << ": "
                                                << st.ToString();
    EXPECT_NE(st.ToString().find("'nope'"), std::string::npos) << c.call;
    EXPECT_EQ(engine.journal_seq(), seq) << c.call;
    const DeploymentSession::CacheStats after = engine.AggregateStats();
    EXPECT_EQ(after.inspects, before.inspects) << c.call;
    EXPECT_EQ(after.events, before.events) << c.call;
    EXPECT_EQ(after.rules, before.rules) << c.call;
    EXPECT_EQ(after.verdict_hits, before.verdict_hits) << c.call;
    EXPECT_EQ(after.verdict_misses, before.verdict_misses) << c.call;
    EXPECT_EQ(after.tensor_hits, before.tensor_hits) << c.call;
    EXPECT_EQ(after.tensor_misses, before.tensor_misses) << c.call;
  }
  EXPECT_EQ(engine.num_homes(), 1u);
  std::error_code ec;
  std::filesystem::remove_all(tmpl, ec);
}

}  // namespace
}  // namespace glint::core
