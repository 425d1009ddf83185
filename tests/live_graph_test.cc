// Incremental-vs-cold equivalence for the LiveGraph delta API: after any
// random sequence of AddRule / RemoveRule / OnEvent, the materialized
// static and real-time graphs must be bit-identical to a cold
// GraphBuilder::BuildFromRules / BuildRealTime over the same rules and
// events (same node order, same edge insertion order, same labels).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/event_log.h"
#include "graph/live_graph.h"
#include "rules/corpus.h"
#include "util/binio.h"
#include "util/rng.h"

namespace glint::graph {
namespace {

const nlp::EmbeddingModel& WordModel() {
  static const nlp::EmbeddingModel* m = new nlp::EmbeddingModel(300, 17);
  return *m;
}
const nlp::EmbeddingModel& SentenceModel() {
  static const nlp::EmbeddingModel* m = new nlp::EmbeddingModel(512, 18);
  return *m;
}

GraphBuilder& Builder() {
  static GraphBuilder* b =
      new GraphBuilder({}, &WordModel(), &SentenceModel());
  return *b;
}

std::vector<rules::Rule> Pool() {
  rules::CorpusConfig cc;
  cc.ifttt = 120;
  cc.smartthings = 30;
  cc.alexa = 40;
  cc.google_assistant = 20;
  cc.home_assistant = 20;
  auto pool = rules::CorpusGenerator(cc).Generate();
  // Re-id so RemoveRule targets are unambiguous.
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i].id = 9000 + static_cast<int>(i);
  }
  return pool;
}

LiveGraph MakeLive(double window_hours = 3.0) {
  return LiveGraph(
      {window_hours, true},
      [](const rules::Rule& a, const rules::Rule& b) {
        return rules::RuleTriggersRule(a, b);
      },
      [](const rules::Rule& r) { return Builder().MakeNode(r); });
}

// An event that fires `r`'s trigger.
Event TriggerEvent(const rules::Rule& r, double t) {
  Event e;
  e.time_hours = t;
  e.device = r.trigger.device;
  e.state = r.trigger.state;
  e.location = r.location;
  return e;
}

// An event reporting the effect of `r`'s action `a`.
Event EffectEvent(const rules::Rule& r, size_t a, double t) {
  Event e;
  e.time_hours = t;
  e.device = r.actions[a].device;
  e.state = rules::CommandResultState(r.actions[a].command);
  e.location = r.location;
  return e;
}

void ExpectSameGraph(const InteractionGraph& warm,
                     const InteractionGraph& cold, int step) {
  ASSERT_EQ(warm.num_nodes(), cold.num_nodes()) << "step " << step;
  ASSERT_EQ(warm.num_edges(), cold.num_edges()) << "step " << step;
  for (int i = 0; i < warm.num_nodes(); ++i) {
    const auto& a = warm.nodes()[static_cast<size_t>(i)];
    const auto& b = cold.nodes()[static_cast<size_t>(i)];
    ASSERT_EQ(a.rule.id, b.rule.id) << "step " << step << " node " << i;
    ASSERT_EQ(a.type, b.type) << "step " << step << " node " << i;
    ASSERT_EQ(*a.features, *b.features) << "step " << step << " node " << i;
  }
  for (int k = 0; k < warm.num_edges(); ++k) {
    const auto& a = warm.edges()[static_cast<size_t>(k)];
    const auto& b = cold.edges()[static_cast<size_t>(k)];
    ASSERT_EQ(a.src, b.src) << "step " << step << " edge " << k;
    ASSERT_EQ(a.dst, b.dst) << "step " << step << " edge " << k;
  }
  ASSERT_EQ(warm.vulnerable(), cold.vulnerable()) << "step " << step;
  ASSERT_EQ(warm.threat_types(), cold.threat_types()) << "step " << step;
}

TEST(LiveGraphTest, StaticMatchesColdBuildAfterRandomAddRemove) {
  const auto pool = Pool();
  LiveGraph live = MakeLive();
  Rng rng(41);
  size_t next = 0;
  for (int step = 0; step < 60; ++step) {
    if (live.num_rules() == 0 || (rng.Uniform() < 0.7 && next < pool.size())) {
      live.AddRule(pool[next++]);
    } else {
      const auto cur = live.CurrentRules();
      EXPECT_TRUE(live.RemoveRule(cur[rng.Below(cur.size())].id));
    }
    auto warm = live.MaterializeStatic();
    auto cold = Builder().BuildFromRules(live.CurrentRules());
    ExpectSameGraph(warm, cold, step);
  }
}

TEST(LiveGraphTest, RealTimeMatchesColdBuildUnderEventStream) {
  const auto pool = Pool();
  LiveGraph live = MakeLive();
  EventLog log;
  Rng rng(43);
  size_t next = 0;
  double now = 5.0;
  for (int i = 0; i < 12; ++i) live.AddRule(pool[next++]);
  for (int step = 0; step < 120; ++step) {
    const double r = rng.Uniform();
    if (r < 0.1 && next < pool.size()) {
      live.AddRule(pool[next++]);
    } else if (r < 0.15 && live.num_rules() > 2) {
      const auto cur = live.CurrentRules();
      live.RemoveRule(cur[rng.Below(cur.size())].id);
    } else {
      // Event drawn from a deployed rule so edges actually go live: its
      // trigger firing, or one of its action effects.
      now += 0.02 + rng.Uniform() * 0.4;
      const auto cur = live.CurrentRules();
      const auto& rule = cur[rng.Below(cur.size())];
      Event e = (rng.Chance(0.5) || rule.actions.empty())
                    ? TriggerEvent(rule, now)
                    : EffectEvent(rule, rng.Below(rule.actions.size()), now);
      live.OnEvent(e);
      log.Append(e);
    }
    const double inspect_at = now + rng.Uniform() * 0.1;
    auto warm = live.MaterializeRealTime(inspect_at);
    auto cold =
        Builder().BuildRealTime(live.CurrentRules(), log, inspect_at);
    ExpectSameGraph(warm, cold, step);
  }
}

TEST(LiveGraphTest, RealTimeMatchesColdAfterRuleChurnMidStream) {
  // Rules added *after* events must replay the retained window (a rule
  // deployed mid-stream sees the events that are still in scope).
  const auto pool = Pool();
  LiveGraph live = MakeLive();
  EventLog log;
  Rng rng(47);
  size_t next = 0;
  double now = 8.0;
  for (int i = 0; i < 6; ++i) live.AddRule(pool[next++]);
  for (int burst = 0; burst < 6; ++burst) {
    for (int k = 0; k < 10; ++k) {
      now += 0.05 + rng.Uniform() * 0.2;
      const auto cur = live.CurrentRules();
      const auto& rule = cur[rng.Below(cur.size())];
      Event e = (rng.Chance(0.5) || rule.actions.empty())
                    ? TriggerEvent(rule, now)
                    : EffectEvent(rule, rng.Below(rule.actions.size()), now);
      live.OnEvent(e);
      log.Append(e);
    }
    // Churn: one in, one out, then verify equivalence.
    if (next < pool.size()) live.AddRule(pool[next++]);
    const auto cur = live.CurrentRules();
    live.RemoveRule(cur[rng.Below(cur.size())].id);
    auto warm = live.MaterializeRealTime(now);
    auto cold = Builder().BuildRealTime(live.CurrentRules(), log, now);
    ExpectSameGraph(warm, cold, burst);
  }
}

TEST(LiveGraphTest, EdgesMatchMaterializedGraph) {
  // StaticEdges / RealTimeEdges are the exact edge lists of the
  // materialized graphs (sessions key caches off them).
  const auto pool = Pool();
  LiveGraph live = MakeLive();
  for (int i = 0; i < 10; ++i) live.AddRule(pool[static_cast<size_t>(i)]);
  auto edges = live.StaticEdges();
  auto g = live.MaterializeStatic();
  ASSERT_EQ(static_cast<int>(edges.size()), g.num_edges());
  for (size_t k = 0; k < edges.size(); ++k) {
    EXPECT_EQ(edges[k].src, g.edges()[k].src);
    EXPECT_EQ(edges[k].dst, g.edges()[k].dst);
  }
}

// A graph over its own builder, so the builder's feature memo sees only
// this graph's rules.
LiveGraph MakeLiveOn(const GraphBuilder& builder) {
  return LiveGraph(
      {3.0, true},
      [](const rules::Rule& a, const rules::Rule& b) {
        return rules::RuleTriggersRule(a, b);
      },
      [&builder](const rules::Rule& r) { return builder.MakeNode(r); });
}

// One vector per live text: the entry's features, the memo's entry (what
// MakeNode hands out for that text) and every materialized node of that
// text are one object, held by the nodes only.
TEST(LiveGraphTest, EntryMemoAndMaterializedNodesShareOneVector) {
  const auto pool = Pool();
  GraphBuilder builder({}, &WordModel(), &SentenceModel());
  LiveGraph live = MakeLiveOn(builder);
  rules::Rule twin = pool[0];
  twin.id = 1;  // the same text deployed twice
  live.AddRule(pool[0]);
  live.AddRule(pool[1]);
  live.AddRule(twin);

  const Node probe = builder.MakeNode(pool[0]);
  // The entries of pool[0] and its twin, and the probe; the memo is weak.
  EXPECT_EQ(probe.features.use_count(), 3);
  const InteractionGraph g = live.MaterializeStatic();
  EXPECT_EQ(g.nodes()[0].features.get(), probe.features.get());
  EXPECT_EQ(g.nodes()[2].features.get(), probe.features.get());
  EXPECT_NE(g.nodes()[1].features.get(), probe.features.get());
  EXPECT_EQ(probe.features.use_count(), 5);
}

// Under rule churn the memo stays within twice the live texts, and a text
// whose vector was dropped gets bit-equal features when it comes back.
TEST(LiveGraphTest, FeatureMemoStaysBoundedUnderRuleChurn) {
  const auto pool = Pool();
  GraphBuilder builder({}, &WordModel(), &SentenceModel());
  LiveGraph live = MakeLiveOn(builder);
  for (size_t i = 0; i < 8; ++i) live.AddRule(pool[i]);
  FloatVec before;
  std::weak_ptr<const FloatVec> dropped;
  {
    const InteractionGraph g0 = live.MaterializeStatic();
    before = *g0.nodes()[0].features;
    dropped = g0.nodes()[0].features;
  }
  ASSERT_TRUE(live.RemoveRule(pool[0].id));
  EXPECT_TRUE(dropped.expired());  // its entry held the only reference

  const rules::Rule base = pool[8];
  for (int c = 0; c < 1000; ++c) {
    rules::Rule fresh = base;
    fresh.id = 100000 + c;
    fresh.text = base.text + " churn" + std::to_string(c);
    live.AddRule(fresh);
    ASSERT_TRUE(live.RemoveRule(fresh.id));
  }
  EXPECT_EQ(live.num_rules(), 7);
  EXPECT_LE(builder.feature_memo_size(),
            2 * static_cast<size_t>(live.num_rules()));

  live.AddRule(pool[0]);
  const InteractionGraph g = live.MaterializeStatic();
  EXPECT_EQ(*g.nodes()[7].features, before);
  EXPECT_LE(builder.feature_memo_size(),
            2 * static_cast<size_t>(live.num_rules()));
}

std::vector<char> Serialized(const LiveGraph& g) {
  const LiveGraph::State state = g.SaveState();
  return util::EncodeAll(
      [&](util::LayoutWriter& io) { return LiveStateFields(io, state); });
}

// OnEvents(batch) is n OnEvent calls: over seeded homes and event streams
// with stale (older than the window), out-of-order and tied times, fed in
// batches of 1-64 events, the serialized state and the real-time edges
// match per-event ingestion at every batch boundary. Pruning before the
// inserts also keeps the retained events' allocation no larger than
// per-event ingestion leaves it.
TEST(LiveGraphTest, BatchedEventsMatchPerEventIngestion) {
  const auto pool = Pool();
  constexpr double kWindow = 3.0;
  constexpr size_t kEvents = 400;
  Rng rng(53);
  for (int home = 0; home < 300; ++home) {
    SCOPED_TRACE("home " + std::to_string(home));
    LiveGraph single = MakeLive(kWindow);
    LiveGraph batched = MakeLive(kWindow);
    LiveGraph batched64 = MakeLive(kWindow);
    const size_t n_rules = 2 + rng.Below(5);
    const size_t first = rng.Below(pool.size() - n_rules);
    for (size_t i = 0; i < n_rules; ++i) {
      single.AddRule(pool[first + i]);
      batched.AddRule(pool[first + i]);
      batched64.AddRule(pool[first + i]);
    }
    const auto rules = single.CurrentRules();
    std::vector<Event> events;
    double clock = rng.Uniform(0.0, 10.0);
    while (events.size() < kEvents) {
      const double r = rng.Uniform();
      double t = clock;  // r < 0.45: tied with the newest event
      if (r < 0.1) {
        t = clock - kWindow - rng.Uniform(0.0, 2.0);  // stale
      } else if (r < 0.3) {
        t = clock - rng.Uniform(0.0, 1.0);  // out of order
      } else if (r >= 0.45) {
        clock += rng.Uniform(0.0, 0.3);
        t = clock;
      }
      const auto& rule = rules[rng.Below(rules.size())];
      events.push_back(
          (rng.Chance(0.5) || rule.actions.empty())
              ? TriggerEvent(rule, t)
              : EffectEvent(rule, rng.Below(rule.actions.size()), t));
    }
    for (size_t i = 0; i < kEvents;) {
      const size_t n = std::min<size_t>(1 + rng.Below(64), kEvents - i);
      for (size_t k = i; k < i + n; ++k) single.OnEvent(events[k]);
      batched.OnEvents(&events[i], n);
      i += n;
      ASSERT_EQ(Serialized(batched), Serialized(single)) << "after " << i;
      const double now = single.latest_event_hours();
      const auto want = single.RealTimeEdges(now);
      const auto got = batched.RealTimeEdges(now);
      ASSERT_EQ(got.size(), want.size()) << "after " << i;
      for (size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(got[k].src, want[k].src) << "after " << i;
        ASSERT_EQ(got[k].dst, want[k].dst) << "after " << i;
      }
    }
    for (size_t i = 0; i < kEvents; i += 64) {
      batched64.OnEvents(&events[i], std::min<size_t>(64, kEvents - i));
    }
    ASSERT_EQ(Serialized(batched64), Serialized(single));
    EXPECT_LE(batched64.retained_events().capacity(),
              single.retained_events().capacity());
  }
}

}  // namespace
}  // namespace glint::graph
