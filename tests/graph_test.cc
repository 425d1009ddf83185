#include <gtest/gtest.h>

#include <cstdio>

#include "graph/builder.h"
#include "graph/dataset_store.h"
#include "graph/threat_analyzer.h"
#include "nlp/embedding.h"
#include "rules/corpus.h"
#include "rules/rule_io.h"
#include "util/binio.h"

namespace glint::graph {
namespace {

using rules::ActionSpec;
using rules::Channel;
using rules::Command;
using rules::Comparator;
using rules::ConditionSpec;
using rules::DeviceType;
using rules::Location;
using rules::Platform;
using rules::Rule;
using rules::TriggerSpec;

Rule QuickRule(int id, Platform p, TriggerSpec t,
               std::vector<ActionSpec> actions,
               Location loc = Location::kAny) {
  Rule r;
  r.id = id;
  r.platform = p;
  r.location = loc;
  r.trigger = t;
  r.actions = std::move(actions);
  r.text = "synthetic rule";
  return r;
}

TriggerSpec StateTrig(DeviceType d, const char* state) {
  TriggerSpec t;
  t.device = d;
  t.channel = rules::StateChannelOf(d);
  t.cmp = Comparator::kEquals;
  t.state = state;
  return t;
}

TriggerSpec NumTrig(Channel ch, Comparator cmp, double lo) {
  TriggerSpec t;
  t.channel = ch;
  t.device = ch == Channel::kTemperature ? DeviceType::kTemperatureSensor
                                         : DeviceType::kHumiditySensor;
  t.cmp = cmp;
  t.lo = lo;
  return t;
}

TriggerSpec TimeTrig(int hour) {
  TriggerSpec t;
  t.channel = Channel::kTime;
  t.cmp = Comparator::kEquals;
  t.has_time = true;
  t.hour_lo = hour;
  t.hour_hi = hour;
  return t;
}

InteractionGraph GraphOf(const std::vector<Rule>& rs) {
  InteractionGraph g;
  for (const auto& r : rs) {
    Node n;
    n.rule = r;
    n.type = NodeTypeOf(r.platform);
    n.features.assign(n.type == 1 ? 512 : 300, 0.1f);
    g.AddNode(std::move(n));
  }
  for (int i = 0; i < g.num_nodes(); ++i) {
    for (int j = 0; j < g.num_nodes(); ++j) {
      if (i != j && rules::RuleTriggersRule(rs[static_cast<size_t>(i)],
                                            rs[static_cast<size_t>(j)])) {
        g.AddEdge(i, j);
      }
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// InteractionGraph structure
// ---------------------------------------------------------------------------

TEST(InteractionGraphTest, EdgesAndNeighbors) {
  InteractionGraph g;
  for (int i = 0; i < 3; ++i) {
    Node n;
    n.features = {1.f};
    g.AddNode(n);
  }
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 1);  // duplicate ignored
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(InteractionGraphTest, HeterogeneityFromNodeTypes) {
  InteractionGraph g;
  Node text;
  text.type = 0;
  Node voice;
  voice.type = 1;
  g.AddNode(text);
  EXPECT_FALSE(g.IsHeterogeneous());
  g.AddNode(voice);
  EXPECT_TRUE(g.IsHeterogeneous());
}

TEST(InteractionGraphTest, NodeTypeByPlatform) {
  EXPECT_EQ(NodeTypeOf(Platform::kIFTTT), 0);
  EXPECT_EQ(NodeTypeOf(Platform::kSmartThings), 0);
  EXPECT_EQ(NodeTypeOf(Platform::kHomeAssistant), 0);
  EXPECT_EQ(NodeTypeOf(Platform::kAlexa), 1);
  EXPECT_EQ(NodeTypeOf(Platform::kGoogleAssistant), 1);
}

// ---------------------------------------------------------------------------
// ThreatAnalyzer — one focused test per threat type
// ---------------------------------------------------------------------------

TEST(ThreatAnalyzer, ActionConflictDetected) {
  // Settings 8/9: smoke unlock vs nightly lock.
  auto g = GraphOf({
      QuickRule(1, Platform::kSmartThings,
                StateTrig(DeviceType::kSmokeAlarm, "beeping"),
                {{DeviceType::kLock, Command::kUnlock, 0}}),
      QuickRule(2, Platform::kAlexa, TimeTrig(22),
                {{DeviceType::kLock, Command::kLock, 0}}),
  });
  auto findings = ThreatAnalyzer::DetectActionConflict(g);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, ThreatType::kActionConflict);
}

TEST(ThreatAnalyzer, DisjointNumericRangesDoNotConflict) {
  // Table 1 rules 2 & 3: open in [65,80], close below 60 — fine.
  TriggerSpec between;
  between.channel = Channel::kTemperature;
  between.device = DeviceType::kTemperatureSensor;
  between.cmp = Comparator::kBetween;
  between.lo = 65;
  between.hi = 80;
  auto g = GraphOf({
      QuickRule(1, Platform::kSmartThings, between,
                {{DeviceType::kWindow, Command::kOpen, 0}}),
      QuickRule(2, Platform::kSmartThings,
                NumTrig(Channel::kTemperature, Comparator::kBelow, 60),
                {{DeviceType::kWindow, Command::kClose, 0}}),
  });
  EXPECT_TRUE(ThreatAnalyzer::DetectActionConflict(g).empty());
}

TEST(ThreatAnalyzer, DisjointTimeWindowsDoNotConflict) {
  auto g = GraphOf({
      QuickRule(1, Platform::kIFTTT, TimeTrig(8),
                {{DeviceType::kBlind, Command::kOpen, 0}}),
      QuickRule(2, Platform::kIFTTT, TimeTrig(22),
                {{DeviceType::kBlind, Command::kClose, 0}}),
  });
  EXPECT_TRUE(ThreatAnalyzer::DetectActionConflict(g).empty());
}

TEST(ThreatAnalyzer, DifferentRoomsDoNotConflict) {
  auto g = GraphOf({
      QuickRule(1, Platform::kIFTTT,
                StateTrig(DeviceType::kMotionSensor, "active"),
                {{DeviceType::kLight, Command::kOn, 0}}, Location::kKitchen),
      QuickRule(2, Platform::kIFTTT, StateTrig(DeviceType::kTv, "playing"),
                {{DeviceType::kLight, Command::kOff, 0}}, Location::kBedroom),
  });
  EXPECT_TRUE(ThreatAnalyzer::DetectActionConflict(g).empty());
}

TEST(ThreatAnalyzer, ActionRevertDetected) {
  // Settings 6/7: AC on (temp>100) then humidity rule turns AC off.
  auto g = GraphOf({
      QuickRule(1, Platform::kAlexa,
                NumTrig(Channel::kTemperature, Comparator::kAbove, 100),
                {{DeviceType::kAc, Command::kOn, 0}}),
      QuickRule(2, Platform::kIFTTT,
                NumTrig(Channel::kHumidity, Comparator::kBelow, 30),
                {{DeviceType::kHumidifier, Command::kOn, 0},
                 {DeviceType::kAc, Command::kOff, 0}}),
  });
  auto findings = ThreatAnalyzer::DetectActionRevert(g);
  ASSERT_GE(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, ThreatType::kActionRevert);
}

TEST(ThreatAnalyzer, ActionLoopDetected) {
  // Settings 10/11: lights toggling each other.
  auto g = GraphOf({
      QuickRule(1, Platform::kIFTTT, StateTrig(DeviceType::kLight, "on"),
                {{DeviceType::kLight, Command::kOff, 0}}),
      QuickRule(2, Platform::kIFTTT, StateTrig(DeviceType::kLight, "off"),
                {{DeviceType::kLight, Command::kOn, 0}}),
  });
  auto findings = ThreatAnalyzer::DetectActionLoop(g);
  ASSERT_GE(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, ThreatType::kActionLoop);
  EXPECT_EQ(findings[0].nodes.size(), 2u);
}

TEST(ThreatAnalyzer, SlowEnvCycleIsNotLoop) {
  // Heater raises temp -> AC on (temp above) -> cools -> heater (temp
  // below): a slow oscillation, classified as revert territory, not loop.
  auto g = GraphOf({
      QuickRule(1, Platform::kIFTTT,
                NumTrig(Channel::kTemperature, Comparator::kBelow, 60),
                {{DeviceType::kHeater, Command::kOn, 0}}),
      QuickRule(2, Platform::kIFTTT,
                NumTrig(Channel::kTemperature, Comparator::kAbove, 80),
                {{DeviceType::kAc, Command::kOn, 0}}),
  });
  EXPECT_TRUE(ThreatAnalyzer::DetectActionLoop(g).empty());
}

TEST(ThreatAnalyzer, ConditionBypassDetected) {
  // Settings 1/2: fine-grained (time-gated) window rule bypassed by the
  // coarse rule.
  Rule fine = QuickRule(1, Platform::kSmartThings,
                        NumTrig(Channel::kTemperature, Comparator::kAbove, 70),
                        {{DeviceType::kWindow, Command::kOpen, 0}});
  ConditionSpec time_gate;
  time_gate.has_time = true;
  time_gate.hour_lo = 11;
  time_gate.hour_hi = 11;
  time_gate.channel = Channel::kTime;
  fine.conditions.push_back(time_gate);
  Rule coarse = QuickRule(
      2, Platform::kAlexa,
      NumTrig(Channel::kTemperature, Comparator::kAbove, 70),
      {{DeviceType::kWindow, Command::kOpen, 0}});
  auto g = GraphOf({fine, coarse});
  auto findings = ThreatAnalyzer::DetectConditionBypass(g);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, ThreatType::kConditionBypass);
}

TEST(ThreatAnalyzer, ConditionBlockDetected) {
  // Settings 3/4: disarm action kills the armed-state condition.
  Rule guarded = QuickRule(1, Platform::kIFTTT,
                           StateTrig(DeviceType::kMotionSensor, "active"),
                           {{DeviceType::kPhone, Command::kNotify, 0}});
  ConditionSpec armed;
  armed.channel = Channel::kSecurity;
  armed.device = DeviceType::kSecuritySystem;
  armed.cmp = Comparator::kEquals;
  armed.state = "armed";
  guarded.conditions.push_back(armed);
  Rule blocker = QuickRule(2, Platform::kIFTTT,
                           StateTrig(DeviceType::kLight, "on"),
                           {{DeviceType::kSecuritySystem, Command::kDisarm, 0}});
  auto g = GraphOf({guarded, blocker});
  auto findings = ThreatAnalyzer::DetectConditionBlock(g);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, ThreatType::kConditionBlock);
}

TEST(ThreatAnalyzer, GoalConflictDetected) {
  // Settings 12/13: heater on vs window open.
  auto g = GraphOf({
      QuickRule(1, Platform::kAlexa, TimeTrig(18),
                {{DeviceType::kHeater, Command::kOn, 0}}),
      QuickRule(2, Platform::kSmartThings,
                NumTrig(Channel::kTemperature, Comparator::kAbove, 80),
                {{DeviceType::kWindow, Command::kOpen, 0}}),
  });
  auto findings = ThreatAnalyzer::DetectGoalConflict(g);
  ASSERT_GE(findings.size(), 1u);
  EXPECT_EQ(findings[0].type, ThreatType::kGoalConflict);
}

TEST(ThreatAnalyzer, ReleasingCommandsAreNotGoalConflict) {
  // "heater off" vs "window open" both lower temperature-ish; turning a
  // device OFF is not an asserted goal.
  auto g = GraphOf({
      QuickRule(1, Platform::kAlexa, TimeTrig(18),
                {{DeviceType::kHeater, Command::kOff, 0}}),
      QuickRule(2, Platform::kAlexa, TimeTrig(19),
                {{DeviceType::kAc, Command::kOff, 0}}),
  });
  EXPECT_TRUE(ThreatAnalyzer::DetectGoalConflict(g).empty());
}

TEST(ThreatAnalyzer, NewTypesDetectedOnBlueprints) {
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  GraphBuilder builder({}, &wm, &sm);
  auto groups = rules::CorpusGenerator::NewThreatBlueprints();
  ASSERT_EQ(groups.size(), 4u);
  const ThreatType expected[] = {
      ThreatType::kActionBlock, ThreatType::kActionAblation,
      ThreatType::kTriggerIntake, ThreatType::kConditionDuplicate};
  for (size_t i = 0; i < groups.size(); ++i) {
    auto g = builder.BuildFromRules(groups[i]);
    auto findings = ThreatAnalyzer::DetectNewTypes(g);
    ASSERT_FALSE(findings.empty()) << "group " << i;
    bool found = false;
    for (const auto& f : findings) found |= f.type == expected[i];
    EXPECT_TRUE(found) << "group " << i;
  }
}

TEST(ThreatAnalyzer, LabelAggregatesTypesAndCulprits) {
  auto rules4 = rules::CorpusGenerator::Table4Settings();
  auto g = GraphOf(rules4);
  ThreatAnalyzer::Label(&g);
  EXPECT_TRUE(g.vulnerable());
  EXPECT_GE(g.threat_types().size(), 4u);
  EXPECT_FALSE(g.culprit_nodes().empty());
}

TEST(ThreatAnalyzer, BenignPairIsNormal) {
  auto g = GraphOf({
      QuickRule(1, Platform::kIFTTT,
                StateTrig(DeviceType::kMotionSensor, "active"),
                {{DeviceType::kLight, Command::kOn, 0}}),
      QuickRule(2, Platform::kIFTTT,
                StateTrig(DeviceType::kPresenceSensor, "away"),
                {{DeviceType::kLock, Command::kLock, 0}}),
  });
  ThreatAnalyzer::Label(&g);
  EXPECT_FALSE(g.vulnerable());
  EXPECT_TRUE(g.threat_types().empty());
}

// ---------------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------------

TEST(EventLogTest, KeepsChronologicalOrder) {
  EventLog log;
  Event a;
  a.time_hours = 2;
  Event b;
  b.time_hours = 1;
  log.Append(a);
  log.Append(b);  // out of order, gets inserted before
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log.events()[0].time_hours, 1.0);
}

TEST(EventLogTest, WindowFilters) {
  EventLog log;
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.time_hours = i;
    log.Append(e);
  }
  auto w = log.Window(9, 3);
  EXPECT_EQ(w.size(), 4u);  // hours 6..9
}

TEST(EventLogTest, StateAtTracksLatest) {
  EventLog log;
  Event e1;
  e1.time_hours = 1;
  e1.device = DeviceType::kDoor;
  e1.state = "open";
  Event e2;
  e2.time_hours = 2;
  e2.device = DeviceType::kDoor;
  e2.state = "closed";
  log.Append(e1);
  log.Append(e2);
  EXPECT_EQ(log.StateAt(DeviceType::kDoor, Location::kAny, 1.5), "open");
  EXPECT_EQ(log.StateAt(DeviceType::kDoor, Location::kAny, 3.0), "closed");
  EXPECT_EQ(log.StateAt(DeviceType::kWindow, Location::kAny, 3.0), "");
}

TEST(EventLogTest, EventFiresTriggerMatching) {
  Rule r = QuickRule(1, Platform::kIFTTT,
                     StateTrig(DeviceType::kMotionSensor, "active"),
                     {{DeviceType::kLight, Command::kOn, 0}});
  Event match;
  match.device = DeviceType::kMotionSensor;
  match.state = "active";
  EXPECT_TRUE(EventFiresTrigger(match, r));
  Event wrong_state = match;
  wrong_state.state = "inactive";
  EXPECT_FALSE(EventFiresTrigger(wrong_state, r));
}

TEST(EventLogTest, TimeTriggerFiresInWindow) {
  Rule r = QuickRule(1, Platform::kIFTTT, TimeTrig(21),
                     {{DeviceType::kVacuum, Command::kStartClean, 0}});
  Event e;
  e.time_hours = 21.5;
  e.device = DeviceType::kButton;
  EXPECT_TRUE(EventFiresTrigger(e, r));
  e.time_hours = 10.0;
  EXPECT_FALSE(EventFiresTrigger(e, r));
}

TEST(EventLogTest, RenderProducesTimestampedLines) {
  EventLog log;
  Event e;
  e.time_hours = 20.14;
  e.device = DeviceType::kDoor;
  e.state = "locked";
  e.platform = Platform::kAlexa;
  log.Append(e);
  auto lines = log.Render();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("door is locked (Alexa)"), std::string::npos);
  EXPECT_NE(lines[0].find("20:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// GraphBuilder
// ---------------------------------------------------------------------------

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest() : wm_(300, 17), sm_(512, 18) {}
  nlp::EmbeddingModel wm_, sm_;
};

TEST_F(BuilderTest, SizeWithinBounds) {
  rules::CorpusConfig cc;
  cc.ifttt = 300;
  cc.smartthings = 0;
  cc.alexa = 0;
  cc.google_assistant = 0;
  cc.home_assistant = 0;
  auto corpus = rules::CorpusGenerator(cc).Generate();
  GraphBuilder::Config bc;
  bc.min_nodes = 2;
  bc.max_nodes = 20;
  GraphBuilder builder(bc, &wm_, &sm_);
  auto ds = builder.BuildDataset(corpus, 50);
  for (const auto& g : ds.graphs) {
    EXPECT_GE(g.num_nodes(), 2);
    EXPECT_LE(g.num_nodes(), 20);
  }
}

TEST_F(BuilderTest, EdgesMatchOracleWhenDeviceEdgesOff) {
  auto table1 = rules::CorpusGenerator::Table1Rules();
  GraphBuilder::Config bc;
  bc.device_edges = false;
  GraphBuilder builder(bc, &wm_, &sm_);
  auto g = builder.BuildFromRules(table1);
  for (const auto& e : g.edges()) {
    EXPECT_TRUE(rules::RuleTriggersRule(table1[static_cast<size_t>(e.src)],
                                        table1[static_cast<size_t>(e.dst)]));
  }
  // And Table 1 is vulnerable (the paper's running example threat).
  EXPECT_TRUE(g.vulnerable());
}

TEST_F(BuilderTest, DeviceEdgesLinkWindowRules) {
  // Fig. 1 shows rules 5 and 6 connected via the window device even though
  // neither triggers the other.
  auto table1 = rules::CorpusGenerator::Table1Rules();
  GraphBuilder builder({}, &wm_, &sm_);
  auto g = builder.BuildFromRules(table1);
  EXPECT_TRUE(g.HasEdge(4, 5));  // rule 5 <-> rule 6 (0-indexed 4, 5)
  EXPECT_TRUE(g.HasEdge(5, 4));
  EXPECT_FALSE(rules::RuleTriggersRule(table1[4], table1[5]));
}

TEST_F(BuilderTest, NodeFeatureDimsByPlatform) {
  auto table1 = rules::CorpusGenerator::Table1Rules();
  GraphBuilder builder({}, &wm_, &sm_);
  auto g = builder.BuildFromRules(table1);
  for (const auto& node : g.nodes()) {
    if (node.type == 1) {
      EXPECT_EQ(node.features.size(), 512u);
    } else {
      EXPECT_EQ(node.features.size(), 300u);
    }
  }
  EXPECT_TRUE(g.IsHeterogeneous());  // Alexa rule 9 is a voice node
}

TEST_F(BuilderTest, CustomEdgePredicateRespected) {
  auto table1 = rules::CorpusGenerator::Table1Rules();
  GraphBuilder::Config bc;
  bc.device_edges = false;
  GraphBuilder builder(bc, &wm_, &sm_);
  builder.set_edge_predicate(
      [](const Rule&, const Rule&) { return false; });
  auto g = builder.BuildFromRules(table1);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST_F(BuilderTest, RealTimePruningDropsUnobservedEdges) {
  // Rule A (motion -> light on) and rule B (light on -> lock door). With an
  // event trace where the light never turned on, edge A->B must be pruned.
  std::vector<Rule> deployed = {
      QuickRule(1, Platform::kIFTTT,
                StateTrig(DeviceType::kMotionSensor, "active"),
                {{DeviceType::kLight, Command::kOn, 0}}),
      QuickRule(2, Platform::kAlexa, StateTrig(DeviceType::kLight, "on"),
                {{DeviceType::kLock, Command::kLock, 0}}),
  };
  GraphBuilder builder({}, &wm_, &sm_);
  // Static graph has the chain.
  auto full = builder.BuildFromRules(deployed);
  EXPECT_TRUE(full.HasEdge(0, 1));

  EventLog quiet;  // nothing happened
  auto rt_quiet = builder.BuildRealTime(deployed, quiet, 10.0);
  EXPECT_EQ(rt_quiet.num_edges(), 0);

  // Now the light actually turned on and the lock fired after it.
  EventLog active;
  Event light_on;
  light_on.time_hours = 9.0;
  light_on.device = DeviceType::kLight;
  light_on.state = "on";
  active.Append(light_on);
  auto rt_active = builder.BuildRealTime(deployed, active, 10.0);
  EXPECT_TRUE(rt_active.HasEdge(0, 1));
}

TEST_F(BuilderTest, RealTimeWindowRespectsTimestamps) {
  std::vector<Rule> deployed = {
      QuickRule(1, Platform::kIFTTT,
                StateTrig(DeviceType::kMotionSensor, "active"),
                {{DeviceType::kLight, Command::kOn, 0}}),
      QuickRule(2, Platform::kAlexa, StateTrig(DeviceType::kLight, "on"),
                {{DeviceType::kLock, Command::kLock, 0}}),
  };
  GraphBuilder builder({}, &wm_, &sm_);
  EventLog stale;
  Event light_on;
  light_on.time_hours = 1.0;  // far outside the 3h window ending at 10
  light_on.device = DeviceType::kLight;
  light_on.state = "on";
  stale.Append(light_on);
  auto rt = builder.BuildRealTime(deployed, stale, 10.0, 3.0);
  EXPECT_EQ(rt.num_edges(), 0);
}

// ---------------------------------------------------------------------------
// DatasetStore
// ---------------------------------------------------------------------------

TEST_F(BuilderTest, DatasetStoreRoundTrip) {
  rules::CorpusConfig cc;
  cc.ifttt = 200;
  cc.smartthings = 20;
  cc.alexa = 30;
  cc.google_assistant = 0;
  cc.home_assistant = 0;
  auto corpus = rules::CorpusGenerator(cc).Generate();
  GraphBuilder builder({}, &wm_, &sm_);
  auto ds = builder.BuildDataset(corpus, 20);

  const std::string path = "/tmp/glint_store_test.bin";
  ASSERT_TRUE(DatasetStore::Save(ds, path).ok());
  auto loaded = DatasetStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& ds2 = loaded.value();
  ASSERT_EQ(ds2.size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    const auto& a = ds.graphs[i];
    const auto& b = ds2.graphs[i];
    EXPECT_EQ(a.num_nodes(), b.num_nodes());
    EXPECT_EQ(a.num_edges(), b.num_edges());
    EXPECT_EQ(a.vulnerable(), b.vulnerable());
    EXPECT_EQ(a.threat_types().size(), b.threat_types().size());
    for (int v = 0; v < a.num_nodes(); ++v) {
      EXPECT_EQ(a.nodes()[static_cast<size_t>(v)].rule.text,
                b.nodes()[static_cast<size_t>(v)].rule.text);
      EXPECT_EQ(a.nodes()[static_cast<size_t>(v)].features,
                b.nodes()[static_cast<size_t>(v)].features);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetStoreTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/glint_store_garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a dataset", f);
  fclose(f);
  auto r = DatasetStore::Load(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

// Counts are bounded by the bytes left before anything is allocated for
// them: a 12-byte file claiming 2^32-1 graphs, and a one-graph file whose
// node claims 2^32-1 features, are InvalidArgument, not std::bad_alloc.
TEST(DatasetStoreTest, LoadRefusesCountsTheFileCannotHold) {
  const std::string path = "/tmp/glint_store_counts.bin";
  auto load = [&](const util::ByteWriter& w) {
    FILE* f = fopen(path.c_str(), "wb");
    fwrite(w.buffer().data(), 1, w.buffer().size(), f);
    fclose(f);
    return DatasetStore::Load(path);
  };
  util::ByteWriter graphs;
  graphs.U32(0x474c4e54);  // "GLNT"
  graphs.U32(2);
  graphs.U32(0xFFFFFFFFu);
  ASSERT_EQ(graphs.buffer().size(), 12u);
  auto r = load(graphs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  util::ByteWriter features;
  features.U32(0x474c4e54);
  features.U32(2);
  features.U32(1);  // one graph
  features.U32(1);  // one node
  rules::WriteRule(&features, rules::Rule{});
  features.I32(0);            // node type
  features.U32(0xFFFFFFFFu);  // feature count
  r = load(features);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DatasetStoreTest, LoadMissingFileFails) {
  auto r = DatasetStore::Load("/tmp/definitely_missing_glint.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(BuilderTest, SerializedBytesMatchesFileSize) {
  rules::CorpusConfig cc;
  cc.ifttt = 50;
  auto corpus = rules::CorpusGenerator(cc).Generate();
  GraphBuilder builder({}, &wm_, &sm_);
  auto ds = builder.BuildDataset(corpus, 5);
  const std::string path = "/tmp/glint_store_size.bin";
  ASSERT_TRUE(DatasetStore::Save(ds, path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  const long size = ftell(f);
  fclose(f);
  EXPECT_EQ(static_cast<size_t>(size), DatasetStore::SerializedBytes(ds));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace glint::graph
