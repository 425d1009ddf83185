// Cross-module property tests: randomized invariants that must hold for
// any corpus/graph/seed, plus failure-injection checks on the stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "graph/builder.h"
#include "graph/dataset_store.h"
#include "graph/threat_analyzer.h"
#include "nlp/tokenizer.h"
#include "rules/corpus.h"
#include "util/string_utils.h"

namespace glint {
namespace {

std::vector<rules::Rule> SmallCorpus(uint64_t seed) {
  rules::CorpusConfig cc;
  cc.ifttt = 150;
  cc.smartthings = 30;
  cc.alexa = 40;
  cc.google_assistant = 20;
  cc.home_assistant = 30;
  cc.seed = seed;
  return rules::CorpusGenerator(cc).Generate();
}

// ---------------------------------------------------------------------------
// Rule semantics invariants, swept over seeds
// ---------------------------------------------------------------------------

class SemanticsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemanticsSweep, InstantTriggerImpliesTrigger) {
  auto corpus = SmallCorpus(GetParam());
  Rng rng(GetParam() ^ 0x1111);
  for (int k = 0; k < 2000; ++k) {
    const auto& a = corpus[rng.Below(corpus.size())];
    const auto& b = corpus[rng.Below(corpus.size())];
    if (rules::RuleTriggersRuleInstant(a, b)) {
      EXPECT_TRUE(rules::RuleTriggersRule(a, b));
    }
  }
}

TEST_P(SemanticsSweep, OpposingCommandsNeverAssertSameState) {
  using rules::Command;
  const Command all[] = {Command::kOn,     Command::kOff,   Command::kOpen,
                         Command::kClose,  Command::kLock,  Command::kUnlock,
                         Command::kDim,    Command::kBrighten,
                         Command::kPlay,   Command::kStopPlay,
                         Command::kArm,    Command::kDisarm};
  for (Command a : all) {
    for (Command b : all) {
      if (!rules::CommandsOppose(a, b)) continue;
      const std::string sa = rules::CommandResultState(a);
      EXPECT_NE(sa, rules::CommandResultState(b));
      // The opposing command negates the state the other asserts.
      EXPECT_TRUE(rules::CommandNegatesState(b, sa));
    }
  }
  (void)GetParam();
}

TEST_P(SemanticsSweep, EffectsDirectionsAreSigned) {
  auto corpus = SmallCorpus(GetParam());
  for (const auto& r : corpus) {
    for (const auto& a : r.actions) {
      for (const auto& e : rules::EffectsOf(a.device, a.command)) {
        EXPECT_NE(e.direction, 0);
        EXPECT_NE(e.channel, rules::Channel::kNone);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticsSweep,
                         ::testing::Values(1u, 7u, 99u, 4242u));

// ---------------------------------------------------------------------------
// Analyzer invariants
// ---------------------------------------------------------------------------

class AnalyzerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalyzerSweep, LabelIsDeterministic) {
  auto corpus = SmallCorpus(GetParam());
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder::Config bc;
  bc.seed = GetParam();
  bc.max_nodes = 12;
  graph::GraphBuilder b1(bc, &wm, &sm), b2(bc, &wm, &sm);
  auto d1 = b1.BuildDataset(corpus, 40);
  auto d2 = b2.BuildDataset(corpus, 40);
  ASSERT_EQ(d1.size(), d2.size());
  for (size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1.graphs[i].vulnerable(), d2.graphs[i].vulnerable());
    EXPECT_EQ(d1.graphs[i].num_edges(), d2.graphs[i].num_edges());
  }
}

TEST_P(AnalyzerSweep, LabelInvariantUnderNodePermutation) {
  auto corpus = SmallCorpus(GetParam());
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder::Config bc;
  bc.seed = GetParam() ^ 0xabc;
  bc.max_nodes = 8;
  graph::GraphBuilder builder(bc, &wm, &sm);
  Rng rng(GetParam());
  for (const auto& g : builder.BuildDataset(corpus, 10).graphs) {
    // Rebuild with nodes reversed.
    std::vector<rules::Rule> reversed;
    for (int i = g.num_nodes() - 1; i >= 0; --i) {
      reversed.push_back(g.nodes()[static_cast<size_t>(i)].rule);
    }
    auto g2 = builder.BuildFromRules(reversed);
    EXPECT_EQ(g.vulnerable(), g2.vulnerable());
    auto t1 = g.threat_types();
    auto t2 = g2.threat_types();
    std::sort(t1.begin(), t1.end());
    std::sort(t2.begin(), t2.end());
    EXPECT_EQ(t1, t2);
  }
}

TEST_P(AnalyzerSweep, FindingNodesInRange) {
  auto corpus = SmallCorpus(GetParam());
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder::Config bc;
  bc.seed = GetParam() ^ 0xdef;
  graph::GraphBuilder builder(bc, &wm, &sm);
  for (const auto& g : builder.BuildDataset(corpus, 15).graphs) {
    for (const auto& f : graph::ThreatAnalyzer::DetectClassic(g)) {
      EXPECT_NE(f.type, graph::ThreatType::kNone);
      EXPECT_FALSE(f.nodes.empty());
      for (int n : f.nodes) {
        EXPECT_GE(n, 0);
        EXPECT_LT(n, g.num_nodes());
      }
    }
    // Culprits are sorted & unique.
    const auto& c = g.culprit_nodes();
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    EXPECT_EQ(std::adjacent_find(c.begin(), c.end()), c.end());
  }
}

TEST_P(AnalyzerSweep, SingletonGraphsAreNeverVulnerable) {
  // A single rule cannot interact with anything.
  auto corpus = SmallCorpus(GetParam());
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder builder({}, &wm, &sm);
  Rng rng(GetParam());
  for (int k = 0; k < 30; ++k) {
    auto g = builder.BuildFromRules({rng.Pick(corpus)});
    EXPECT_FALSE(g.vulnerable());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerSweep,
                         ::testing::Values(3u, 11u, 2026u));

// ---------------------------------------------------------------------------
// Store fuzzing: truncated files must fail cleanly, never crash
// ---------------------------------------------------------------------------

TEST(StoreFailureInjection, TruncationsFailGracefully) {
  auto corpus = SmallCorpus(5);
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder builder({}, &wm, &sm);
  auto ds = builder.BuildDataset(corpus, 6);
  const std::string path = "/tmp/glint_fuzz_store.bin";
  ASSERT_TRUE(graph::DatasetStore::Save(ds, path).ok());

  FILE* f = fopen(path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  const long size = ftell(f);
  fseek(f, 0, SEEK_SET);
  std::vector<char> full(static_cast<size_t>(size));
  ASSERT_EQ(fread(full.data(), 1, full.size(), f), full.size());
  fclose(f);

  // Truncate at a spread of prefixes; every load must return an error.
  for (double frac : {0.01, 0.1, 0.33, 0.66, 0.9, 0.999}) {
    const std::string tpath = "/tmp/glint_fuzz_trunc.bin";
    FILE* tf = fopen(tpath.c_str(), "wb");
    fwrite(full.data(), 1, static_cast<size_t>(frac * size), tf);
    fclose(tf);
    auto r = graph::DatasetStore::Load(tpath);
    EXPECT_FALSE(r.ok()) << "fraction " << frac;
    std::remove(tpath.c_str());
  }
  std::remove(path.c_str());
}

TEST(StoreFailureInjection, BitFlippedHeaderRejected) {
  auto corpus = SmallCorpus(6);
  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder builder({}, &wm, &sm);
  auto ds = builder.BuildDataset(corpus, 2);
  const std::string path = "/tmp/glint_fuzz_hdr.bin";
  ASSERT_TRUE(graph::DatasetStore::Save(ds, path).ok());
  FILE* f = fopen(path.c_str(), "r+b");
  fputc('Z', f);  // corrupt the magic
  fclose(f);
  EXPECT_FALSE(graph::DatasetStore::Load(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// NLP invariants
// ---------------------------------------------------------------------------

TEST(NlpProperties, TokenizerIdempotent) {
  auto corpus = SmallCorpus(9);
  for (size_t i = 0; i < 40; ++i) {
    const auto words = nlp::Tokenizer::Words(corpus[i].text);
    const auto again = nlp::Tokenizer::Words(Join(words, " "));
    EXPECT_EQ(words, again) << corpus[i].text;
  }
}

TEST(NlpProperties, AverageEmbeddingPermutationInvariant) {
  nlp::EmbeddingModel m(300, 17);
  std::vector<std::string> words{"open", "window", "smoke", "detected"};
  auto a = m.Average(words);
  std::reverse(words.begin(), words.end());
  auto b = m.Average(words);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-6f);  // float summation order tolerance
  }
}


// ---------------------------------------------------------------------------
// Event-driven cascade safety
// ---------------------------------------------------------------------------

TEST(CascadeSafety, SelfTriggeringRuleTerminates) {
  // A rule whose action re-fires its own trigger must be cut off by the
  // cascade depth limit rather than recursing forever.
  rules::Rule loop;
  loop.id = 1;
  loop.trigger.device = rules::DeviceType::kLight;
  loop.trigger.channel = rules::Channel::kIlluminance;
  loop.trigger.cmp = rules::Comparator::kEquals;
  loop.trigger.state = "on";
  loop.actions.push_back({rules::DeviceType::kLight, rules::Command::kOn, 0});
  loop.text = "If the light is on, turn on the light.";

  nlp::EmbeddingModel wm(300, 17), sm(512, 18);
  graph::GraphBuilder builder({}, &wm, &sm);
  auto g = builder.BuildFromRules({loop});
  // Single-node self-loop is suppressed by the builder (i != j edges only);
  // analyzer sees no pairwise loop.
  EXPECT_EQ(g.num_edges(), 0);
}

}  // namespace
}  // namespace glint
