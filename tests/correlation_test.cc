#include <gtest/gtest.h>

#include "correlation/discovery.h"
#include "ml/metrics.h"
#include "obs/obs.h"
#include "rules/corpus.h"

namespace glint::correlation {
namespace {

class CorrelationTest : public ::testing::Test {
 protected:
  CorrelationTest() : model_(300, 17), extractor_(&model_) {
    rules::CorpusConfig cc;
    cc.ifttt = 400;
    cc.smartthings = 50;
    cc.alexa = 50;
    cc.google_assistant = 0;
    cc.home_assistant = 50;
    corpus_ = rules::CorpusGenerator(cc).Generate();
  }
  nlp::EmbeddingModel model_;
  FeatureExtractor extractor_;
  std::vector<rules::Rule> corpus_;
};

TEST_F(CorrelationTest, FeatureDimensionFixed) {
  const FloatVec f = extractor_.ExtractPair(corpus_[0], corpus_[1]);
  EXPECT_EQ(f.size(), extractor_.Dim());
  EXPECT_EQ(f.size(), 307u);  // 7 scalar features + 300-d V4
}

TEST_F(CorrelationTest, BinaryFeaturesAreBinary) {
  for (int i = 0; i < 20; ++i) {
    const FloatVec f = extractor_.ExtractPair(corpus_[static_cast<size_t>(i)],
                                              corpus_[static_cast<size_t>(i + 1)]);
    for (size_t k = 2; k <= 6; ++k) {
      EXPECT_TRUE(f[k] == 0.f || f[k] == 1.f);
    }
  }
}

TEST_F(CorrelationTest, DtwFeaturesNonNegative) {
  for (int i = 0; i < 20; ++i) {
    const FloatVec f = extractor_.ExtractPair(corpus_[static_cast<size_t>(i)],
                                              corpus_[static_cast<size_t>(i + 40)]);
    EXPECT_GE(f[0], 0.f);
    EXPECT_GE(f[1], 0.f);
  }
}

TEST_F(CorrelationTest, SharedChannelFeatureFires) {
  // "turn on the heater" action vs "temperature above" trigger: the shared
  // temperature channel indicator (feature index 6) should be 1.
  auto table1 = rules::CorpusGenerator::Table1Rules();
  // Rule 4: AC on when temp > 85; Rule 5: AC on -> close windows.
  const FloatVec f = extractor_.ExtractPair(table1[3], table1[4]);
  EXPECT_EQ(f[6], 1.f);
}

TEST_F(CorrelationTest, PairDatasetBalancedAsConfigured) {
  PairDatasetConfig cfg;
  cfg.num_positive = 60;
  cfg.num_negative = 90;
  ml::Dataset ds = BuildPairDataset(corpus_, extractor_, cfg);
  int pos = 0;
  for (int y : ds.y) pos += y;
  EXPECT_EQ(pos, 60);
  EXPECT_EQ(ds.size(), 150u);
}

TEST_F(CorrelationTest, PairDatasetDeterministic) {
  PairDatasetConfig cfg;
  cfg.num_positive = 20;
  cfg.num_negative = 20;
  ml::Dataset a = BuildPairDataset(corpus_, extractor_, cfg);
  ml::Dataset b = BuildPairDataset(corpus_, extractor_, cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.x[0], b.x[0]);
}

TEST_F(CorrelationTest, EnsembleLearnsCorrelations) {
  PairDatasetConfig cfg;
  cfg.num_positive = 250;
  cfg.num_negative = 350;
  ml::Dataset train = BuildPairDataset(corpus_, extractor_, cfg);

  CorrelationDiscovery discovery(&model_);
  discovery.Train(train);
  EXPECT_TRUE(discovery.trained());

  // Fresh evaluation pairs.
  PairDatasetConfig eval_cfg;
  eval_cfg.num_positive = 60;
  eval_cfg.num_negative = 60;
  eval_cfg.seed = 991;
  Rng rng(eval_cfg.seed);
  int correct = 0, total = 0;
  int pos_needed = eval_cfg.num_positive, neg_needed = eval_cfg.num_negative;
  int guard = 0;
  while ((pos_needed > 0 || neg_needed > 0) && guard++ < 2000000) {
    const auto& a = corpus_[rng.Below(corpus_.size())];
    const auto& b = corpus_[rng.Below(corpus_.size())];
    if (a.id == b.id) continue;
    const bool truth = rules::RuleTriggersRule(a, b);
    if (truth && pos_needed > 0) {
      --pos_needed;
    } else if (!truth && neg_needed > 0) {
      --neg_needed;
    } else {
      continue;
    }
    correct += discovery.Correlated(a, b) == truth ? 1 : 0;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.85);
}

TEST_F(CorrelationTest, VoteShareQuantized) {
  PairDatasetConfig cfg;
  cfg.num_positive = 80;
  cfg.num_negative = 120;
  CorrelationDiscovery discovery(&model_);
  discovery.Train(BuildPairDataset(corpus_, extractor_, cfg));
  for (int i = 0; i < 10; ++i) {
    const double v = discovery.VoteShare(corpus_[static_cast<size_t>(i)],
                                         corpus_[static_cast<size_t>(i + 7)]);
    const double scaled = v * 3;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
  }
}

TEST_F(CorrelationTest, KnownPositivePairClassified) {
  PairDatasetConfig cfg;
  cfg.num_positive = 250;
  cfg.num_negative = 350;
  CorrelationDiscovery discovery(&model_);
  discovery.Train(BuildPairDataset(corpus_, extractor_, cfg));
  // Table 1, rule 4 -> rule 5 ("AC on" triggers "if AC is on, close
  // windows") is a textbook positive.
  auto table1 = rules::CorpusGenerator::Table1Rules();
  EXPECT_TRUE(discovery.Correlated(table1[3], table1[4]));
}

TEST_F(CorrelationTest, ShortCircuitVerdictMatchesFullVoteOnPairGrid) {
  PairDatasetConfig cfg;
  cfg.num_positive = 250;
  cfg.num_negative = 350;
  CorrelationDiscovery discovery(&model_);
  discovery.Train(BuildPairDataset(corpus_, extractor_, cfg));

  // 60 corpus rules spread over every platform block, all ordered pairs,
  // plus every ordered pair of the Table 1 rules.
  std::vector<std::pair<const rules::Rule*, const rules::Rule*>> grid;
  std::vector<const rules::Rule*> picks;
  for (size_t i = 0; i < 60; ++i) picks.push_back(&corpus_[i * 9]);
  for (const auto* a : picks) {
    for (const auto* b : picks) grid.emplace_back(a, b);
  }
  const auto table1 = rules::CorpusGenerator::Table1Rules();
  for (const auto& a : table1) {
    for (const auto& b : table1) grid.emplace_back(&a, &b);
  }

  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* tiebreaks =
      obs::Registry::Global().GetCounter("glint.correlation.tiebreaks");
  const uint64_t before = tiebreaks->Value();
  std::vector<bool> expected;
  for (const auto& [a, b] : grid) {
    const bool full_vote = discovery.VoteShare(*a, *b) >= 0.5;
    expected.push_back(full_vote);
    EXPECT_EQ(discovery.Correlated(*a, *b), full_vote)
        << "uncached: " << a->text << " -> " << b->text;
  }
  const uint64_t ties = tiebreaks->Value() - before;
  obs::SetEnabled(obs_was_enabled);

  CorrelationCache cache;
  for (size_t k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(discovery.Correlated(*grid[k].first, *grid[k].second, &cache),
              expected[k])
        << "cold cache: " << grid[k].first->text << " -> "
        << grid[k].second->text;
  }
  const size_t cold_hits = cache.hits();
  for (size_t k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(discovery.Correlated(*grid[k].first, *grid[k].second, &cache),
              expected[k])
        << "warm cache: " << grid[k].first->text << " -> "
        << grid[k].second->text;
  }
  EXPECT_EQ(cache.hits() - cold_hits, grid.size());

  // The grid exercises both branches: some pairs needed KNN to break an
  // MLP/forest tie, and some were settled by their agreement alone.
  EXPECT_GT(ties, 0u);
  EXPECT_LT(ties, grid.size());
}

}  // namespace
}  // namespace glint::correlation
