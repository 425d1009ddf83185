#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "correlation/discovery.h"
#include "graph/builder.h"
#include "graph/live_graph.h"
#include "ml/metrics.h"
#include "obs/obs.h"
#include "rules/corpus.h"
#include "util/binio.h"

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

  /// Trains `d` on the fixture's standard 250 + 350 pair dataset.
  void TrainStandard(CorrelationDiscovery* d) const {
    PairDatasetConfig cfg;
    cfg.num_positive = 250;
    cfg.num_negative = 350;
    d->Train(BuildPairDataset(corpus_, extractor_, cfg));
  }

  /// A home to score by rows: the Table 1 rules, corpus rules from every
  /// platform block, and a content twin of Table 1 rule 4 under a new id
  /// (the same text twice in one row). Ids are unique.
  std::vector<rules::Rule> RowHome() const {
    std::vector<rules::Rule> home = rules::CorpusGenerator::Table1Rules();
    for (size_t i = 0; i < 12; ++i) home.push_back(corpus_[i * 45]);
    rules::Rule twin = home[3];
    home.push_back(twin);
    for (size_t i = 0; i < home.size(); ++i) {
      home[i].id = 5000 + static_cast<int>(i);
    }
    return home;
  }
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

TEST_F(CorrelationTest, RowMatchesPairsInBothDirections) {
  CorrelationDiscovery discovery(&model_);
  TrainStandard(&discovery);
  const auto home = RowHome();
  size_t asymmetric = 0, positive = 0;
  for (const bool cached : {false, true}) {
    CorrelationCache cache;
    for (size_t k = 0; k < home.size(); ++k) {
      std::vector<const rules::Rule*> others;
      for (size_t i = 0; i < home.size(); ++i) {
        if (i != k) others.push_back(&home[i]);
      }
      std::vector<char> from, to;
      discovery.CorrelateRow(home[k], others, &from, &to,
                             cached ? &cache : nullptr);
      ASSERT_EQ(from.size(), others.size());
      ASSERT_EQ(to.size(), others.size());
      for (size_t i = 0; i < others.size(); ++i) {
        const bool f = discovery.Correlated(*others[i], home[k]);
        const bool t = discovery.Correlated(home[k], *others[i]);
        EXPECT_EQ(from[i] != 0, f) << "cached " << cached << ": "
                                   << others[i]->text << " -> "
                                   << home[k].text;
        EXPECT_EQ(to[i] != 0, t) << "cached " << cached << ": "
                                 << home[k].text << " -> "
                                 << others[i]->text;
        asymmetric += f != t ? 1 : 0;
        positive += t ? 1 : 0;
      }
    }
  }
  // Directions are told apart: some pairs correlate one way only.
  EXPECT_GT(asymmetric, 0u);
  EXPECT_GT(positive, 0u);

  // An empty row clears both outputs and scores nothing.
  std::vector<char> from = {1}, to = {1};
  CorrelationCache cache;
  discovery.CorrelateRow(home[0], {}, &from, &to, &cache);
  EXPECT_TRUE(from.empty());
  EXPECT_TRUE(to.empty());
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST_F(CorrelationTest, RowKeepsPairCacheTrafficAndParsesEachRuleOnce) {
  CorrelationDiscovery discovery(&model_);
  TrainStandard(&discovery);
  const auto home = RowHome();
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* terms =
      obs::Registry::Global().GetCounter("glint.correlation.rule_terms");

  // Rules join one at a time, as LiveGraph::AddRule scores them: row k is
  // rule k against rules 0..k-1. The row cache and the pair cache see the
  // same probes in the same order, so their hits and misses agree.
  CorrelationCache row_cache, pair_cache;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < home.size(); ++k) {
      std::vector<const rules::Rule*> others;
      for (size_t i = 0; i < k; ++i) others.push_back(&home[i]);
      const size_t rh = row_cache.hits(), rm = row_cache.misses();
      const uint64_t t0 = terms->Value();
      std::vector<char> from, to;
      discovery.CorrelateRow(home[k], others, &from, &to, &row_cache);
      const uint64_t built = terms->Value() - t0;
      const size_t ph = pair_cache.hits(), pm = pair_cache.misses();
      for (const rules::Rule* o : others) {
        discovery.Correlated(*o, home[k], &pair_cache);
        discovery.Correlated(home[k], *o, &pair_cache);
      }
      const size_t row_hits = row_cache.hits() - rh;
      const size_t row_misses = row_cache.misses() - rm;
      EXPECT_EQ(row_hits + row_misses, 2 * k) << "row " << k;
      EXPECT_EQ(row_hits, pair_cache.hits() - ph) << "row " << k;
      EXPECT_EQ(row_misses, pair_cache.misses() - pm) << "row " << k;
      if (pass == 0 && k > 0 && row_misses == 2 * k) {
        EXPECT_EQ(built, k + 1) << "row " << k;
      } else if (row_misses == 0) {
        EXPECT_EQ(built, 0u) << "row " << k;
      } else {
        EXPECT_LE(built, k + 1) << "row " << k;
      }
    }
  }
  obs::SetEnabled(obs_was_enabled);
}

// FNV-1a over a graph's node ids, edges and labels.
uint64_t GraphDigest(const graph::InteractionGraph& g) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const auto& n : g.nodes()) mix(static_cast<uint64_t>(n.rule.id));
  for (const auto& e : g.edges()) {
    mix(static_cast<uint64_t>(e.src) << 32 | static_cast<uint32_t>(e.dst));
  }
  mix(g.vulnerable() ? 1 : 0);
  for (const auto t : g.threat_types()) mix(static_cast<uint64_t>(t));
  return h;
}

TEST_F(CorrelationTest, LiveGraphFedByRowsMatchesPairAdapter) {
  CorrelationDiscovery discovery(&model_);
  TrainStandard(&discovery);
  const nlp::EmbeddingModel sentence_model(512, 18);
  const graph::GraphBuilder builder({}, &model_, &sentence_model);
  const auto make_node = [&builder](const rules::Rule& r) {
    return builder.MakeNode(r);
  };
  CorrelationCache row_cache, pair_cache;
  graph::LiveGraph by_row(
      {3.0, true},
      [&](const rules::Rule& rule,
          const std::vector<const rules::Rule*>& others,
          std::vector<char>* from, std::vector<char>* to) {
        discovery.CorrelateRow(rule, others, from, to, &row_cache);
      },
      make_node);
  graph::LiveGraph by_pair(
      {3.0, true},
      [&](const rules::Rule& a, const rules::Rule& b) {
        return discovery.Correlated(a, b, &pair_cache);
      },
      make_node);
  const auto serialized = [](const graph::LiveGraph& g) {
    const graph::LiveGraph::State state = g.SaveState();
    return util::EncodeAll([&](util::LayoutWriter& io) {
      return graph::LiveStateFields(io, state);
    });
  };

  // Seeded adds and removes over corpus rules; ids are re-assigned so a
  // removal names one rule.
  Rng rng(53);
  int next_id = 1;
  size_t max_edges = 0;
  for (int step = 0; step < 60; ++step) {
    if (by_row.num_rules() == 0 || rng.Uniform() < 0.7) {
      rules::Rule r = corpus_[rng.Below(corpus_.size())];
      r.id = next_id++;
      EXPECT_EQ(by_row.AddRule(r), by_pair.AddRule(r)) << "step " << step;
    } else {
      const auto cur = by_row.CurrentRules();
      const int id = cur[rng.Below(cur.size())].id;
      EXPECT_TRUE(by_row.RemoveRule(id));
      EXPECT_TRUE(by_pair.RemoveRule(id));
    }
    const auto g_row = by_row.MaterializeStatic();
    const auto g_pair = by_pair.MaterializeStatic();
    ASSERT_EQ(GraphDigest(g_row), GraphDigest(g_pair)) << "step " << step;
    ASSERT_EQ(serialized(by_row), serialized(by_pair)) << "step " << step;
    max_edges = std::max(max_edges, g_row.edges().size());
  }
  EXPECT_GT(max_edges, 0u);
  EXPECT_EQ(row_cache.hits(), pair_cache.hits());
  EXPECT_EQ(row_cache.misses(), pair_cache.misses());
}

// FNV-1a over the bit patterns of a feature vector.
uint64_t FeatureDigest(const FloatVec& f) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (float v : f) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST_F(CorrelationTest, EnsembleNumericsMatchRecordedGolden) {
  // The other cases compare the ensemble with itself (short circuit against
  // full vote, cached against uncached), so a change that moved every
  // voter's arithmetic alike would pass them all. This case pins the
  // arithmetic: for 64 seeded pairs (32 oracle positives, 32 negatives) the
  // bits of the Algorithm 1 features, each voter's probability as fitted by
  // Train, and the verdict, against values recorded before the feature
  // extraction and the voters' inner loops last changed. Never re-record
  // these to make a change pass.
  const char* const kGolden[64] = {
      "dfd7a418afa2dadb 0x1.8d9c31d233b36p-15 0x1.62094f2094f21p-3 0x0p+0 0",
      "cf722b8a0dd7bdb7 0x1.64cd5a6a2404fp-29 0x1.3466924f6a6e5p-4 0x0p+0 0",
      "794f39665834e148 0x1.9d67151051f4bp-28 0x1.999999999999ap-5 0x0p+0 0",
      "38aa2610d02a7b23 0x1.5bc8192b17bc1p-25 0x1.33cce2c14ed0cp-3 0x0p+0 0",
      "e5763a6b226bd1a8 0x1.4a2d112648a5p-13 "
      "0x1.9accf8b5d0d4bp-4 0x1.f22cfdb5e2e98p-3 0",
      "a9bd65df66551e0f 0x1.703deaefd3c68p-32 0x0p+0 0x0p+0 0",
      "d99c9a315dc07e59 0x1.00ad41c7fe329p-18 "
      "0x1.ee2f59add2318p-2 0x1.d0528aeafcd4fp-2 0",
      "e41111634a7a8bf4 0x1.eb37dd53dbd48p-20 0x1.ccccccccccccdp-3 0x0p+0 0",
      "b3f531a5bd7349bb 0x1.1ba65d1990144p-19 0x1.8p-2 0x0p+0 0",
      "dcec0e894222785c 0x1.1900096fa14aep-30 0x1.9e67160a7685ep-6 0x0p+0 0",
      "51003e3a3250941d 0x1.444fe9ae98d8ep-16 "
      "0x1.2f9f12bc317e1p-2 0x1.6016ecb99ab0dp-1 0",
      "eb2e1a44c557ac7c 0x1.8b63a5849d00ep-26 "
      "0x1.9accf8b5d0d4bp-4 0x1.d53e1d355b48ap-3 0",
      "97f9bcdc0f2feebc 0x1.5dfa9709a159ap-8 "
      "0x1.4314973527ceep-2 0x1.e52d49d70fedbp-2 0",
      "60c9c517faf211cf 0x1.4d6cbbb9fab8cp-9 "
      "0x1.4dbf41dfd2799p-2 0x1.00a732d2580d6p-1 0",
      "36bdc0a0c064477d 0x1.799a057e3da83p-19 0x1.cd667c5ae86a5p-3 0x0p+0 0",
      "d8e63a82dae8c5b9 0x1.d641076738c48p-3 "
      "0x1.66b33e2d74352p-2 0x1.625a68e1fd6a2p-1 0",
      "b7317a62b352eb47 0x1.fffb552b21fd9p-1 0x1.ffd1db628c018p-1 0x1p+0 1",
      "221004a7cc54fc85 0x1.1b8f5772bb74fp-19 0x1.3466924f6a6e5p-4 0x0p+0 0",
      "6ce73672633f2a5e 0x1.2394749eea9ddp-11 "
      "0x1.220bade2fb308p-2 0x1.a425a4c2c29fp-1 0",
      "a514915a7b864bcc 0x1.766827dda7abp-15 "
      "0x1.3333333333333p-3 0x1.b2b7c3c4d2768p-1 0",
      "5c8c7f2537b0b8b4 0x1.f403da646d93fp-21 "
      "0x1.9e67160a7685ep-6 0x1.ba6f284757a3fp-2 0",
      "c6426d6dbfc3b02d 0x1.9142a4d2f8d5cp-3 "
      "0x1.465d02e4b22fcp-2 0x1.53ee0d63aed46p-1 0",
      "c5493c249ae2f58b 0x1.e649b4c4ecc14p-40 0x1.0099af8e1b9d9p-3 0x0p+0 0",
      "5e416d4a84e0aed2 0x1.b59731f151532p-23 "
      "0x1.194b3528e937ap-2 0x1.f6e391d9631acp-3 0",
      "1aef5e82f8c6c2c5 0x1.188371311d8fbp-1 0x1.cc3003eb6c08dp-3 0x0p+0 0",
      "4b38800c5a8fbf46 0x1.04151db7e060ep-13 "
      "0x1.cd667c5ae86a5p-3 0x1.f1c8ab4c926fp-3 0",
      "3469b751b0bd633a 0x1.2883962dac51bp-22 "
      "0x1.3466924f6a6e5p-4 0x1.99d1ce283ab9fp-2 0",
      "6264fc17684354ef 0x1.40fab569e2042p-22 "
      "0x1.33cce2c14ed0cp-3 0x1.f9bdc64c3e5dep-3 0",
      "9afacba7ad9a2254 0x1.fd7f63c35e29ep-1 "
      "0x1.6610353998b09p-1 0x1.d4cc8d5c7bbffp-1 1",
      "f5a925922dc336af 0x1.1be0fea368cdep-8 0x1.4c708391e4cfcp-2 0x0p+0 0",
      "dc17f63fc0dca9cb 0x1.cfbc4858a09f4p-20 0x1.0099af8e1b9d9p-3 0x0p+0 0",
      "cdcc628900236a20 0x1.02ca1b4a3a4dbp-12 "
      "0x1.19e67160a7686p-2 0x1.d87d2ef9f1a7fp-2 0",
      "6cc6e5922ccba127 0x1.c1fd81dcda999p-15 "
      "0x1.0099af8e1b9d9p-3 0x1.9376a8a7c81e9p-3 0",
      "2020cfdab8c6ad53 0x1.f30536f488682p-22 "
      "0x1.a5a0a246342p-4 0x1.05a9fa943785dp-1 0",
      "e74feb7f3e01be58 0x1.ec5304934194dp-1 "
      "0x1.199999999999ap-1 0x1.c3ac572ccaee4p-1 1",
      "2a64389ffaa73cae 0x1.af58b6d0f1cf1p-8 0x1.670015f48203fp-3 0x0p+0 0",
      "f31716b7af6c129d 0x1.ffd6c51ce250ap-1 "
      "0x1.7494418227a66p-1 0x1.bd1fe0004389dp-1 1",
      "699098fe73219a25 0x1.ffffd71356fb1p-1 0x1.d99999999999ap-1 0x1p+0 1",
      "338ac8101f532462 0x1.ffffa984802dep-1 0x1.599999999999ap-1 0x1p+0 1",
      "dd4e4a1a7f990dc1 0x1.ffdd7d6ce0d92p-1 "
      "0x1.1856238445027p-1 0x1.c111a216327b5p-1 1",
      "7c53fcb8ac4d7dc5 0x1.ffbecb5203264p-1 "
      "0x1.7fd8cdc7a7cfp-1 0x1.fffffb2a43536p-1 1",
      "cbd0766587ecc79c 0x1.ff4726c60c5e5p-1 "
      "0x1.0cccccccccccdp-1 0x1.f17fff8657b61p-2 1",
      "6f695672ba073172 0x1.2f450e4dfa1efp-10 0x1.8p-2 0x1.27e91b53b3b7p-2 0",
      "1878b3d2070b8142 0x1.fdb4646d17217p-1 0x1.73191c5f39b8ep-1 0x1p+0 1",
      "8982e2a118e9db7d 0x1.ffffe5d3db558p-1 0x1.ffebf236857bdp-1 0x1p+0 1",
      "b7317a62b352eb47 0x1.fffb552b21fd9p-1 0x1.ffd1db628c018p-1 0x1p+0 1",
      "26177abb43018650 0x1.fafcdb71f49b9p-1 0x1.2666666666666p-1 0x1p+0 1",
      "20bd86c25495378a 0x1.ffdb97f6ac9cap-1 0x1.fecea35a9228ap-1 0x1p+0 1",
      "b7317a62b352eb47 0x1.fffb552b21fd9p-1 0x1.ffd1db628c018p-1 0x1p+0 1",
      "de62aff0e5013017 0x1.fffb27ce99dp-1 0x1.ffebf236857bdp-1 0x1p+0 1",
      "5ea736cf14460d3e 0x1.fe2d050875f52p-1 "
      "0x1.e5a34fbfa3475p-1 0x1.fffffc3b36d0dp-1 1",
      "952478ad2b2812d9 0x1.770377e92bfd6p-8 "
      "0x1.927158ab962f6p-3 0x1.05bae2013daacp-21 0",
      "f72f64c47de68d85 0x1.f742c568d152ap-1 "
      "0x1.7fd7e46d0af79p-2 0x1.612557ad06fa2p-1 1",
      "69e17f0a244cf28d 0x1.fffffffff7fc2p-1 0x1.8cccccccccccdp-1 0x1p+0 1",
      "6322e6e67fc29d10 0x1.ffea60994a0f7p-1 0x1p+0 0x1.fffffdad1e1dbp-1 1",
      "7ca545850c737481 0x1.ef543a32ef1c8p-1 0x1p-1 0x1p+0 1",
      "b79c50abd8d57741 0x1.fe7c7310c221ep-1 "
      "0x1.36d78c472b575p-1 0x1.fe23b02704fbap-2 1",
      "c91d5eef95e0d020 0x1.fff533cdae595p-1 0x1.4cccccccccccdp-1 0x1p+0 1",
      "762a1b3e33af6bd6 0x1.ff5eafd32dfe2p-1 "
      "0x1.b2269c1e3765ap-1 0x1.fffffe209a4dfp-1 1",
      "fde5edb3643e51f7 0x1.fe5851c66c246p-1 0x1.ccb8bf035248ap-1 0x1p+0 1",
      "5ea736cf14460d3e 0x1.fe2d050875f52p-1 "
      "0x1.e5a34fbfa3475p-1 0x1.fffffc3b36d0dp-1 1",
      "c3896629705d3e64 0x1.ff3ab5a0c39bfp-1 "
      "0x1.738601d92f223p-1 0x1.c22a351cdfa7ep-1 1",
      "f04aa0da14abf6bc 0x1.31ae7b8de472fp-15 "
      "0x1.6666666666666p-3 0x1.13da4e0869c3bp-2 0",
      "9222a966debfbe3e 0x1.ffb382edde3b6p-1 0x1.a666666666666p-1 0x1p+0 1",
  };

  PairDatasetConfig cfg;
  cfg.num_positive = 250;
  cfg.num_negative = 350;
  const ml::Dataset train = BuildPairDataset(corpus_, extractor_, cfg);
  CorrelationDiscovery discovery(&model_);
  discovery.Train(train);
  // The three voters, fitted exactly as Train fits them.
  const auto weights = ml::BalancedClassWeights(train.y, 2);
  ml::Mlp mlp;
  mlp.Fit(train, weights);
  ml::RandomForest forest;
  forest.Fit(train, weights);
  ml::Knn knn;
  knn.Fit(train, weights);

  Rng rng(4242);
  int pos = 0, neg = 0;
  size_t k = 0;
  while (k < 64) {
    const auto& a = corpus_[rng.Below(corpus_.size())];
    const auto& b = corpus_[rng.Below(corpus_.size())];
    if (a.id == b.id) continue;
    const bool truth = rules::RuleTriggersRule(a, b);
    if (truth ? pos++ >= 32 : neg++ >= 32) continue;
    const FloatVec f = extractor_.ExtractPair(a, b);
    char line[160];
    std::snprintf(line, sizeof line, "%016llx %a %a %a %d",
                  static_cast<unsigned long long>(FeatureDigest(f)),
                  mlp.PredictProba(f), forest.PredictProba(f),
                  knn.PredictProba(f), discovery.Correlated(a, b) ? 1 : 0);
    EXPECT_STREQ(line, kGolden[k])
        << "pair " << k << ": " << a.text << " -> " << b.text;
    ++k;
  }
}

}  // namespace
}  // namespace glint::correlation
