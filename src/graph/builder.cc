#include "graph/builder.h"

#include <cmath>

#include "graph/threat_analyzer.h"
#include "obs/obs.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace glint::graph {

GraphBuilder::GraphBuilder(Config config,
                           const nlp::EmbeddingModel* word_model,
                           const nlp::EmbeddingModel* sentence_model)
    : config_(config),
      word_model_(word_model),
      sentence_model_(sentence_model) {
  GLINT_CHECK(word_model_ != nullptr);
  GLINT_CHECK(sentence_model_ != nullptr);
  edge_pred_ = [](const rules::Rule& a, const rules::Rule& b) {
    return rules::RuleTriggersRule(a, b);
  };
}

bool ShareDevice(const rules::Rule& a, const rules::Rule& b) {
  for (const auto& ai : a.actions) {
    for (const auto& bi : b.actions) {
      if (ai.device != bi.device) continue;
      if (rules::IsHouseWideChannel(rules::StateChannelOf(ai.device)) ||
          a.location == b.location) {
        return true;
      }
    }
  }
  return false;
}

void GraphBuilder::AddEdges(const std::vector<rules::Rule>& rs,
                            InteractionGraph* g) const {
  for (int i = 0; i < g->num_nodes(); ++i) {
    for (int j = 0; j < g->num_nodes(); ++j) {
      if (i == j) continue;
      if (edge_pred_(rs[static_cast<size_t>(i)], rs[static_cast<size_t>(j)])) {
        g->AddEdge(i, j);
      } else if (config_.device_edges && i < j &&
                 ShareDevice(rs[static_cast<size_t>(i)],
                             rs[static_cast<size_t>(j)])) {
        g->AddEdge(i, j);
        g->AddEdge(j, i);
      }
    }
  }
}

Node GraphBuilder::MakeNode(const rules::Rule& rule) const {
  Node node;
  node.rule = rule;
  node.type = NodeTypeOf(rule.platform);
  // Features depend only on (type, text); memoize on that key. The rule
  // (with its id) is copied into the node fresh each call.
  const uint64_t key =
      HashString(rule.text.data(), rule.text.size()) ^
      (node.type == 1 ? 0x9e3779b97f4a7c15ULL : 0);
  {
    std::lock_guard<std::mutex> lk(feature_mu_);
    auto it = feature_cache_.find(key);
    if (it != feature_cache_.end()) {
      GLINT_OBS_COUNT("glint.graph.feature_cache.hits", 1);
      node.features = it->second;
      return node;
    }
  }
  GLINT_OBS_COUNT("glint.graph.feature_cache.misses", 1);
  node.features = node.type == 1 ? sentence_model_->EncodeSentence(rule.text)
                                 : word_model_->EmbedSentence(rule.text);
  std::lock_guard<std::mutex> lk(feature_mu_);
  feature_cache_.try_emplace(key, node.features);
  return node;
}

InteractionGraph GraphBuilder::BuildGraphWith(
    const std::vector<rules::Rule>& pool, Rng* rng) const {
  GLINT_CHECK(!pool.empty());
  const double u = rng->Uniform();
  const int n = config_.min_nodes +
                static_cast<int>(std::pow(u, config_.size_skew) *
                                 (config_.max_nodes - config_.min_nodes));

  std::vector<rules::Rule> chosen;
  chosen.push_back(rng->Pick(pool));
  while (static_cast<int>(chosen.size()) < n) {
    bool chained = false;
    if (rng->Chance(config_.chain_prob)) {
      // Grow from a random existing node: find a pool rule correlated with
      // it in either direction.
      const rules::Rule& anchor = chosen[rng->Below(chosen.size())];
      for (int t = 0; t < config_.chain_tries && !chained; ++t) {
        const rules::Rule& cand = pool[rng->Below(pool.size())];
        if (cand.id == anchor.id) continue;
        if (edge_pred_(anchor, cand) || edge_pred_(cand, anchor)) {
          chosen.push_back(cand);
          chained = true;
        }
      }
    }
    if (!chained) chosen.push_back(rng->Pick(pool));
  }

  InteractionGraph g;
  for (const auto& r : chosen) g.AddNode(MakeNode(r));
  AddEdges(chosen, &g);
  ThreatAnalyzer::Label(&g);
  return g;
}

GraphDataset GraphBuilder::BuildDataset(const std::vector<rules::Rule>& pool,
                                        int num_graphs) {
  GraphDataset ds;
  ds.graphs.resize(static_cast<size_t>(num_graphs));
  // One independent RNG stream per graph, seeded from the builder seed and
  // the graph index: graph i is the same no matter which thread builds it.
  ParallelFor(0, num_graphs, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      Rng rng(config_.seed ^ static_cast<uint64_t>(i));
      ds.graphs[static_cast<size_t>(i)] = BuildGraphWith(pool, &rng);
    }
  });
  return ds;
}

InteractionGraph GraphBuilder::BuildFromRules(
    const std::vector<rules::Rule>& deployed) {
  GLINT_OBS_TIMER(timer, "glint.graph.build_ms");
  InteractionGraph g;
  for (const auto& r : deployed) g.AddNode(MakeNode(r));
  AddEdges(deployed, &g);
  ThreatAnalyzer::Label(&g);
  return g;
}

InteractionGraph GraphBuilder::BuildRealTime(
    const std::vector<rules::Rule>& deployed, const EventLog& log,
    double now_hours, double window_hours) {
  GLINT_OBS_TIMER(timer, "glint.graph.build_ms");
  InteractionGraph g;
  for (const auto& r : deployed) g.AddNode(MakeNode(r));

  const auto window = log.Window(now_hours, window_hours);
  // For each rule, the times at which its trigger fired and at which its
  // action effects were observed within the window.
  const size_t n = deployed.size();
  std::vector<std::vector<double>> trigger_times(n);
  std::vector<std::vector<double>> effect_times(n);
  for (const auto& e : window) {
    for (size_t i = 0; i < n; ++i) {
      if (EventFiresTrigger(e, deployed[i])) {
        trigger_times[i].push_back(e.time_hours);
      }
      for (const auto& a : deployed[i].actions) {
        if (e.device == a.device &&
            rules::CommandAssertsState(a.command, e.state)) {
          effect_times[i].push_back(e.time_hours);
        }
      }
    }
  }

  // Keep an edge i -> j only when semantics allow it AND rule i's effect
  // was observed strictly before a firing of rule j's trigger.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (!edge_pred_(deployed[i], deployed[j])) continue;
      bool ordered = false;
      for (double te : effect_times[i]) {
        for (double tt : trigger_times[j]) {
          if (te <= tt && tt - te <= window_hours) ordered = true;
        }
      }
      if (ordered) {
        g.AddEdge(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  if (config_.device_edges) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (ShareDevice(deployed[i], deployed[j])) {
          g.AddEdge(static_cast<int>(i), static_cast<int>(j));
          g.AddEdge(static_cast<int>(j), static_cast<int>(i));
        }
      }
    }
  }
  ThreatAnalyzer::Label(&g);
  return g;
}

}  // namespace glint::graph
