#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/event_log.h"
#include "graph/interaction_graph.h"
#include "nlp/embedding.h"
#include "rules/rule.h"
#include "util/rng.h"

namespace glint::graph {

/// Predicate deciding whether an "action-trigger" edge exists between two
/// rules. The default is the ground-truth semantic oracle; benches can
/// inject the *learned* correlation classifier (Sec. 3.2.1) to mirror the
/// paper's pipeline.
using EdgePredicate =
    std::function<bool(const rules::Rule& src, const rules::Rule& dst)>;

/// True when the two rules command the same physical device instance (same
/// device class, compatible rooms) — the "interacting device" links of
/// Fig. 1. Shared by the batch builder and the incremental LiveGraph.
bool ShareDevice(const rules::Rule& a, const rules::Rule& b);

/// Builds interaction graphs from rule pools (offline) and from deployed
/// rules + event logs (online), embedding each rule's text into node
/// features (300-d word vectors for text platforms, 512-d sentence codes
/// for voice platforms).
class GraphBuilder {
 public:
  struct Config {
    int min_nodes = 2;
    int max_nodes = 50;
    /// Exponent of the size distribution: size = min + (max-min) * u^skew.
    /// Larger skew -> smaller graphs dominate (matches the paper's mix of
    /// many small graphs and a tail of 50-node ones).
    double size_skew = 5.0;
    /// Probability that each new node is grown from an existing node's
    /// correlation (vs. sampled independently).
    double chain_prob = 0.8;
    /// Attempts to find a correlated rule before falling back to random.
    int chain_tries = 200;
    /// Also connect rules that command the same device instance (Fig. 1
    /// shows rules linked "via interacting devices", e.g. the two window
    /// rules of Table 1). Without these edges a conflict between two
    /// otherwise-unrelated rules is invisible to message passing.
    bool device_edges = true;
    uint64_t seed = 1234;
  };

  GraphBuilder(Config config, const nlp::EmbeddingModel* word_model,
               const nlp::EmbeddingModel* sentence_model);

  /// Overrides the edge predicate (default: semantic oracle).
  void set_edge_predicate(EdgePredicate pred) { edge_pred_ = std::move(pred); }

  /// Builds a labeled dataset of `num_graphs` random interaction graphs
  /// (offline stage): per graph, chained sampling of correlated rules from
  /// the pool, a full pairwise edge scan, and labels via ThreatAnalyzer.
  GraphDataset BuildDataset(const std::vector<rules::Rule>& pool,
                            int num_graphs);

  /// Builds the complete (static) interaction graph over an explicit rule
  /// set — every pairwise correlation becomes an edge (Table 1 / Fig. 1).
  InteractionGraph BuildFromRules(const std::vector<rules::Rule>& deployed);

  /// Online stage: prunes the static graph with event-log evidence — an
  /// edge survives only if the source rule's effect was observed before the
  /// destination rule's trigger within `window_hours` (Sec. 3.2.2's
  /// chronological pruning). Nodes whose rules never fired are kept but
  /// isolated.
  InteractionGraph BuildRealTime(const std::vector<rules::Rule>& deployed,
                                 const EventLog& log, double now_hours,
                                 double window_hours = 3.0);

  /// Node features for a rule (selects embedding model by platform).
  /// The vector is a pure function of (node type, rule text), so it is made
  /// once and shared: every node of that text that is alive at the same
  /// time (across graphs, datasets and deployment sessions) points at one
  /// vector. The memo holds each vector weakly; a text whose last node is
  /// gone is embedded afresh, bit-equal, on its next use. Thread-safe.
  Node MakeNode(const rules::Rule& rule) const;

  /// Entries in the feature memo, expired ones included. Kept for the
  /// tests: they check the memo's bound under rule churn with it.
  size_t feature_memo_size() const;

 private:
  /// Builds one dataset graph from an explicit RNG stream. BuildDataset
  /// gives graph i the stream seeded by `config_.seed ^ i`, so the dataset
  /// is identical for any thread count.
  InteractionGraph BuildGraphWith(const std::vector<rules::Rule>& pool,
                                  Rng* rng) const;

  /// Adds all edges for the chosen rule set: action-trigger correlations
  /// via the edge predicate plus (optionally) shared-device links.
  void AddEdges(const std::vector<rules::Rule>& rs, InteractionGraph* g) const;

  Config config_;
  const nlp::EmbeddingModel* word_model_;
  const nlp::EmbeddingModel* sentence_model_;
  EdgePredicate edge_pred_;
  /// MakeNode feature memo, keyed by type-salted text hash. The nodes own
  /// the vectors; an entry expires with the last node of its text. Expired
  /// entries are erased in one pass whenever the map has doubled since the
  /// last pass, so it holds at most twice the texts that were alive then.
  mutable std::mutex feature_mu_;
  mutable std::unordered_map<uint64_t, std::weak_ptr<const FloatVec>>
      feature_cache_;
  /// feature_cache_.size() after the last pass over it.
  mutable size_t feature_swept_size_ = 0;
};

}  // namespace glint::graph
