#pragma once

#include <memory>
#include <vector>

#include "core/warning.h"
#include "correlation/discovery.h"
#include "gnn/drift.h"
#include "gnn/models.h"
#include "gnn/trainer.h"
#include "gnn/transfer.h"
#include "graph/builder.h"
#include "rules/corpus.h"

namespace glint::core {

/// The trained half of the Glint split: embedding models, the correlation
/// discoverer, ITGNN-S / ITGNN-C, and the drift detector — everything the
/// offline stage (TrainOffline) or LoadModels produces.
///
/// Lifecycle contract: after TrainOffline() / LoadModels() completes, the
/// detector is *immutable through its const serving API* and may be shared
/// by any number of DeploymentSessions across threads. The memo caches
/// (node features, pairwise correlation verdicts) are internally locked and
/// store pure-function results only, so concurrent sessions always observe
/// the same verdicts as serial execution. The non-const offline methods
/// (TrainOffline, LoadModels, FineTune) must not run concurrently with live
/// sessions; they belong to the maintenance window, not the serving path.
class TrainedDetector {
 public:
  struct Options {
    rules::CorpusConfig corpus;
    graph::GraphBuilder::Config builder;
    gnn::ItgnnModel::Config model;
    gnn::TrainConfig train;
    /// Graphs to build for offline training.
    int num_training_graphs = 800;
    /// Labeled action-trigger pairs for the correlation discoverer.
    correlation::PairDatasetConfig pairs;
    /// Use the *learned* correlation classifier (vs the semantic oracle)
    /// when building graphs online, mirroring the paper's pipeline.
    bool use_learned_correlation = true;
    /// Drift threshold T_MAD.
    double t_mad = 3.0;
    uint64_t seed = 97;
  };

  TrainedDetector() : TrainedDetector(Options()) {}
  explicit TrainedDetector(Options options);

  // ---- Offline stage (maintenance window only) --------------------------

  /// Runs the full offline stage. Expensive (trains three models).
  void TrainOffline();

  /// Serialization of the trained models.
  Status SaveModels(const std::string& dir) const;
  Status LoadModels(const std::string& dir);

  /// Step 7-8 of Fig. 2: fine-tunes the classifier head on user-marked
  /// feedback graphs beside the training graphs, which it rebuilds from
  /// the corpus (none is kept). Offline only — must not overlap live
  /// sessions.
  void FineTune(const std::vector<graph::InteractionGraph>& feedback,
                const std::vector<bool>& is_threat);

  /// True once TrainOffline (or LoadModels) has completed.
  bool ready() const { return ready_; }

  // ---- Const serving API (thread-shareable) -----------------------------

  /// The online edge predicate: the learned correlation classifier when
  /// trained and enabled (memoized by rule content hash in the shared
  /// CorrelationCache), else the semantic oracle.
  bool Correlated(const rules::Rule& src, const rules::Rule& dst) const;

  /// The same predicate over one rule's row: (*from)[i] is
  /// Correlated(*others[i], rule) and (*to)[i] is Correlated(rule,
  /// *others[i]). The learned path parses each rule once for the whole row
  /// (CorrelationDiscovery::CorrelateRow).
  void CorrelateRow(const rules::Rule& rule,
                    const std::vector<const rules::Rule*>& others,
                    std::vector<char>* from, std::vector<char>* to) const;

  /// Embeds one rule into a graph node (memoized by rule text).
  graph::Node MakeNode(const rules::Rule& rule) const;

  /// Drift check + classification + culprit explanation over a tensorized
  /// graph; `g` supplies rule text/platform for the warning rendering.
  /// `explain = false` skips the occlusion explainer on threats (no
  /// culprits in the warning) — the degraded-mode serving path, where the
  /// verdict itself is bit-identical but attribution is dropped for speed.
  /// A zero-node graph (a home without rules) gets the default benign
  /// warning without a forward.
  ThreatWarning Analyze(const gnn::GnnGraph& gg,
                        const graph::InteractionGraph& g,
                        bool explain = true) const;

  /// Analyze over many graphs at once: the non-empty graphs are packed into
  /// one block-diagonal GnnBatch, so one drift-embedding forward and one
  /// classification forward serve them all. Warning i is bit-identical to
  /// Analyze(*ggs[i], *gs[i]): both run the same body, and the segment ops
  /// (gnn/tensor.h) give every graph the same bits alone or in any batch.
  std::vector<ThreatWarning> AnalyzeBatch(
      const std::vector<const gnn::GnnGraph*>& ggs,
      const std::vector<const graph::InteractionGraph*>& gs) const;

  /// Tensorizes then analyzes (initial-setup checks, cold inspections).
  ThreatWarning AnalyzeGraph(const graph::InteractionGraph& g) const;

  // ---- Accessors (CLI, benches, examples, tests) ------------------------

  const Options& options() const { return options_; }
  gnn::ItgnnModel* classifier() const { return classifier_.get(); }
  gnn::ItgnnModel* contrastive() const { return contrastive_.get(); }
  const gnn::DriftDetector& drift_detector() const { return drift_; }
  const correlation::CorrelationDiscovery& discovery() const {
    return *discovery_;
  }
  const std::vector<rules::Rule>& corpus() const { return corpus_rules_; }
  const nlp::EmbeddingModel& word_model() const { return word_model_; }
  const nlp::EmbeddingModel& sentence_model() const { return sentence_model_; }
  const correlation::CorrelationCache& correlation_cache() const {
    return corr_cache_;
  }

 private:
  Options options_;
  nlp::EmbeddingModel word_model_;
  nlp::EmbeddingModel sentence_model_;
  std::vector<rules::Rule> corpus_rules_;
  std::unique_ptr<correlation::CorrelationDiscovery> discovery_;
  std::unique_ptr<graph::GraphBuilder> builder_;
  std::unique_ptr<gnn::ItgnnModel> classifier_;   ///< ITGNN-S
  std::unique_ptr<gnn::ItgnnModel> contrastive_;  ///< ITGNN-C
  gnn::DriftDetector drift_;
  /// Shared pairwise-correlation memo (one entry per rule pair across every
  /// session served by this detector).
  mutable correlation::CorrelationCache corr_cache_;
  bool ready_ = false;

  /// True when edges come from the trained ensemble, not the oracle.
  bool learned_correlation() const;

  /// The one analysis body behind Analyze and AnalyzeBatch.
  std::vector<ThreatWarning> AnalyzeAll(
      const std::vector<const gnn::GnnGraph*>& ggs,
      const std::vector<const graph::InteractionGraph*>& gs,
      bool explain) const;
};

}  // namespace glint::core
