#pragma once

#include <functional>

#include "gnn/models.h"
#include "ml/metrics.h"

namespace glint::gnn {

/// Training configuration shared by the supervised (Eq. 2) and contrastive
/// (Eq. 1) regimes.
struct TrainConfig {
  int epochs = 12;
  double lr = 2e-3;
  double weight_decay = 1e-5;
  /// Eq. 2's β: weight of the VIPool pooling loss.
  double beta_pool = 0.3;
  /// Oversample the minority class by this factor in the training set
  /// (Sec. 4.4 doubles the vulnerable graphs).
  double oversample_factor = 2.0;
  /// Eq. 1's ε margin for contrastive training.
  double contrastive_margin = 4.0;
  /// Contrastive pairs drawn per epoch = pairs_per_sample * n.
  double pairs_per_sample = 1.0;
  uint64_t seed = 2024;
  bool verbose = false;
};

/// Trainer for graph models: supervised classification with class weights
/// and oversampling (ITGNN-S & baselines), or contrastive representation
/// learning (ITGNN-C).
class Trainer {
 public:
  explicit Trainer(TrainConfig config) : config_(config) {}
  Trainer() : Trainer(TrainConfig()) {}

  /// Supervised training with Eq. 2 (class-weighted CE + β L_pool).
  void TrainSupervised(GraphModel* model, const std::vector<GnnGraph>& train);

  /// Contrastive training with Eq. 1 on pairs of graphs.
  void TrainContrastive(GraphModel* model, const std::vector<GnnGraph>& train);

  /// Weighted evaluation metrics on a test set.
  static ml::Metrics Evaluate(GraphModel* model,
                              const std::vector<GnnGraph>& test);

  /// Predicted class for one graph.
  static int Predict(GraphModel* model, const GnnGraph& g);

  /// Graph embedding for one graph.
  static FloatVec Embed(GraphModel* model, const GnnGraph& g);

  /// Embeddings for a whole set.
  static std::vector<FloatVec> EmbedAll(GraphModel* model,
                                        const std::vector<GnnGraph>& set);

 private:
  TrainConfig config_;
};

/// Random 80/20-style split of a graph dataset.
void SplitGraphs(const std::vector<GnnGraph>& all, double train_frac, Rng* rng,
                 std::vector<GnnGraph>* train, std::vector<GnnGraph>* test);

/// Class-1 oversampling by index: every index of `train` in order, then
/// (factor - 1) x #minority draws of class-1 indices.
std::vector<size_t> OversampleIndices(const std::vector<GnnGraph>& train,
                                      double factor, Rng* rng);

}  // namespace glint::gnn
