#pragma once

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace glint::ml {

/// CART decision tree supporting both classification (Gini impurity,
/// weighted samples) and regression (variance reduction). The regression
/// mode serves as the base learner for gradient boosting.
class DecisionTree {
 public:
  struct Params {
    int max_depth = 10;
    int min_samples_leaf = 2;
    /// Number of features sampled per split; 0 = all, -1 = sqrt(dim).
    int max_features = 0;
    uint64_t seed = 3;
  };

  DecisionTree() : DecisionTree(Params()) {}
  explicit DecisionTree(Params params) : params_(params) {}

  /// Classification fit with per-sample weights (empty = uniform).
  void FitClassifier(const std::vector<FloatVec>& x, const std::vector<int>& y,
                     const std::vector<double>& sample_weights,
                     int num_classes);

  /// Regression fit on real targets.
  void FitRegressor(const std::vector<FloatVec>& x,
                    const std::vector<double>& targets);

  /// Classification: class distribution at the leaf.
  const std::vector<double>& PredictDistribution(const FloatVec& x) const;

  /// Regression: leaf mean. Requires FitRegressor.
  double PredictValue(const FloatVec& x) const;

  /// Depth of the learned tree (root = 0; empty tree = -1). Kept for the
  /// tests: it is how they check that fitting honours Params::max_depth.
  int Depth() const;

 private:
  struct Node {
    int feature = -1;       ///< -1 marks a leaf
    float threshold = 0;
    int left = -1, right = -1;
    std::vector<double> dist;  ///< class distribution (classification)
    double value = 0;          ///< mean target (regression)
  };

  int Build(const std::vector<FloatVec>& x, const std::vector<double>& target,
            const std::vector<int>& labels,
            const std::vector<double>& weights, std::vector<size_t> idx,
            int depth, bool classification, int num_classes, Rng* rng);
  const Node& Leaf(const FloatVec& x) const;

  Params params_;
  std::vector<Node> nodes_;
};

/// Random forest of classification trees (bagging + feature subsampling).
class RandomForest : public Classifier {
 public:
  struct Params {
    int num_trees = 40;
    int max_depth = 12;
    int min_samples_leaf = 1;
    uint64_t seed = 5;
  };

  RandomForest() : RandomForest(Params()) {}
  explicit RandomForest(Params params) : params_(params) {}

  void Fit(const Dataset& data, const std::vector<double>& class_weights) override;
  int Predict(const FloatVec& x) const override;
  double PredictProba(const FloatVec& x) const override;
  std::string Name() const override { return "RForest"; }

 private:
  Params params_;
  std::vector<DecisionTree> trees_;
  int num_classes_ = 2;
};

/// Gradient-boosted trees for binary classification: regression trees fit
/// to the negative gradient of the logistic loss, with shrinkage.
class GradientBoosting : public Classifier {
 public:
  struct Params {
    int num_rounds = 60;
    int max_depth = 3;
    double learning_rate = 0.15;
    uint64_t seed = 13;
  };

  GradientBoosting() : GradientBoosting(Params()) {}
  explicit GradientBoosting(Params params) : params_(params) {}

  void Fit(const Dataset& data, const std::vector<double>& class_weights) override;
  int Predict(const FloatVec& x) const override;
  double PredictProba(const FloatVec& x) const override;
  std::string Name() const override { return "GBoost"; }

 private:
  double RawScore(const FloatVec& x) const;

  Params params_;
  std::vector<DecisionTree> trees_;
  double base_score_ = 0;
};

}  // namespace glint::ml
