#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>

namespace glint::ml {
namespace {

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / total;
    g -= p * p;
  }
  return g;
}

}  // namespace

int DecisionTree::Build(const std::vector<FloatVec>& x,
                        const std::vector<double>& target,
                        const std::vector<int>& labels,
                        const std::vector<double>& weights,
                        std::vector<size_t> idx, int depth,
                        bool classification, int num_classes, Rng* rng) {
  Node node;
  // Leaf statistics.
  if (classification) {
    node.dist.assign(static_cast<size_t>(num_classes), 0.0);
    for (size_t i : idx) {
      const double w = weights.empty() ? 1.0 : weights[i];
      node.dist[static_cast<size_t>(labels[i])] += w;
    }
    double total = 0;
    for (double d : node.dist) total += d;
    if (total > 0) {
      for (double& d : node.dist) d /= total;
    }
  } else {
    double sum = 0;
    for (size_t i : idx) sum += target[i];
    node.value = idx.empty() ? 0 : sum / static_cast<double>(idx.size());
  }

  auto make_leaf = [&]() {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  };

  if (depth >= params_.max_depth ||
      idx.size() < static_cast<size_t>(2 * params_.min_samples_leaf)) {
    return make_leaf();
  }
  // Pure node?
  if (classification) {
    int nonzero = 0;
    for (double d : node.dist) nonzero += d > 0 ? 1 : 0;
    if (nonzero <= 1) return make_leaf();
  }

  const size_t dim = x[0].size();
  size_t n_feats = dim;
  if (params_.max_features > 0) {
    n_feats = std::min<size_t>(dim, static_cast<size_t>(params_.max_features));
  } else if (params_.max_features < 0) {
    n_feats = std::max<size_t>(
        1, static_cast<size_t>(std::sqrt(static_cast<double>(dim))));
  }
  std::vector<size_t> feats(dim);
  for (size_t f = 0; f < dim; ++f) feats[f] = f;
  if (n_feats < dim) rng->Shuffle(&feats);

  double best_score = -1;
  int best_feature = -1;
  float best_threshold = 0;

  std::vector<std::pair<float, size_t>> sorted;
  sorted.reserve(idx.size());

  for (size_t fi = 0; fi < n_feats; ++fi) {
    const size_t f = feats[fi];
    sorted.clear();
    for (size_t i : idx) sorted.emplace_back(x[i][f], i);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;

    if (classification) {
      std::vector<double> left_counts(static_cast<size_t>(num_classes), 0.0);
      std::vector<double> right_counts(static_cast<size_t>(num_classes), 0.0);
      double left_total = 0, right_total = 0;
      for (size_t i : idx) {
        const double w = weights.empty() ? 1.0 : weights[i];
        right_counts[static_cast<size_t>(labels[i])] += w;
        right_total += w;
      }
      const double parent_gini = GiniFromCounts(right_counts, right_total);
      for (size_t s = 0; s + 1 < sorted.size(); ++s) {
        const size_t i = sorted[s].second;
        const double w = weights.empty() ? 1.0 : weights[i];
        left_counts[static_cast<size_t>(labels[i])] += w;
        left_total += w;
        right_counts[static_cast<size_t>(labels[i])] -= w;
        right_total -= w;
        if (sorted[s].first == sorted[s + 1].first) continue;
        if (s + 1 < static_cast<size_t>(params_.min_samples_leaf) ||
            sorted.size() - s - 1 <
                static_cast<size_t>(params_.min_samples_leaf)) {
          continue;
        }
        const double total = left_total + right_total;
        const double gain =
            parent_gini -
            (left_total / total) * GiniFromCounts(left_counts, left_total) -
            (right_total / total) * GiniFromCounts(right_counts, right_total);
        if (gain > best_score) {
          best_score = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5f * (sorted[s].first + sorted[s + 1].first);
        }
      }
    } else {
      // Regression: maximise variance reduction via running sums.
      double right_sum = 0, right_sq = 0;
      for (size_t i : idx) {
        right_sum += target[i];
        right_sq += target[i] * target[i];
      }
      double left_sum = 0, left_sq = 0;
      const double n = static_cast<double>(idx.size());
      const double parent_sse = right_sq - right_sum * right_sum / n;
      for (size_t s = 0; s + 1 < sorted.size(); ++s) {
        const double t = target[sorted[s].second];
        left_sum += t;
        left_sq += t * t;
        right_sum -= t;
        right_sq -= t * t;
        if (sorted[s].first == sorted[s + 1].first) continue;
        const double nl = static_cast<double>(s + 1);
        const double nr = n - nl;
        if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) {
          continue;
        }
        const double sse_l = left_sq - left_sum * left_sum / nl;
        const double sse_r = right_sq - right_sum * right_sum / nr;
        const double gain = parent_sse - sse_l - sse_r;
        if (gain > best_score) {
          best_score = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5f * (sorted[s].first + sorted[s + 1].first);
        }
      }
    }
  }

  if (best_feature < 0 || best_score <= 1e-12) return make_leaf();

  std::vector<size_t> left_idx, right_idx;
  for (size_t i : idx) {
    if (x[i][static_cast<size_t>(best_feature)] <= best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  if (left_idx.empty() || right_idx.empty()) return make_leaf();

  node.feature = best_feature;
  node.threshold = best_threshold;
  nodes_.push_back(node);
  const int self = static_cast<int>(nodes_.size() - 1);
  const int left = Build(x, target, labels, weights, std::move(left_idx),
                         depth + 1, classification, num_classes, rng);
  const int right = Build(x, target, labels, weights, std::move(right_idx),
                          depth + 1, classification, num_classes, rng);
  nodes_[static_cast<size_t>(self)].left = left;
  nodes_[static_cast<size_t>(self)].right = right;
  return self;
}

void DecisionTree::FitClassifier(const std::vector<FloatVec>& x,
                                 const std::vector<int>& y,
                                 const std::vector<double>& sample_weights,
                                 int num_classes) {
  GLINT_CHECK(!x.empty() && x.size() == y.size());
  nodes_.clear();
  Rng rng(params_.seed);
  std::vector<size_t> idx(x.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Build(x, {}, y, sample_weights, std::move(idx), 0, /*classification=*/true,
        num_classes, &rng);
}

void DecisionTree::FitRegressor(const std::vector<FloatVec>& x,
                                const std::vector<double>& targets) {
  GLINT_CHECK(!x.empty() && x.size() == targets.size());
  nodes_.clear();
  Rng rng(params_.seed);
  std::vector<size_t> idx(x.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Build(x, targets, {}, {}, std::move(idx), 0, /*classification=*/false, 0,
        &rng);
}

const DecisionTree::Node& DecisionTree::Leaf(const FloatVec& x) const {
  GLINT_CHECK(!nodes_.empty());
  // Root is node 0 (built first).
  size_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    cur = static_cast<size_t>(
        x[static_cast<size_t>(nodes_[cur].feature)] <= nodes_[cur].threshold
            ? nodes_[cur].left
            : nodes_[cur].right);
  }
  return nodes_[cur];
}

const std::vector<double>& DecisionTree::PredictDistribution(
    const FloatVec& x) const {
  return Leaf(x).dist;
}

double DecisionTree::PredictValue(const FloatVec& x) const {
  return Leaf(x).value;
}

int DecisionTree::Depth() const {
  if (nodes_.empty()) return -1;
  // Iterative depth computation from the root.
  struct Item { size_t node; int depth; };
  std::vector<Item> stack{{0, 0}};
  int max_depth = 0;
  while (!stack.empty()) {
    Item it = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, it.depth);
    const Node& n = nodes_[it.node];
    if (n.feature >= 0) {
      stack.push_back({static_cast<size_t>(n.left), it.depth + 1});
      stack.push_back({static_cast<size_t>(n.right), it.depth + 1});
    }
  }
  return max_depth;
}

// ---------------------------------------------------------------------------
// RandomForest
// ---------------------------------------------------------------------------

void RandomForest::Fit(const Dataset& data,
                       const std::vector<double>& class_weights) {
  GLINT_CHECK(data.size() > 0);
  num_classes_ = std::max(2, data.NumClasses());
  trees_.clear();
  Rng rng(params_.seed);
  std::vector<double> sample_weights(data.size(), 1.0);
  if (!class_weights.empty()) {
    for (size_t i = 0; i < data.size(); ++i) {
      sample_weights[i] = class_weights[static_cast<size_t>(data.y[i])];
    }
  }
  for (int t = 0; t < params_.num_trees; ++t) {
    // Bootstrap sample.
    std::vector<FloatVec> bx;
    std::vector<int> by;
    std::vector<double> bw;
    bx.reserve(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      const size_t j = rng.Below(data.size());
      bx.push_back(data.x[j]);
      by.push_back(data.y[j]);
      bw.push_back(sample_weights[j]);
    }
    DecisionTree::Params tp;
    tp.max_depth = params_.max_depth;
    tp.min_samples_leaf = params_.min_samples_leaf;
    tp.max_features = -1;  // sqrt(dim) random subspace
    tp.seed = rng.NextU64();
    DecisionTree tree(tp);
    tree.FitClassifier(bx, by, bw, num_classes_);
    trees_.push_back(std::move(tree));
  }
}

int RandomForest::Predict(const FloatVec& x) const {
  std::vector<double> votes(static_cast<size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const auto& dist = tree.PredictDistribution(x);
    for (size_t c = 0; c < dist.size(); ++c) votes[c] += dist[c];
  }
  int best = 0;
  for (size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

double RandomForest::PredictProba(const FloatVec& x) const {
  double p = 0;
  for (const auto& tree : trees_) {
    const auto& dist = tree.PredictDistribution(x);
    if (dist.size() > 1) p += dist[1];
  }
  return trees_.empty() ? 0 : p / static_cast<double>(trees_.size());
}

// ---------------------------------------------------------------------------
// GradientBoosting
// ---------------------------------------------------------------------------

void GradientBoosting::Fit(const Dataset& data,
                           const std::vector<double>& class_weights) {
  GLINT_CHECK(data.size() > 0);
  trees_.clear();
  // Initial score: log-odds of the positive class.
  double pos = 0;
  for (int y : data.y) pos += y == 1 ? 1 : 0;
  double p = std::clamp(pos / static_cast<double>(data.size()), 1e-4, 1 - 1e-4);
  base_score_ = std::log(p / (1 - p));

  std::vector<double> raw(data.size(), base_score_);
  Rng rng(params_.seed);
  for (int round = 0; round < params_.num_rounds; ++round) {
    // Negative gradient of the class-weighted logistic loss.
    std::vector<double> grad(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      const double yi = data.y[i] == 1 ? 1.0 : 0.0;
      const double pi = 1.0 / (1.0 + std::exp(-raw[i]));
      const double cw =
          class_weights.empty() ? 1.0
                                : class_weights[static_cast<size_t>(data.y[i])];
      grad[i] = cw * (yi - pi);
    }
    DecisionTree::Params tp;
    tp.max_depth = params_.max_depth;
    tp.min_samples_leaf = 3;
    tp.seed = rng.NextU64();
    DecisionTree tree(tp);
    tree.FitRegressor(data.x, grad);
    for (size_t i = 0; i < data.size(); ++i) {
      raw[i] += params_.learning_rate * tree.PredictValue(data.x[i]);
    }
    trees_.push_back(std::move(tree));
  }
}

double GradientBoosting::RawScore(const FloatVec& x) const {
  double s = base_score_;
  for (const auto& tree : trees_) {
    s += params_.learning_rate * tree.PredictValue(x);
  }
  return s;
}

int GradientBoosting::Predict(const FloatVec& x) const {
  return RawScore(x) >= 0 ? 1 : 0;
}

double GradientBoosting::PredictProba(const FloatVec& x) const {
  return 1.0 / (1.0 + std::exp(-RawScore(x)));
}

}  // namespace glint::ml
