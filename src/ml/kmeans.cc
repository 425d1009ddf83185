#include "ml/kmeans.h"

#include <limits>

#include "util/status.h"

namespace glint::ml {

void KMeans::Fit(const std::vector<FloatVec>& xs) {
  GLINT_CHECK(!xs.empty());
  GLINT_CHECK(params_.k > 0);
  Rng rng(params_.seed);
  const size_t k = std::min<size_t>(static_cast<size_t>(params_.k), xs.size());

  // k-means++ seeding.
  centroids_.clear();
  centroids_.push_back(xs[rng.Below(xs.size())]);
  std::vector<double> d2(xs.size());
  while (centroids_.size() < k) {
    double total = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centroids_) {
        const double d = EuclideanDistance(xs[i], c);
        best = std::min(best, d * d);
      }
      d2[i] = best;
      total += best;
    }
    if (total <= 0) {
      centroids_.push_back(xs[rng.Below(xs.size())]);
      continue;
    }
    double r = rng.Uniform() * total;
    size_t pick = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
      r -= d2[i];
      if (r <= 0) {
        pick = i;
        break;
      }
    }
    centroids_.push_back(xs[pick]);
  }

  labels_.assign(xs.size(), 0);
  for (int iter = 0; iter < params_.max_iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < xs.size(); ++i) {
      const int a = Assign(xs[i]);
      if (a != labels_[i]) {
        labels_[i] = a;
        changed = true;
      }
    }
    // Recompute centroids.
    std::vector<FloatVec> sums(centroids_.size(),
                               FloatVec(xs[0].size(), 0.f));
    std::vector<int> counts(centroids_.size(), 0);
    for (size_t i = 0; i < xs.size(); ++i) {
      AddInPlace(&sums[static_cast<size_t>(labels_[i])], xs[i]);
      counts[static_cast<size_t>(labels_[i])] += 1;
    }
    for (size_t c = 0; c < centroids_.size(); ++c) {
      if (counts[c] > 0) {
        ScaleInPlace(&sums[c], 1.0f / static_cast<float>(counts[c]));
        centroids_[c] = sums[c];
      }
    }
    if (!changed) break;
  }
}

int KMeans::Assign(const FloatVec& x) const {
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    const double d = EuclideanDistance(x, centroids_[c]);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace glint::ml
