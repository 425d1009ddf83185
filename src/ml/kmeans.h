#pragma once

#include <vector>

#include "util/rng.h"
#include "util/vecmath.h"

namespace glint::ml {

/// Lloyd's K-means with k-means++ initialisation (used for the Fig. 9
/// cluster visualisation of contrastive graph embeddings).
class KMeans {
 public:
  struct Params {
    int k = 2;
    int max_iters = 100;
    uint64_t seed = 23;
  };

  KMeans() : KMeans(Params()) {}
  explicit KMeans(Params params) : params_(params) {}

  /// Clusters `xs`; afterwards centroids() and Assign() are valid.
  void Fit(const std::vector<FloatVec>& xs);

  /// Nearest-centroid assignment for one point.
  int Assign(const FloatVec& x) const;

  /// Assignments for the training data.
  const std::vector<int>& labels() const { return labels_; }

  const std::vector<FloatVec>& centroids() const { return centroids_; }

 private:
  Params params_;
  std::vector<FloatVec> centroids_;
  std::vector<int> labels_;
};

}  // namespace glint::ml
