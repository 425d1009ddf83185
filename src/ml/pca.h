#pragma once

#include <vector>

#include "util/vecmath.h"

namespace glint::ml {

/// Principal component analysis via orthogonally-deflated power iteration
/// on the covariance matrix (sufficient for the small k used by Fig. 9's
/// 2-d projection of graph embeddings).
class Pca {
 public:
  struct Params {
    int num_components = 2;
    int power_iters = 200;
    uint64_t seed = 29;
  };

  Pca() : Pca(Params()) {}
  explicit Pca(Params params) : params_(params) {}

  /// Fits on `xs` (any dimension); stores mean and components.
  void Fit(const std::vector<FloatVec>& xs);

  /// Projects one vector into component space.
  FloatVec Transform(const FloatVec& x) const;

  /// Projects a batch.
  std::vector<FloatVec> TransformBatch(const std::vector<FloatVec>& xs) const;

  /// Variance captured by each component.
  const std::vector<double>& explained_variance() const { return variance_; }

  /// Kept for the tests: they check the components are orthonormal.
  const std::vector<FloatVec>& components() const { return components_; }

 private:
  Params params_;
  FloatVec mean_;
  std::vector<FloatVec> components_;
  std::vector<double> variance_;
};

}  // namespace glint::ml
