#pragma once

#include "ml/classifier.h"
#include "ml/scaler.h"

namespace glint::ml {

/// K-nearest-neighbours classifier (brute force, Euclidean distance on
/// standardized features, distance-weighted class-weighted voting).
class Knn : public Classifier {
 public:
  struct Params {
    int k = 5;
    bool distance_weighted = true;
  };

  Knn() : Knn(Params()) {}
  explicit Knn(Params params) : params_(params) {}

  void Fit(const Dataset& data, const std::vector<double>& class_weights) override;
  int Predict(const FloatVec& x) const override;
  double PredictProba(const FloatVec& x) const override;
  std::string Name() const override { return "KNN"; }

 private:
  std::vector<double> Votes(const FloatVec& x) const;

  Params params_;
  StandardScaler scaler_;
  /// The standardized training set, feature-major: feature f of point p is
  /// train_x_[f * train_y_.size() + p]. Votes accumulates every point's
  /// squared distance at once, one feature at a time, so each point's sum
  /// keeps EuclideanDistance's ascending-feature order.
  FloatVec train_x_;
  std::vector<int> train_y_;
  std::vector<double> class_weights_;
  int num_classes_ = 2;
};

}  // namespace glint::ml
