#pragma once

#include "ml/classifier.h"
#include "ml/scaler.h"

namespace glint::ml {

/// Multi-layer perceptron with ReLU hidden layers and a softmax output,
/// trained with mini-batch Adam on class-weighted cross-entropy. Backprop
/// is hand-rolled for the fixed feedforward topology.
class Mlp : public Classifier {
 public:
  struct Params {
    std::vector<size_t> hidden = {64, 32};
    int epochs = 80;
    int batch_size = 32;
    double lr = 1e-3;
    double weight_decay = 1e-5;
    uint64_t seed = 11;
  };

  Mlp() : Mlp(Params()) {}
  explicit Mlp(Params params) : params_(std::move(params)) {}

  void Fit(const Dataset& data, const std::vector<double>& class_weights) override;
  int Predict(const FloatVec& x) const override;
  double PredictProba(const FloatVec& x) const override;
  std::string Name() const override { return "MLP"; }

  /// Class probability vector for one sample.
  std::vector<double> Probabilities(const FloatVec& x) const;

 private:
  struct Layer {
    // Row-major [out][in] weights and biases with Adam moments.
    std::vector<FloatVec> w;
    FloatVec b;
    std::vector<FloatVec> mw, vw;
    FloatVec mb, vb;
    // [in][out] copy of w, widened to double, that Forward reads: it
    // accumulates every output at once, one input at a time, so each
    // output's sum keeps the row-major loop's order. Rewritten whenever w
    // changes.
    std::vector<double> wt;
  };

  /// Rewrites layer->wt from layer->w.
  static void Transpose(Layer* layer);

  std::vector<double> Forward(const FloatVec& x,
                              std::vector<FloatVec>* activations) const;

  Params params_;
  StandardScaler scaler_;
  std::vector<Layer> layers_;
  int num_classes_ = 2;
};

}  // namespace glint::ml
