#pragma once

#include <functional>
#include <vector>

#include "ml/classifier.h"
#include "ml/metrics.h"

namespace glint::ml {

/// Index sets for one cross-validation fold.
struct Fold {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Shuffled k-fold split of `n` samples.
std::vector<Fold> KFoldSplit(size_t n, int k, Rng* rng);

/// Runs k-fold cross validation: for each fold, builds a fresh classifier
/// via `factory`, trains with balanced class weights, and evaluates.
/// Returns one Metrics per fold (the distribution behind Fig. 6's boxes).
std::vector<Metrics> CrossValidate(
    const Dataset& data, int k,
    const std::function<std::unique_ptr<Classifier>()>& factory, Rng* rng);

}  // namespace glint::ml
