#include "ml/kfold.h"

#include "util/status.h"

namespace glint::ml {

std::vector<Fold> KFoldSplit(size_t n, int k, Rng* rng) {
  GLINT_CHECK(k >= 2);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  rng->Shuffle(&idx);

  std::vector<Fold> folds(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    folds[i % static_cast<size_t>(k)].test.push_back(idx[i]);
  }
  for (int f = 0; f < k; ++f) {
    for (int g = 0; g < k; ++g) {
      if (g == f) continue;
      auto& tr = folds[static_cast<size_t>(f)].train;
      const auto& te = folds[static_cast<size_t>(g)].test;
      tr.insert(tr.end(), te.begin(), te.end());
    }
  }
  return folds;
}

std::vector<Metrics> CrossValidate(
    const Dataset& data, int k,
    const std::function<std::unique_ptr<Classifier>()>& factory, Rng* rng) {
  auto folds = KFoldSplit(data.size(), k, rng);
  std::vector<Metrics> out;
  out.reserve(folds.size());
  for (const auto& fold : folds) {
    Dataset train = data.Select(fold.train);
    Dataset test = data.Select(fold.test);
    auto clf = factory();
    clf->Fit(train, BalancedClassWeights(train.y, train.NumClasses()));
    out.push_back(BinaryMetrics(test.y, clf->PredictBatch(test.x)));
  }
  return out;
}

}  // namespace glint::ml
