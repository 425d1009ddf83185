#include "ml/knn.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace glint::ml {
namespace {

/// Features one Votes pass over the points adds.
constexpr size_t kFeatureBlock = 4;

/// For c in [0, nf) in order: acc[p] += (q[c] - cols[c * n + p])^2 for every
/// point p in [0, n), each term widened to double as EuclideanDistance
/// widens it. A point's running sum stays in a register across the nf
/// features, and the SSE2 body runs two points side by side, each with the
/// plain loop's subtract, multiply and add.
void AddSquaredDiffs(double* acc, const float* cols, size_t n,
                     const double* q, size_t nf) {
  size_t p = 0;
#if defined(__SSE2__)
  for (; p + 2 <= n; p += 2) {
    __m128d a = _mm_loadu_pd(acc + p);
    for (size_t c = 0; c < nf; ++c) {
      const __m128d t = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(cols + c * n + p))));
      const __m128d d = _mm_sub_pd(_mm_set1_pd(q[c]), t);
      a = _mm_add_pd(a, _mm_mul_pd(d, d));
    }
    _mm_storeu_pd(acc + p, a);
  }
#endif
  for (; p < n; ++p) {
    double a = acc[p];
    for (size_t c = 0; c < nf; ++c) {
      const double d = q[c] - cols[c * n + p];
      a += d * d;
    }
    acc[p] = a;
  }
}

}  // namespace

void Knn::Fit(const Dataset& data, const std::vector<double>& class_weights) {
  GLINT_CHECK(data.size() > 0);
  scaler_.Fit(data.x);
  const size_t n = data.size();
  const size_t dim = data.dim();
  train_x_.assign(dim * n, 0.f);
  for (size_t p = 0; p < n; ++p) {
    const FloatVec row = scaler_.Transform(data.x[p]);
    for (size_t f = 0; f < dim; ++f) train_x_[f * n + p] = row[f];
  }
  train_y_ = data.y;
  class_weights_ = class_weights;
  num_classes_ = std::max(2, data.NumClasses());
}

std::vector<double> Knn::Votes(const FloatVec& x) const {
  const FloatVec qf = scaler_.Transform(x);
  const std::vector<double> q(qf.begin(), qf.end());
  const size_t n = train_y_.size();
  std::vector<double> sq(n, 0.0);
  for (size_t f = 0; f < q.size(); f += kFeatureBlock) {
    AddSquaredDiffs(sq.data(), &train_x_[f * n], n, &q[f],
                    std::min(kFeatureBlock, q.size() - f));
  }
  // Partial selection of the k nearest.
  std::vector<std::pair<double, int>> dists;
  dists.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    dists.emplace_back(std::sqrt(sq[p]), train_y_[p]);
  }
  const size_t k = std::min<size_t>(static_cast<size_t>(params_.k), dists.size());
  std::partial_sort(dists.begin(), dists.begin() + static_cast<long>(k),
                    dists.end());
  std::vector<double> votes(static_cast<size_t>(num_classes_), 0.0);
  for (size_t i = 0; i < k; ++i) {
    double w = params_.distance_weighted ? 1.0 / (dists[i].first + 1e-6) : 1.0;
    if (!class_weights_.empty()) {
      w *= class_weights_[static_cast<size_t>(dists[i].second)];
    }
    votes[static_cast<size_t>(dists[i].second)] += w;
  }
  return votes;
}

int Knn::Predict(const FloatVec& x) const {
  auto votes = Votes(x);
  int best = 0;
  for (size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

double Knn::PredictProba(const FloatVec& x) const {
  auto votes = Votes(x);
  double total = 0;
  for (double v : votes) total += v;
  return total > 0 && votes.size() > 1 ? votes[1] / total : 0.0;
}

}  // namespace glint::ml
