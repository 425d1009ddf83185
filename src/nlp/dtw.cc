#include "nlp/dtw.h"

#include <algorithm>
#include <limits>

namespace glint::nlp {

double DtwDistance(const std::vector<double>& cost, size_t n, size_t m,
                   double gap_cost) {
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return gap_cost * static_cast<double>(n + m);
  GLINT_CHECK(cost.size() == n * m);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // d[i * w + j]: the best cost aligning a[0, i) with b[0, j).
  const size_t w = m + 1;
  std::vector<double> d((n + 1) * w, kInf);
  d[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      double best = std::min(
          {d[(i - 1) * w + j], d[i * w + j - 1], d[(i - 1) * w + j - 1]});
      d[i * w + j] = cost[(i - 1) * m + j - 1] + best;
    }
  }
  return d[n * w + m];
}

namespace {

/// out[k] = Dot(*a[k], *b[k]) for k in [0, n), bit for bit. Four pairs share
/// each pass over the dimensions, so four independent sequential sums run
/// side by side instead of one after another.
void Dots(const FloatVec* const* a, const FloatVec* const* b, size_t n,
          double* out) {
  for (size_t k = 0; k < n; k += 4) {
    if (k + 1 == n) {
      out[k] = Dot(*a[k], *b[k]);
      return;
    }
    // A short last group repeats its first pair in the spare chains.
    const FloatVec* x[4];
    const FloatVec* y[4];
    for (size_t c = 0; c < 4; ++c) {
      const size_t at = k + c < n ? k + c : k;
      x[c] = a[at];
      y[c] = b[at];
      GLINT_CHECK(x[c]->size() == y[c]->size() &&
                  x[c]->size() == x[0]->size());
    }
    const float *x0 = x[0]->data(), *x1 = x[1]->data(), *x2 = x[2]->data(),
                *x3 = x[3]->data();
    const float *y0 = y[0]->data(), *y1 = y[1]->data(), *y2 = y[2]->data(),
                *y3 = y[3]->data();
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (size_t d = 0; d < x[0]->size(); ++d) {
      s0 += double(x0[d]) * y0[d];
      s1 += double(x1[d]) * y1[d];
      s2 += double(x2[d]) * y2[d];
      s3 += double(x3[d]) * y3[d];
    }
    const double s[4] = {s0, s1, s2, s3};
    for (size_t c = 0; c < 4 && k + c < n; ++c) out[k + c] = s[c];
  }
}

}  // namespace

WordSequence PrepareWords(const std::vector<std::string>& words,
                          const EmbeddingModel& model) {
  WordSequence seq;
  seq.vectors.reserve(words.size());
  seq.norms.reserve(words.size());
  for (const std::string& w : words) {
    const EmbeddingModel::Word& entry = model.WordEntry(w);
    seq.vectors.push_back(&entry.vector);
    seq.norms.push_back(entry.norm);
  }
  return seq;
}

double DtwWordDistance(const WordSequence& a, const WordSequence& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return 1.0;
  std::vector<const FloatVec*> xs, ys;
  xs.reserve(n * m);
  ys.reserve(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      xs.push_back(a.vectors[i]);
      ys.push_back(b.vectors[j]);
    }
  }
  std::vector<double> cost(n * m);
  Dots(xs.data(), ys.data(), n * m, cost.data());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      // CosineSimilarity's arithmetic: zero when either norm is zero.
      const double na = a.norms[i];
      const double nb = b.norms[j];
      double& c = cost[i * m + j];
      c = 1.0 - (na == 0 || nb == 0 ? 0 : c / (na * nb));
    }
  }
  // Normalise by the longest path length to keep the value in ~[0, 2].
  double path_len = static_cast<double>(std::max(n, m));
  return DtwDistance(cost, n, m) / path_len;
}

}  // namespace glint::nlp
