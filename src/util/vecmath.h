#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/status.h"

namespace glint {

/// Dense float vector helpers shared by the NLP embedding model and the
/// classic ML substrate. (The GNN stack has its own Tensor type; these are
/// for plain feature vectors.)

using FloatVec = std::vector<float>;

inline double Dot(const FloatVec& a, const FloatVec& b) {
  GLINT_CHECK(a.size() == b.size());
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += double(a[i]) * b[i];
  return s;
}

inline double Norm(const FloatVec& a) { return std::sqrt(Dot(a, a)); }

/// Cosine of the angle between a and b; 0 if either is zero. Kept for the
/// tests: the reference that nlp::DtwWordDistance's cost cells and the
/// embedding geometry are checked against.
inline double CosineSimilarity(const FloatVec& a, const FloatVec& b) {
  double na = Norm(a);
  double nb = Norm(b);
  if (na == 0 || nb == 0) return 0;
  return Dot(a, b) / (na * nb);
}

inline double EuclideanDistance(const FloatVec& a, const FloatVec& b) {
  GLINT_CHECK(a.size() == b.size());
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = double(a[i]) - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

inline void AddInPlace(FloatVec* a, const FloatVec& b) {
  GLINT_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += b[i];
}

inline void ScaleInPlace(FloatVec* a, float s) {
  for (float& x : *a) x *= s;
}

/// Mean of a set of equally sized vectors; returns an empty vector if the
/// input is empty.
inline FloatVec Mean(const std::vector<FloatVec>& vecs) {
  if (vecs.empty()) return {};
  FloatVec out(vecs[0].size(), 0.f);
  for (const auto& v : vecs) AddInPlace(&out, v);
  ScaleInPlace(&out, 1.0f / static_cast<float>(vecs.size()));
  return out;
}

/// Median of a copy of `v` (empty input -> 0).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    std::nth_element(v.begin(), v.begin() + mid - 1, v.end());
    m = 0.5 * (m + v[mid - 1]);
  }
  return m;
}

}  // namespace glint
