#include "gnn/drift.h"

#include <cmath>

#include "obs/obs.h"

namespace glint::gnn {

void DriftDetector::Fit(const std::vector<FloatVec>& embeddings,
                        const std::vector<int>& labels) {
  GLINT_CHECK(embeddings.size() == labels.size());
  GLINT_CHECK(!embeddings.empty());
  constexpr int kClasses = 2;
  centroids_.assign(kClasses, FloatVec(embeddings[0].size(), 0.f));
  std::vector<int> counts(kClasses, 0);
  for (size_t i = 0; i < embeddings.size(); ++i) {
    AddInPlace(&centroids_[static_cast<size_t>(labels[i])], embeddings[i]);
    counts[static_cast<size_t>(labels[i])] += 1;
  }
  for (int c = 0; c < kClasses; ++c) {
    if (counts[static_cast<size_t>(c)] > 0) {
      ScaleInPlace(&centroids_[static_cast<size_t>(c)],
                   1.0f / static_cast<float>(counts[static_cast<size_t>(c)]));
    }
  }
  // Per-class distances to the centroid; median + MAD (lines 5-9).
  median_dist_.assign(kClasses, 0.0);
  mad_.assign(kClasses, 1.0);
  for (int c = 0; c < kClasses; ++c) {
    std::vector<double> dists;
    for (size_t i = 0; i < embeddings.size(); ++i) {
      if (labels[i] == c) {
        dists.push_back(
            EuclideanDistance(embeddings[i], centroids_[static_cast<size_t>(c)]));
      }
    }
    if (dists.empty()) continue;
    median_dist_[static_cast<size_t>(c)] = Median(dists);
    std::vector<double> dev;
    dev.reserve(dists.size());
    for (double d : dists) {
      dev.push_back(std::fabs(d - median_dist_[static_cast<size_t>(c)]));
    }
    // Floor the MAD at a fraction of the median distance: contrastive
    // training can collapse a class into a near-degenerate shell whose raw
    // MAD would flag everything as drifting (Alg. 3 assumes a healthy
    // spread, as CADE does).
    const double mad = Median(dev);
    const double floor =
        std::max(1e-9, 0.15 * median_dist_[static_cast<size_t>(c)]);
    mad_[static_cast<size_t>(c)] = std::max(mad, floor);
  }
}

double DriftDetector::DriftingDegree(const FloatVec& embedding) const {
  GLINT_CHECK(!centroids_.empty());
  GLINT_OBS_COUNT("glint.drift.checks", 1);
  GLINT_OBS_TIMER(timer, "glint.drift.degree_ms");
  double best = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    const double d = EuclideanDistance(embedding, centroids_[c]);
    const double a = std::fabs(d - median_dist_[c]) / mad_[c];
    best = std::min(best, a);
  }
  return best;
}

void DriftDetector::FitFromModel(GraphModel* model,
                                 const std::vector<GnnGraph>& train) {
  std::vector<FloatVec> embeddings = Trainer::EmbedAll(model, train);
  std::vector<int> labels;
  labels.reserve(train.size());
  for (const auto& g : train) labels.push_back(g.label);
  Fit(embeddings, labels);
}

void DriftDetector::SerializeTo(util::ByteWriter* w) const {
  w->U32(static_cast<uint32_t>(centroids_.size()));
  for (size_t c = 0; c < centroids_.size(); ++c) {
    w->U32(static_cast<uint32_t>(centroids_[c].size()));
    w->Raw(centroids_[c].data(), sizeof(float) * centroids_[c].size());
    w->F64(median_dist_[c]);
    w->F64(mad_[c]);
  }
}

bool DriftDetector::RestoreFrom(util::ByteReader* r) {
  uint32_t classes = 0;
  if (!r->U32(&classes) || classes == 0 || classes > 16) return false;
  std::vector<FloatVec> centroids(classes);
  std::vector<double> median(classes, 0.0);
  std::vector<double> mad(classes, 1.0);
  for (uint32_t c = 0; c < classes; ++c) {
    uint32_t dim = 0;
    // Cap the embedding dimension so a corrupt length field cannot drive a
    // multi-gigabyte allocation before the payload runs out.
    if (!r->U32(&dim) || dim == 0 || dim > (1u << 24)) return false;
    centroids[c].resize(dim);
    if (!r->Raw(centroids[c].data(), sizeof(float) * dim)) return false;
    if (!r->F64(&median[c]) || !r->F64(&mad[c])) return false;
    if (!(mad[c] > 0.0)) return false;  // division guard (also rejects NaN)
  }
  centroids_ = std::move(centroids);
  median_dist_ = std::move(median);
  mad_ = std::move(mad);
  return true;
}

}  // namespace glint::gnn
