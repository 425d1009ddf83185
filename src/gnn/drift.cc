#include "gnn/drift.h"

#include <cmath>

#include "obs/obs.h"

namespace glint::gnn {

void DriftDetector::Fit(const std::vector<FloatVec>& embeddings,
                        const std::vector<int>& labels) {
  GLINT_CHECK(embeddings.size() == labels.size());
  GLINT_CHECK(!embeddings.empty());
  constexpr int kClasses = 2;
  classes_.assign(kClasses, ClassStats{FloatVec(embeddings[0].size(), 0.f)});
  std::vector<int> counts(kClasses, 0);
  for (size_t i = 0; i < embeddings.size(); ++i) {
    AddInPlace(&classes_[static_cast<size_t>(labels[i])].centroid,
               embeddings[i]);
    counts[static_cast<size_t>(labels[i])] += 1;
  }
  // Per-class distances to the centroid; median + MAD (lines 5-9).
  for (int c = 0; c < kClasses; ++c) {
    ClassStats& cls = classes_[static_cast<size_t>(c)];
    if (counts[static_cast<size_t>(c)] > 0) {
      ScaleInPlace(&cls.centroid,
                   1.0f / static_cast<float>(counts[static_cast<size_t>(c)]));
    }
    std::vector<double> dists;
    for (size_t i = 0; i < embeddings.size(); ++i) {
      if (labels[i] == c) {
        dists.push_back(EuclideanDistance(embeddings[i], cls.centroid));
      }
    }
    if (dists.empty()) continue;
    cls.median_dist = Median(dists);
    std::vector<double> dev;
    dev.reserve(dists.size());
    for (double d : dists) dev.push_back(std::fabs(d - cls.median_dist));
    // Floor the MAD at a fraction of the median distance: contrastive
    // training can collapse a class into a near-degenerate shell whose raw
    // MAD would flag everything as drifting (Alg. 3 assumes a healthy
    // spread, as CADE does).
    cls.mad = std::max(Median(dev), std::max(1e-9, 0.15 * cls.median_dist));
  }
}

double DriftDetector::DriftingDegree(const FloatVec& embedding) const {
  GLINT_CHECK(!classes_.empty());
  GLINT_OBS_COUNT("glint.drift.checks", 1);
  GLINT_OBS_TIMER(timer, "glint.drift.degree_ms");
  double best = std::numeric_limits<double>::infinity();
  for (const ClassStats& cls : classes_) {
    const double d = EuclideanDistance(embedding, cls.centroid);
    best = std::min(best, std::fabs(d - cls.median_dist) / cls.mad);
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

namespace {

/// The statistics' one field list. The class count and the centroid
/// dimension are capped, so a corrupt count cannot drive a large
/// allocation even within a large file.
template <class IO, class Classes>
bool DriftFields(IO& io, Classes& classes) {
  auto component = [&io](auto& x) { return io.F32(x); };
  return io.List(
      classes, util::ListBound{"class", 6 * sizeof(uint32_t), true, 16},
      [&](auto& c) {
        return io.List(c.centroid,
                       util::ListBound{"centroid component", sizeof(float),
                                       true, 1u << 24},
                       component) &&
               io.F64(c.median_dist) && io.F64(c.mad);
      });
}

}  // namespace

void DriftDetector::SerializeTo(util::ByteWriter* w) const {
  util::LayoutWriter io(w);
  DriftFields(io, classes_);
}

bool DriftDetector::RestoreFrom(util::ByteReader* r) {
  util::LayoutReader io(r);
  std::vector<ClassStats> classes;
  if (!DriftFields(io, classes)) return false;
  for (const ClassStats& c : classes) {
    if (!(c.mad > 0.0)) return false;  // division guard (also rejects NaN)
  }
  classes_ = std::move(classes);
  return true;
}

}  // namespace glint::gnn
