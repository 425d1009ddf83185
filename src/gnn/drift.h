#pragma once

#include <vector>

#include "gnn/trainer.h"
#include "util/binio.h"

namespace glint::gnn {

/// Algorithm 3 — Drifting Interaction Pattern Detection.
///
/// Fits class centroids and MAD statistics in the contrastive latent space
/// of a trained ITGNN-C model, then scores test samples by their minimal
/// normalized deviation across classes; samples beyond T_MAD = 3 are
/// drifting (new/evolved threat patterns outside the training
/// distribution).
class DriftDetector {
 public:
  struct Params {
    double t_mad = 3.0;  ///< empirical threshold from the paper
  };

  DriftDetector() : DriftDetector(Params()) {}
  explicit DriftDetector(Params p) : params_(p) {}

  /// Fits centroids and MADs from labeled training embeddings
  /// (lines 1-9 of Algorithm 3).
  void Fit(const std::vector<FloatVec>& embeddings,
           const std::vector<int>& labels);

  /// Drifting degree A^(m) = min_i |d_i - median_i| / MAD_i
  /// (lines 10-16).
  double DriftingDegree(const FloatVec& embedding) const;

  /// True when the sample exceeds T_MAD for every class.
  bool IsDrifting(const FloatVec& embedding) const {
    return DriftingDegree(embedding) > params_.t_mad;
  }

  /// Convenience: fit from a trained model and labeled graphs.
  void FitFromModel(GraphModel* model, const std::vector<GnnGraph>& train);

  /// Appends the fitted statistics (centroids, medians, MADs) to `w` in the
  /// layout RestoreFrom reads back. The t_mad threshold is configuration,
  /// not fitted state, and is not serialized.
  void SerializeTo(util::ByteWriter* w) const;

  /// Restores statistics written by SerializeTo. Returns false on a
  /// truncated or structurally invalid payload, leaving the detector
  /// unchanged.
  bool RestoreFrom(util::ByteReader* r);

  /// True once Fit/FitFromModel/RestoreFrom has populated the statistics.
  bool fitted() const { return !centroids_.empty(); }

  const FloatVec& centroid(int cls) const { return centroids_[static_cast<size_t>(cls)]; }

 private:
  Params params_;
  std::vector<FloatVec> centroids_;      ///< per-class mean embedding
  std::vector<double> median_dist_;      ///< per-class median distance
  std::vector<double> mad_;              ///< per-class MAD
};

}  // namespace glint::gnn
