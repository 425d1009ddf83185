#include "core/explain.h"

#include <algorithm>
#include <numeric>

#include "obs/obs.h"

namespace glint::core {
namespace {

/// Graphs up to this many nodes get the exact per-node occlusion scan; on
/// larger graphs each occlusion forward costs as much as classification
/// itself, so a gradient screen picks the candidates first.
constexpr int kExactOcclusionMax = 24;
/// Number of screened candidates refined with exact occlusion (the warning
/// surfaces 3 culprits; the extra slot absorbs screening-rank noise).
constexpr int kRefineCandidates = 4;

/// Threat margin of a (1 x 2) logit row.
double Margin(const float* logits) { return double(logits[1]) - logits[0]; }

double ThreatMargin(gnn::GraphModel* model, const gnn::GnnGraph& g) {
  gnn::ScopedTape tape;  // pooled tape: occlusion scans reuse one arena
  tape->set_freeze_leaves(true);  // inference only: skip grad bookkeeping
  auto r = model->Forward(tape.get(), g);
  return Margin(r.logits->value.data.data());
}

/// Margin drop when node v's feature row is zeroed (one full forward).
double OcclusionDrop(gnn::GraphModel* model, const gnn::GnnGraph& g,
                     double base, int v) {
  gnn::GnnGraph masked = g;
  const int type = g.node_types[static_cast<size_t>(v)];
  for (size_t k = 0; k < g.type_rows[type].size(); ++k) {
    if (g.type_rows[type][k] == v) {
      auto& m = masked.typed_features[type];
      for (int c = 0; c < m.cols; ++c) m.At(static_cast<int>(k), c) = 0.f;
    }
  }
  return base - ThreatMargin(model, masked);
}

void ShiftNormalize(std::vector<double>* importance) {
  const double lo = *std::min_element(importance->begin(), importance->end());
  const double hi = *std::max_element(importance->begin(), importance->end());
  const double range = hi - lo;
  for (auto& x : *importance) x = range > 1e-12 ? (x - lo) / range : 0.0;
}

}  // namespace

std::vector<double> ExplainNodes(gnn::GraphModel* model,
                                 const gnn::GnnGraph& g,
                                 const float* logits) {
  const size_t n = static_cast<size_t>(g.num_nodes);
  std::vector<double> importance(n, 0.0);

  GLINT_OBS_COUNT("glint.explain.runs", 1);
  if (g.num_nodes <= kExactOcclusionMax) {
    GLINT_OBS_TIMER(timer, "glint.explain.occlusion_ms");
    const double base =
        logits != nullptr ? Margin(logits) : ThreatMargin(model, g);
    for (int v = 0; v < g.num_nodes; ++v) {
      importance[static_cast<size_t>(v)] = OcclusionDrop(model, g, base, v);
    }
    ShiftNormalize(&importance);
    return importance;
  }

  // Stage 1 — gradient screen: one tracked forward/backward gives every
  // node's first-order occlusion estimate, grad(margin) . features. The
  // typed feature matrices enter the tape as the first tracked constants,
  // in ascending node-type order (all model families share this layout).
  double base = 0.0;
  {
    GLINT_OBS_TIMER(timer, "glint.explain.screen_ms");
    gnn::ScopedTape lease;  // pooled: nested safely inside detector tapes
    gnn::Tape& tape = *lease;
    tape.set_freeze_leaves(true);  // saliency needs input grads only
    tape.set_track_constants(true);
    auto r = model->Forward(&tape, g);
    tape.set_track_constants(false);
    gnn::Matrix dir(2, 1);
    dir.At(0, 0) = -1.f;
    dir.At(1, 0) = 1.f;
    gnn::Tensor* margin = MatMul(&tape, r.logits, tape.Constant(dir));
    tape.Backward(margin);
    base = margin->value.At(0, 0);

    size_t next_input = 0;
    const auto& inputs = tape.tracked_constants();
    for (int type = 0; type < gnn::kNumNodeTypes; ++type) {
      const auto& rows = g.type_rows[type];
      if (rows.empty()) continue;
      GLINT_CHECK(next_input < inputs.size());
      const gnn::Tensor* x = inputs[next_input++];
      GLINT_CHECK(x->value.rows == static_cast<int>(rows.size()));
      for (size_t k = 0; k < rows.size(); ++k) {
        double drop = 0.0;
        for (int c = 0; c < x->value.cols; ++c) {
          drop += double(x->grad.At(static_cast<int>(k), c)) *
                  x->value.At(static_cast<int>(k), c);
        }
        importance[static_cast<size_t>(rows[k])] = drop;
      }
    }
  }

  // Stage 2 — exact occlusion on the screened top candidates, so the
  // culprits shown in the warning carry true occlusion scores.
  {
    GLINT_OBS_TIMER(timer, "glint.explain.occlusion_ms");
    for (int v : TopCulprits(importance, kRefineCandidates)) {
      importance[static_cast<size_t>(v)] = OcclusionDrop(model, g, base, v);
    }
  }
  ShiftNormalize(&importance);
  return importance;
}

std::vector<int> TopCulprits(const std::vector<double>& importance, int k) {
  std::vector<int> order(importance.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return importance[static_cast<size_t>(a)] > importance[static_cast<size_t>(b)];
  });
  order.resize(std::min<size_t>(order.size(), static_cast<size_t>(k)));
  return order;
}

}  // namespace glint::core
