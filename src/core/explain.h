#pragma once

#include <vector>

#include "gnn/models.h"
#include "graph/interaction_graph.h"

namespace glint::core {

/// Occlusion-based GNN explanation (the PGExplainer/SubgraphX stand-in used
/// to highlight culprit rules in warnings, Sec. 3.1): each node's
/// importance is the drop in the threat logit-margin when the node's
/// features are zeroed out. Small graphs get the exact per-node occlusion
/// scan; larger ones use a two-stage scheme — an input-gradient screen
/// (one forward/backward, first-order occlusion estimate for every node)
/// followed by exact occlusion on the screened top candidates — so the
/// serving-path cost stays O(1) forwards instead of O(n). Scores are
/// normalized to [0, 1].
///
/// `logits`, when given, points at the model's two classification logits
/// for `g` from a forward the caller already ran (its row of the detector's
/// analysis forward, whose bits do not depend on the batch). The exact
/// scan takes its base margin from them instead of repeating that forward;
/// without them it runs the forward itself. The screen path always runs its
/// own tracked forward, since it needs input gradients.
std::vector<double> ExplainNodes(gnn::GraphModel* model,
                                 const gnn::GnnGraph& g,
                                 const float* logits = nullptr);

/// Indices of the top-k most important nodes.
std::vector<int> TopCulprits(const std::vector<double>& importance, int k);

}  // namespace glint::core
