#include "graph/interaction_graph.h"

#include "util/status.h"

namespace glint::graph {

const char* ThreatTypeName(ThreatType t) {
  switch (t) {
    case ThreatType::kNone: return "none";
    case ThreatType::kConditionBypass: return "condition_bypass";
    case ThreatType::kConditionBlock: return "condition_block";
    case ThreatType::kActionRevert: return "action_revert";
    case ThreatType::kActionConflict: return "action_conflict";
    case ThreatType::kActionLoop: return "action_loop";
    case ThreatType::kGoalConflict: return "goal_conflict";
    case ThreatType::kActionBlock: return "action_block";
    case ThreatType::kActionAblation: return "action_ablation";
    case ThreatType::kTriggerIntake: return "trigger_intake";
    case ThreatType::kConditionDuplicate: return "condition_duplicate";
  }
  return "?";
}

int NodeTypeOf(rules::Platform p) {
  switch (p) {
    case rules::Platform::kAlexa:
    case rules::Platform::kGoogleAssistant:
      return 1;  // voice platforms -> sentence-encoder feature space
    default:
      return 0;  // text platforms -> word-vector feature space
  }
}

int InteractionGraph::AddNode(Node node) {
  nodes_.push_back(std::move(node));
  out_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

void InteractionGraph::AddEdge(int src, int dst) {
  GLINT_CHECK(src >= 0 && src < num_nodes());
  GLINT_CHECK(dst >= 0 && dst < num_nodes());
  if (HasEdge(src, dst)) return;
  edges_.push_back({src, dst});
  out_[static_cast<size_t>(src)].push_back(dst);
}

bool InteractionGraph::HasEdge(int src, int dst) const {
  for (int n : out_[static_cast<size_t>(src)]) {
    if (n == dst) return true;
  }
  return false;
}

bool InteractionGraph::IsHeterogeneous() const {
  if (nodes_.empty()) return false;
  const int t0 = nodes_[0].type;
  for (const auto& n : nodes_) {
    if (n.type != t0) return true;
  }
  return false;
}

}  // namespace glint::graph
