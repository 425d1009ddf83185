#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rules/rule.h"
#include "util/vecmath.h"

namespace glint::graph {

/// The ten interactive-threat types: six from prior work used as labeling
/// criteria (Sec. 4.2) and the four new types Glint discovered (Sec. 4.7).
enum class ThreatType {
  kNone = 0,
  // Classic (labeling criteria).
  kConditionBypass,
  kConditionBlock,
  kActionRevert,
  kActionConflict,
  kActionLoop,
  kGoalConflict,
  // New types surfaced via drifting samples.
  kActionBlock,
  kActionAblation,
  kTriggerIntake,
  kConditionDuplicate,
};
constexpr int kNumThreatTypes = 11;

const char* ThreatTypeName(ThreatType t);

/// A node: one automation rule with its semantic embedding. The embedding
/// dimension depends on the platform family — text platforms use the 300-d
/// word-vector space, voice platforms the 512-d sentence-encoder space —
/// which is what makes cross-platform graphs *heterogeneous*.
///
/// The embedding is immutable and shared: GraphBuilder::MakeNode makes one
/// vector per (type, text), and every node of that text (its memo entry,
/// live-graph entries, materialized and dataset graphs) points at it, so
/// copying a node copies a pointer, not the vector.
struct Node {
  rules::Rule rule;
  std::shared_ptr<const FloatVec> features;
  /// Node type for metapath learning: 0 = text-rule platforms (IFTTT,
  /// SmartThings, Home Assistant), 1 = voice platforms (Alexa, Google
  /// Assistant).
  int type = 0;
};

/// Node type of a platform (see Node::type).
int NodeTypeOf(rules::Platform p);

/// Directed edge: the source rule's action can trigger the destination rule
/// ("action-trigger" correlation).
struct Edge {
  int src = 0;
  int dst = 0;
};

/// An interaction graph: rules as nodes, trigger-action correlations as
/// directed edges. The ground-truth label and threat types are attached by
/// the ThreatAnalyzer during dataset construction.
class InteractionGraph {
 public:
  InteractionGraph() = default;

  /// Adds a node, returns its index.
  int AddNode(Node node);

  /// Adds a directed edge src -> dst (deduplicated).
  void AddEdge(int src, int dst);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  bool HasEdge(int src, int dst) const;

  /// True when node types are mixed (cross-platform graph).
  bool IsHeterogeneous() const;

  /// Ground-truth label: true = contains an interactive threat.
  bool vulnerable() const { return vulnerable_; }
  void set_vulnerable(bool v) { vulnerable_ = v; }

  /// Threat types present (set by the analyzer).
  const std::vector<ThreatType>& threat_types() const { return threat_types_; }
  void set_threat_types(std::vector<ThreatType> t) {
    threat_types_ = std::move(t);
  }

  /// Nodes flagged as threat culprits (for warnings / Fig. 3 display).
  const std::vector<int>& culprit_nodes() const { return culprits_; }
  void set_culprit_nodes(std::vector<int> c) { culprits_ = std::move(c); }

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> out_;
  bool vulnerable_ = false;
  std::vector<ThreatType> threat_types_;
  std::vector<int> culprits_;
};

/// A collection of interaction graphs (one platform or heterogeneous).
struct GraphDataset {
  std::vector<InteractionGraph> graphs;

  size_t size() const { return graphs.size(); }
  int CountVulnerable() const {
    int n = 0;
    for (const auto& g : graphs) n += g.vulnerable() ? 1 : 0;
    return n;
  }
};

}  // namespace glint::graph
