#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/builder.h"
#include "graph/event_log.h"
#include "graph/interaction_graph.h"
#include "rules/rule.h"
#include "util/binio.h"
#include "util/status.h"

namespace glint::graph {

/// Incrementally maintained interaction graph of one deployment (the live
/// counterpart of GraphBuilder::BuildFromRules / BuildRealTime).
///
/// Instead of re-running the edge predicate over all O(n²) pairs and
/// re-embedding every rule on each inspection, LiveGraph keeps:
///   - one Node (features) per rule, computed once on AddRule;
///   - the pairwise semantic-correlation and shared-device matrices, where
///     adding or removing a rule touches only that rule's O(n) row/column;
///   - per-rule trigger/effect observation times, appended on OnEvent and
///     pruned in place by the sliding window (edge *liveness* is then a
///     cheap min/max comparison per semantically-correlated pair).
///
/// Determinism contract: MaterializeStatic() is bit-identical to
/// GraphBuilder::BuildFromRules over CurrentRules(), and
/// MaterializeRealTime(now) is bit-identical to GraphBuilder::BuildRealTime
/// over (CurrentRules(), the same event sequence, now) — same node order,
/// same edge insertion order, same labels — provided the edge predicate and
/// node factory are pure and `now` is monotonically non-decreasing across
/// OnEvent/Materialize calls (the serving regime).
class LiveGraph {
 public:
  struct Config {
    /// Chronological-pruning window (Sec. 3.2.2); must match the
    /// window_hours passed to BuildRealTime for equivalence.
    double window_hours = 3.0;
    /// Mirror of GraphBuilder::Config::device_edges.
    bool device_edges = true;
  };

  /// Builds a Node (features) for a rule; typically GraphBuilder::MakeNode.
  using NodeFactory = std::function<Node(const rules::Rule&)>;

  LiveGraph(Config config, EdgePredicate edge_pred, NodeFactory make_node);

  /// Adds a rule: embeds it once and evaluates its O(n) pair row/column
  /// against the existing rules. Returns the rule's node index.
  int AddRule(const rules::Rule& rule);

  /// Removes the first rule with this id (erasing its row/column from the
  /// pair matrices and its observation times). Returns false if absent.
  bool RemoveRule(int rule_id);

  /// Ingests `n` events in order: raises the watermark to the largest
  /// time among them, prunes observations that have slid out of every
  /// possible future window once, then inserts each event at or after the
  /// new horizon into the retained events and the matching rules'
  /// trigger/effect time lists (a sorted insert from the back: events
  /// must arrive approximately chronologically, and an event tied with a
  /// retained one goes after it). The state afterwards equals n single
  /// OnEvent calls: an event one of those calls would insert and a later
  /// one prune lies below the final horizon, and pruning drops a prefix,
  /// so it never reorders what stays. Pruning before inserting keeps
  /// retained_events() from growing past the window's contents.
  /// Event times must be finite (ServingEngine refuses the others).
  void OnEvents(const Event* events, size_t n);
  /// One event: OnEvents(&e, 1).
  void OnEvent(const Event& e) { OnEvents(&e, 1); }

  int num_rules() const { return static_cast<int>(entries_.size()); }

  /// The deployed rules in node order (the order a cold rebuild must use).
  std::vector<rules::Rule> CurrentRules() const;

  /// Overwrites *out with the per-rule identity hashes (content hash mixed
  /// with the rule id), in node order; sessions key their verdict/tensor
  /// caches on them without a fresh vector per Inspect.
  void IdentityHashesInto(std::vector<uint64_t>* out) const;

  /// Directed edges of the static graph, in BuildFromRules insertion order.
  std::vector<Edge> StaticEdges() const;

  /// Directed edges of the event-pruned graph at `now`, in BuildRealTime
  /// insertion order. Requires now >= the latest ingested event time.
  std::vector<Edge> RealTimeEdges(double now_hours) const;

  /// Assembles the full interaction graph (nodes + analyzer labels) from a
  /// previously computed edge list (StaticEdges / RealTimeEdges), saving
  /// the caller a recomputation when it already holds the edges.
  InteractionGraph Materialize(const std::vector<Edge>& edges) const;

  /// Full static interaction graph (nodes + edges + analyzer labels);
  /// bit-identical to GraphBuilder::BuildFromRules(CurrentRules()).
  InteractionGraph MaterializeStatic() const;

  /// Full real-time graph; bit-identical to BuildRealTime at `now`.
  InteractionGraph MaterializeRealTime(double now_hours) const;

  /// Latest event time ingested (0 if none).
  double latest_event_hours() const { return latest_; }

  /// Chronologically sorted events still inside the retained horizon —
  /// together with CurrentRules() and latest_event_hours(), the complete
  /// logical state of the graph (everything else is derived). Kept for the
  /// tests: they check window pruning and recovery with it.
  const std::vector<Event>& retained_events() const { return retained_; }

  /// Serializes the logical state (deployed rules in node order, retained
  /// events, watermark) — the serving snapshot payload of one home.
  void SerializeTo(util::ByteWriter* w) const;

  /// Rebuilds this graph from a SerializeTo payload by replaying AddRule /
  /// OnEvent, restoring state bit-identical to the serialized instance
  /// (same node order, same pair matrices, same observation times) given
  /// the same edge predicate and node factory. Requires an empty graph;
  /// returns InvalidArgument on a malformed payload.
  Status Restore(util::ByteReader* r);

 private:
  struct Entry {
    rules::Rule rule;
    Node node;
    uint64_t identity_hash = 0;
    /// Sorted observation times within the retained horizon.
    std::vector<double> trigger_times;
    std::vector<double> effect_times;
  };

  /// True when edge i -> j is alive at `now`: some effect of rule i was
  /// observed before (or at) some firing of rule j's trigger, both within
  /// [now - window, now].
  bool EdgeLive(size_t i, size_t j, double now_hours) const;

  /// Recomputes `entry`'s observation times from the retained events.
  void ReplayEvents(Entry* entry) const;

  /// Drops retained events and observation times older than
  /// latest - window (they can never re-enter a window once `now` has
  /// reached `latest`).
  void Prune();

  Config config_;
  EdgePredicate edge_pred_;
  NodeFactory make_node_;
  std::vector<Entry> entries_;
  /// sem_[i][j]: edge predicate verdict for the ordered pair (i, j).
  std::vector<std::vector<char>> sem_;
  /// share_[i][j]: symmetric shared-device relation.
  std::vector<std::vector<char>> share_;
  /// Chronologically sorted events within the retained horizon.
  std::vector<Event> retained_;
  double latest_ = 0;
};

}  // namespace glint::graph
