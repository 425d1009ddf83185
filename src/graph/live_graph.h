#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/builder.h"
#include "graph/event_log.h"
#include "graph/interaction_graph.h"
#include "rules/rule.h"
#include "rules/rule_io.h"
#include "util/binio.h"

namespace glint::graph {

/// Incrementally maintained interaction graph of one deployment (the live
/// counterpart of GraphBuilder::BuildFromRules / BuildRealTime).
///
/// Instead of re-running the edge predicate over all O(n²) pairs and
/// re-embedding every rule on each inspection, LiveGraph keeps:
///   - one Node per rule, made once on AddRule: the deployed rule and its
///     features, which it shares with every other node of the same text;
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
  /// The node's rule must be the given rule, id included: it is the
  /// deployed rule the graph keeps, serializes and removes by id.
  using NodeFactory = std::function<Node(const rules::Rule&)>;

  /// The edge predicate over one rule's row: sets (*from)[i] to the verdict
  /// for the edge others[i] -> rule and (*to)[i] to the verdict for
  /// rule -> others[i], as EdgePredicate would give them; typically
  /// TrainedDetector::CorrelateRow.
  using RowPredicate = std::function<void(
      const rules::Rule& rule, const std::vector<const rules::Rule*>& others,
      std::vector<char>* from, std::vector<char>* to)>;

  LiveGraph(Config config, RowPredicate row_pred, NodeFactory make_node);

  /// A graph whose row predicate asks `edge_pred` pair by pair, in the
  /// order others[i] -> rule, then rule -> others[i]. Kept because
  /// perfbench's traced replay times each pair through it.
  LiveGraph(Config config, EdgePredicate edge_pred, NodeFactory make_node);

  /// Adds a rule: embeds it once and evaluates its O(n) pair row/column
  /// against the existing rules with one row-predicate call. Returns the
  /// rule's node index.
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

  /// The logical state (one home of a serving snapshot): everything else
  /// is derived from it, given the same edge predicate and node factory.
  struct State {
    std::vector<rules::Rule> rules;  ///< deployed rules, node order
    std::vector<Event> events;       ///< retained events, chronological
    double watermark = 0;            ///< latest_event_hours()
  };
  /// Smallest encoding of a State: two empty counts and the watermark.
  static constexpr size_t kMinStateBytes = 2 * sizeof(uint32_t) + 8;

  State SaveState() const;

  /// Rebuilds this graph from `state` by replaying AddRule / OnEvent,
  /// restoring state bit-identical to the saved instance (same node order,
  /// same pair matrices, same observation times). Requires an empty graph
  /// and finite times.
  void Restore(const State& state);

 private:
  struct Entry {
    Node node;  ///< node.rule is the deployed rule
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
  RowPredicate row_pred_;
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

/// The State's one field list (S is State, or const State to encode):
///   u32 n | n rules | u32 m | m events | f64 watermark
template <class IO, class S>
bool LiveStateFields(IO& io, S& s) {
  return io.List(s.rules, util::ListBound{"rule", rules::kMinRuleBytes},
                 [&io](auto& r) { return rules::RuleFields(io, r); }) &&
         io.List(s.events, util::ListBound{"event", kMinEventBytes},
                 [&io](auto& e) { return EventFields(io, e); }) &&
         io.F64(s.watermark);
}

}  // namespace glint::graph
