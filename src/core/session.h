#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "gnn/ggraph.h"
#include "graph/live_graph.h"

namespace glint::core {

/// Per-home mutable serving state: the online half of the Glint split.
///
/// A session owns a LiveGraph (incrementally maintained rules, pairwise
/// correlations, and event-window edge liveness) plus a verdict cache keyed
/// by the exact graph structure (rule identity hashes + directed edge
/// list), so a no-change Inspect skips straight to the previously computed
/// ThreatWarning. A verdict miss materializes and tensorizes afresh; the
/// tensorization is dropped once the verdict is recorded.
///
/// Determinism: TryInspect(now) is bit-identical to the cold pipeline
///   GraphBuilder::BuildRealTime(CurrentRules(), log, now) -> Analyze
/// under the same edge predicate, and InspectStatic() to
///   BuildFromRules(CurrentRules()) -> Analyze.
/// Cache keys are compared exactly, so hits can only return what the cold
/// path would recompute.
///
/// Thread model: a session is single-threaded, but any number of sessions
/// may run concurrently over one shared (const) TrainedDetector.
class DeploymentSession {
 public:
  struct Config {
    /// Sliding event window (Sec. 3.2.2 chronological pruning); matches the
    /// BuildRealTime default.
    double window_hours = 3.0;
    /// Entries kept in the verdict cache.
    size_t cache_capacity = 4;
  };

  explicit DeploymentSession(const TrainedDetector* detector)
      : DeploymentSession(detector, Config()) {}
  DeploymentSession(const TrainedDetector* detector, Config config);

  /// Deploys a rule (O(n) incremental pair-row update). Returns its node
  /// index.
  int AddRule(const rules::Rule& rule);

  /// Retires the rule with this id. Returns false if absent.
  bool RemoveRule(int rule_id);

  /// Ingests `n` event-log records in order with one LiveGraph::OnEvents
  /// (one prune for the lot).
  void OnEvents(const graph::Event* events, size_t n);
  /// Ingests one event-log record: OnEvents(&e, 1).
  void OnEvent(const graph::Event& e) { OnEvents(&e, 1); }

  /// Split inspection for batched serving. BeginInspect runs everything up
  /// to (but excluding) the model analysis: counters, cache-key build,
  /// verdict-cache lookup, and on a miss the materialize + tensorize steps.
  /// The caller then analyzes `gg`/`graph` (alone or inside a batch) and
  /// hands the warning to FinishInspect, which records it in the verdict
  /// cache and returns it. Contract: no session mutation (AddRule /
  /// RemoveRule / OnEvent / TryInspect) may happen between the two calls, and
  /// every uncached BeginInspect must be finished before the next begins —
  /// the pair shares the session's key scratch.
  /// TryInspect(now) == FinishInspect(Analyze(...BeginInspect(now)...)) by
  /// construction, so batched callers inherit the determinism contract.
  struct Pending {
    bool cached = false;       ///< verdict served straight from the cache
    ThreatWarning warning;     ///< valid when `cached`
    graph::InteractionGraph graph;            ///< materialized (uncached)
    std::unique_ptr<const gnn::GnnGraph> gg;  ///< its tensorization (uncached)
  };
  Pending BeginInspect(double now_hours);
  ThreatWarning FinishInspect(const ThreatWarning& warning);

  /// Initial-setup inspection over the static (unpruned) graph.
  ThreatWarning InspectStatic();

  /// Online inspection at time `now` (steps 4-6 of Fig. 2) over the
  /// event-pruned live graph. InvalidArgument (instead of the
  /// RealTimeEdges monotonicity CHECK) when `now` is not finite or
  /// precedes the latest ingested event, so no caller-supplied time can
  /// abort the process.
  Result<ThreatWarning> TryInspect(double now_hours);

  /// Degraded-mode inspection (fleet overload path, DESIGN.md §16):
  /// verdict-cache hits answer at full fidelity; misses run the pipeline
  /// WITHOUT the occlusion explainer (no culprits) and WITHOUT recording
  /// the verdict — a culprit-less warning in the cache would poison later
  /// healthy inspects. The threat verdict + confidence are bit-identical
  /// to the healthy path; only attribution is shed. `now` is validated as
  /// in TryInspect.
  Result<ThreatWarning> TryInspectDegraded(double now_hours);

  /// Rebuilds a fresh session from live().SaveState(). Inspect output is
  /// then bit-identical to the saved session's (caches start cold, but
  /// they are exact-key and cannot change verdicts).
  void Restore(const graph::LiveGraph::State& state) { live_.Restore(state); }

  int num_rules() const { return live_.num_rules(); }
  std::vector<rules::Rule> CurrentRules() const {
    return live_.CurrentRules();
  }
  const graph::LiveGraph& live() const { return live_; }
  const TrainedDetector& detector() const { return *detector_; }

  // Cache observability (bench / test instrumentation).
  size_t verdict_hits() const { return verdict_hits_; }

  /// Per-home counter snapshot (the per-session half of glint::obs: these
  /// are plain members, not registry instruments, so one home's activity is
  /// attributable even when many sessions share the process registry).
  struct CacheStats {
    uint64_t inspects = 0;
    uint64_t events = 0;
    uint64_t rules = 0;
    uint64_t verdict_hits = 0;
    uint64_t verdict_misses = 0;
    /// There is no tensorization cache: tensor_hits is always 0, and
    /// tensor_misses counts tensorizations, one per uncached BeginInspect
    /// (so it equals verdict_misses). Both stay only because perfbench's
    /// traced replay reads them for its session.tensor_hit_ratio; they go
    /// with that metric (ROADMAP, perfbench debt).
    uint64_t tensor_hits = 0;
    uint64_t tensor_misses = 0;

    CacheStats& operator+=(const CacheStats& o) {
      inspects += o.inspects;
      events += o.events;
      rules += o.rules;
      verdict_hits += o.verdict_hits;
      verdict_misses += o.verdict_misses;
      tensor_hits += o.tensor_hits;
      tensor_misses += o.tensor_misses;
      return *this;
    }
  };
  CacheStats Stats() const;

 private:
  /// The untrusted-time guard of TryInspect and TryInspectDegraded.
  Status CheckInspectTime(double now_hours) const;

  /// Shared tail of TryInspect / InspectStatic: cache lookups, then the
  /// materialize -> tensorize -> analyze pipeline on miss. Composed from
  /// Begin + Analyze + FinishInspect so the batched path is the same code.
  ThreatWarning Render(const std::vector<graph::Edge>& edges);

  /// Edge-list flavour of BeginInspect (shared by TryInspect /
  /// InspectStatic).
  Pending Begin(const std::vector<graph::Edge>& edges);

  /// Verdict-cache key: the exact graph structure, compared exactly, so a
  /// hit always describes the same graph (no hash-collision risk).
  struct Key {
    /// Rule identity hashes in node order (LiveGraph::IdentityHashesInto).
    std::vector<uint64_t> node_ids;
    std::vector<std::pair<int, int>> edges;
    bool operator==(const Key& o) const = default;
  };
  struct Verdict {
    Key key;
    ThreatWarning warning;
    uint64_t tick = 0;
  };

  const TrainedDetector* detector_;
  Config config_;
  graph::LiveGraph live_;
  /// Cache-key scratch reused across Render calls: a warm no-change Inspect
  /// rebuilds the key into retained storage instead of allocating one.
  Key key_scratch_;
  std::vector<Verdict> verdicts_;
  uint64_t tick_ = 0;
  size_t inspects_ = 0;
  size_t verdict_hits_ = 0;
  size_t events_ = 0;
};

}  // namespace glint::core
