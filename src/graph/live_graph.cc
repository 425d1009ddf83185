#include "graph/live_graph.h"

#include <algorithm>
#include <cstddef>

#include "graph/threat_analyzer.h"
#include "obs/obs.h"
#include "util/status.h"

namespace glint::graph {

namespace {

// Identity of one deployed rule: semantic content mixed with the id, so two
// deployments of the same rule text under different ids stay distinct.
uint64_t IdentityHashOf(const rules::Rule& r) {
  uint64_t h = rules::RuleContentHash(r);
  h ^= static_cast<uint64_t>(static_cast<int64_t>(r.id)) *
       0x9e3779b97f4a7c15ULL;
  return h * 0x100000001b3ULL + 0x9e3779b9U;
}

// Sorted insert from the back (events arrive nearly chronologically).
void InsertTime(std::vector<double>* times, double t) {
  auto it = times->end();
  while (it != times->begin() && *(it - 1) > t) --it;
  times->insert(it, t);
}

// A row predicate that asks `pred` pair by pair.
LiveGraph::RowPredicate RowOfPairs(EdgePredicate pred) {
  GLINT_CHECK(pred != nullptr);
  return [pred = std::move(pred)](const rules::Rule& rule,
                                  const std::vector<const rules::Rule*>& others,
                                  std::vector<char>* from,
                                  std::vector<char>* to) {
    from->assign(others.size(), 0);
    to->assign(others.size(), 0);
    for (size_t i = 0; i < others.size(); ++i) {
      (*from)[i] = pred(*others[i], rule) ? 1 : 0;
      (*to)[i] = pred(rule, *others[i]) ? 1 : 0;
    }
  };
}

}  // namespace

LiveGraph::LiveGraph(Config config, RowPredicate row_pred,
                     NodeFactory make_node)
    : config_(config),
      row_pred_(std::move(row_pred)),
      make_node_(std::move(make_node)) {
  GLINT_CHECK(row_pred_ != nullptr);
  GLINT_CHECK(make_node_ != nullptr);
}

LiveGraph::LiveGraph(Config config, EdgePredicate edge_pred,
                     NodeFactory make_node)
    : LiveGraph(config, RowOfPairs(std::move(edge_pred)),
                std::move(make_node)) {}

void LiveGraph::ReplayEvents(Entry* entry) const {
  entry->trigger_times.clear();
  entry->effect_times.clear();
  const rules::Rule& rule = entry->node.rule;
  for (const Event& e : retained_) {
    if (EventFiresTrigger(e, rule)) {
      entry->trigger_times.push_back(e.time_hours);
    }
    for (const auto& a : rule.actions) {
      if (e.device == a.device &&
          rules::CommandAssertsState(a.command, e.state)) {
        entry->effect_times.push_back(e.time_hours);
        break;
      }
    }
  }
}

int LiveGraph::AddRule(const rules::Rule& rule) {
  GLINT_OBS_TIMER(timer, "glint.live.add_rule_ms");
  GLINT_OBS_COUNT("glint.live.rule_deltas", 1);
  Entry entry;
  entry.node = make_node_(rule);
  GLINT_CHECK(entry.node.rule.id == rule.id);
  entry.identity_hash = IdentityHashOf(rule);
  ReplayEvents(&entry);

  const size_t n = entries_.size();
  std::vector<const rules::Rule*> others(n);
  for (size_t i = 0; i < n; ++i) others[i] = &entries_[i].node.rule;
  std::vector<char> sem_col;
  std::vector<char> sem_row;
  row_pred_(rule, others, &sem_col, &sem_row);
  GLINT_CHECK(sem_col.size() == n && sem_row.size() == n);
  sem_row.push_back(0);
  std::vector<char> share_row(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    sem_[i].push_back(sem_col[i]);
    const char sh = ShareDevice(entries_[i].node.rule, rule) ? 1 : 0;
    share_[i].push_back(sh);
    share_row[i] = sh;
  }
  sem_.push_back(std::move(sem_row));
  share_.push_back(std::move(share_row));
  entries_.push_back(std::move(entry));
  return static_cast<int>(n);
}

bool LiveGraph::RemoveRule(int rule_id) {
  size_t idx = entries_.size();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].node.rule.id == rule_id) {
      idx = i;
      break;
    }
  }
  if (idx == entries_.size()) return false;
  GLINT_OBS_COUNT("glint.live.rule_deltas", 1);
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(idx));
  sem_.erase(sem_.begin() + static_cast<ptrdiff_t>(idx));
  share_.erase(share_.begin() + static_cast<ptrdiff_t>(idx));
  for (auto& row : sem_) row.erase(row.begin() + static_cast<ptrdiff_t>(idx));
  for (auto& row : share_) {
    row.erase(row.begin() + static_cast<ptrdiff_t>(idx));
  }
  return true;
}

void LiveGraph::OnEvents(const Event* events, size_t n) {
  GLINT_OBS_COUNT("glint.live.events", static_cast<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    latest_ = std::max(latest_, events[i].time_hours);
  }
  Prune();
  const double horizon = latest_ - config_.window_hours;
  for (size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    if (e.time_hours < horizon) continue;  // already outside every window
    auto it = retained_.end();
    while (it != retained_.begin() && (it - 1)->time_hours > e.time_hours) {
      --it;
    }
    retained_.insert(it, e);
    for (auto& entry : entries_) {
      if (EventFiresTrigger(e, entry.node.rule)) {
        InsertTime(&entry.trigger_times, e.time_hours);
      }
      for (const auto& a : entry.node.rule.actions) {
        if (e.device == a.device &&
            rules::CommandAssertsState(a.command, e.state)) {
          InsertTime(&entry.effect_times, e.time_hours);
          break;
        }
      }
    }
  }
}

void LiveGraph::Prune() {
  // An observation at t < latest - window can never fall inside
  // [now - window, now] again once now >= latest (the serving regime), so
  // it is dead weight: drop it in place.
  const double horizon = latest_ - config_.window_hours;
  auto first_kept = std::lower_bound(
      retained_.begin(), retained_.end(), horizon,
      [](const Event& e, double t) { return e.time_hours < t; });
  retained_.erase(retained_.begin(), first_kept);
  for (auto& entry : entries_) {
    auto drop = [horizon](std::vector<double>* times) {
      auto it = std::lower_bound(times->begin(), times->end(), horizon);
      times->erase(times->begin(), it);
    };
    drop(&entry.trigger_times);
    drop(&entry.effect_times);
  }
}

bool LiveGraph::EdgeLive(size_t i, size_t j, double now_hours) const {
  const double lo = now_hours - config_.window_hours;
  // Earliest effect of rule i within the window (lists are sorted).
  const auto& effects = entries_[i].effect_times;
  auto e_it = std::lower_bound(effects.begin(), effects.end(), lo);
  if (e_it == effects.end() || *e_it > now_hours) return false;
  // Latest trigger firing of rule j within the window.
  const auto& triggers = entries_[j].trigger_times;
  auto t_it = std::upper_bound(triggers.begin(), triggers.end(), now_hours);
  if (t_it == triggers.begin()) return false;
  const double t_max = *(t_it - 1);
  if (t_max < lo) return false;
  // Both within the window, so t_max - *e_it <= window holds; the edge is
  // live iff the effect precedes (or coincides with) the trigger firing.
  return *e_it <= t_max;
}

std::vector<rules::Rule> LiveGraph::CurrentRules() const {
  std::vector<rules::Rule> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.node.rule);
  return out;
}

void LiveGraph::IdentityHashesInto(std::vector<uint64_t>* out) const {
  out->clear();
  out->reserve(entries_.size());
  for (const auto& e : entries_) out->push_back(e.identity_hash);
}

std::vector<Edge> LiveGraph::StaticEdges() const {
  const size_t n = entries_.size();
  std::vector<Edge> edges;
  std::vector<char> seen(n * n, 0);
  auto add = [&](size_t s, size_t d) {
    if (seen[s * n + d]) return;
    seen[s * n + d] = 1;
    edges.push_back({static_cast<int>(s), static_cast<int>(d)});
  };
  // Mirror of GraphBuilder::AddEdges: semantic edge first, device link only
  // when the semantic predicate declined, in the same scan order.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (sem_[i][j]) {
        add(i, j);
      } else if (config_.device_edges && i < j && share_[i][j]) {
        add(i, j);
        add(j, i);
      }
    }
  }
  return edges;
}

std::vector<Edge> LiveGraph::RealTimeEdges(double now_hours) const {
  GLINT_CHECK(now_hours + 1e-9 >= latest_);
  const size_t n = entries_.size();
  std::vector<Edge> edges;
  std::vector<char> seen(n * n, 0);
  auto add = [&](size_t s, size_t d) {
    if (seen[s * n + d]) return;
    seen[s * n + d] = 1;
    edges.push_back({static_cast<int>(s), static_cast<int>(d)});
  };
  // Mirror of GraphBuilder::BuildRealTime: the event-ordered semantic scan,
  // then the unconditional shared-device pass.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j || !sem_[i][j]) continue;
      if (EdgeLive(i, j, now_hours)) add(i, j);
    }
  }
  if (config_.device_edges) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (share_[i][j]) {
          add(i, j);
          add(j, i);
        }
      }
    }
  }
  return edges;
}

InteractionGraph LiveGraph::Materialize(const std::vector<Edge>& edges) const {
  GLINT_OBS_TIMER(timer, "glint.live.materialize_ms");
  InteractionGraph g;
  for (const auto& e : entries_) g.AddNode(e.node);
  for (const auto& e : edges) g.AddEdge(e.src, e.dst);
  ThreatAnalyzer::Label(&g);
  return g;
}

InteractionGraph LiveGraph::MaterializeStatic() const {
  return Materialize(StaticEdges());
}

InteractionGraph LiveGraph::MaterializeRealTime(double now_hours) const {
  return Materialize(RealTimeEdges(now_hours));
}

LiveGraph::State LiveGraph::SaveState() const {
  return State{CurrentRules(),
               std::vector<Event>(retained_.begin(), retained_.end()),
               latest_};
}

void LiveGraph::Restore(const State& state) {
  GLINT_CHECK(entries_.empty());  // restore targets a fresh graph
  for (const rules::Rule& rule : state.rules) AddRule(rule);
  for (const Event& e : state.events) OnEvent(e);
  // The saved watermark can exceed the retained events' maximum only if
  // pruning already ran at that watermark, so re-pruning here converges
  // to the exact saved state.
  latest_ = std::max(latest_, state.watermark);
  Prune();
}

}  // namespace glint::graph
