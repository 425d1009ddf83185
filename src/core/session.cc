#include "core/session.h"

#include <cmath>
#include <cstddef>
#include <utility>

#include "obs/obs.h"

namespace glint::core {

DeploymentSession::DeploymentSession(const TrainedDetector* detector,
                                     Config config)
    : detector_(detector),
      config_(config),
      live_(
          graph::LiveGraph::Config{
              config.window_hours,
              detector->options().builder.device_edges},
          [detector](const rules::Rule& a, const rules::Rule& b) {
            return detector->Correlated(a, b);
          },
          [detector](const rules::Rule& r) { return detector->MakeNode(r); }),
      tensor_cache_(config.cache_capacity) {
  GLINT_CHECK(detector_ != nullptr);
}

int DeploymentSession::AddRule(const rules::Rule& rule) {
  return live_.AddRule(rule);
}

bool DeploymentSession::RemoveRule(int rule_id) {
  return live_.RemoveRule(rule_id);
}

void DeploymentSession::OnEvents(const graph::Event* events, size_t n) {
  events_ += n;
  live_.OnEvents(events, n);
}

DeploymentSession::CacheStats DeploymentSession::Stats() const {
  CacheStats s;
  s.inspects = inspects_;
  s.events = events_;
  s.rules = static_cast<uint64_t>(live_.num_rules());
  s.verdict_hits = verdict_hits_;
  s.verdict_misses = inspects_ - verdict_hits_;
  s.tensor_hits = tensor_cache_.hits();
  s.tensor_misses = tensor_cache_.misses();
  return s;
}

Status DeploymentSession::CheckInspectTime(double now_hours) const {
  if (!std::isfinite(now_hours)) {
    return Status::InvalidArgument("inspection time " +
                                   std::to_string(now_hours) +
                                   "h is not a finite number");
  }
  if (now_hours + 1e-9 < live_.latest_event_hours()) {
    return Status::InvalidArgument(
        "inspection time " + std::to_string(now_hours) +
        "h precedes the latest ingested event at " +
        std::to_string(live_.latest_event_hours()) + "h");
  }
  return Status::OK();
}

Result<ThreatWarning> DeploymentSession::TryInspect(double now_hours) {
  GLINT_RETURN_IF_ERROR(CheckInspectTime(now_hours));
  ThreatWarning w = Render(live_.RealTimeEdges(now_hours));
  // Charge the inspect stage of an in-flight fleet request trace (set by
  // the bus consumer around RunOnShard tasks — DESIGN.md §14).
  if (obs::TraceContext* t = obs::CurrentTrace()) {
    t->Mark(obs::TraceStage::kInspect);
  }
  return w;
}

Result<ThreatWarning> DeploymentSession::TryInspectDegraded(
    double now_hours) {
  GLINT_RETURN_IF_ERROR(CheckInspectTime(now_hours));
  Pending pending = BeginInspect(now_hours);
  // A cache hit is the healthy verdict (culprits included); a miss skips
  // the explainer AND the FinishInspect verdict record — see the header.
  ThreatWarning w =
      pending.cached
          ? pending.warning
          : detector_->Analyze(*pending.gg, pending.graph, /*explain=*/false);
  if (obs::TraceContext* t = obs::CurrentTrace()) {
    t->Mark(obs::TraceStage::kInspect);
  }
  return w;
}

ThreatWarning DeploymentSession::InspectStatic() {
  return Render(live_.StaticEdges());
}

DeploymentSession::Pending DeploymentSession::BeginInspect(double now_hours) {
  return Begin(live_.RealTimeEdges(now_hours));
}

DeploymentSession::Pending DeploymentSession::Begin(
    const std::vector<graph::Edge>& edges) {
  ++inspects_;
  Pending pending;
  gnn::GnnGraphCache::Key& key = key_scratch_;
  live_.IdentityHashesInto(&key.node_ids);
  key.edges.clear();
  key.edges.reserve(edges.size());
  for (const auto& e : edges) key.edges.emplace_back(e.src, e.dst);

  // Fast path: the graph structure is unchanged since a recent inspection,
  // so the verdict is too (Analyze is deterministic in the graph).
  for (auto& v : verdicts_) {
    if (v.key == key) {
      v.tick = ++tick_;
      ++verdict_hits_;
      GLINT_OBS_COUNT("glint.session.verdict_cache.hits", 1);
      pending.cached = true;
      pending.warning = v.warning;
      return pending;
    }
  }
  GLINT_OBS_COUNT("glint.session.verdict_cache.misses", 1);

  pending.graph = live_.Materialize(edges);
  pending.gg = tensor_cache_.Find(key);
  if (pending.gg == nullptr) {
    pending.gg = tensor_cache_.Insert(key, gnn::ToGnnGraph(pending.graph));
  }
  return pending;
}

ThreatWarning DeploymentSession::FinishInspect(const ThreatWarning& warning) {
  if (verdicts_.size() >= config_.cache_capacity && !verdicts_.empty()) {
    size_t oldest = 0;
    for (size_t i = 1; i < verdicts_.size(); ++i) {
      if (verdicts_[i].tick < verdicts_[oldest].tick) oldest = i;
    }
    verdicts_.erase(verdicts_.begin() + static_cast<ptrdiff_t>(oldest));
  }
  // Copy (not move) the key so the scratch keeps its storage for reuse.
  verdicts_.push_back(Verdict{key_scratch_, warning, ++tick_});
  return warning;
}

ThreatWarning DeploymentSession::Render(
    const std::vector<graph::Edge>& edges) {
  GLINT_OBS_TIMER(timer, "glint.session.inspect_ms");
  Pending pending = Begin(edges);
  if (pending.cached) return pending.warning;
  return FinishInspect(detector_->Analyze(*pending.gg, pending.graph));
}

}  // namespace glint::core
