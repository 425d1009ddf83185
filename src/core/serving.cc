#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "graph/event_log.h"
#include "obs/obs.h"
#include "rules/rule_io.h"
#include "util/binio.h"
#include "util/thread_pool.h"

namespace glint::core {

ServingEngine::ServingEngine(const TrainedDetector* detector)
    : ServingEngine(detector, Config()) {}

ServingEngine::ServingEngine(const TrainedDetector* detector, Config config)
    : detector_(detector), config_(config) {
  GLINT_CHECK(detector_ != nullptr);
}

std::unique_ptr<DeploymentSession> ServingEngine::MakeSession() const {
  return std::make_unique<DeploymentSession>(detector_, config_.session);
}

// ---- Durability --------------------------------------------------------

Status ServingEngine::Recover(const std::string& dir) {
  GLINT_OBS_TIMER(timer, "glint.recovery.recover_ms");
  GLINT_CHECK(sessions_.empty());  // recovery targets a fresh engine
  GLINT_CHECK(journal_ == nullptr);
  auto journal = std::make_unique<Journal>(
      dir, Journal::Config{config_.sync_each_append});
  Journal::RecoveryInfo info;
  Status st = journal->Recover(
      [this](const std::vector<char>& payload) {
        return ApplySnapshot(payload);
      },
      [this](uint64_t seq, const std::vector<char>& payload) {
        Status apply_st = ApplyRecord(payload);
        if (apply_st.ok()) seq_ = seq;
        return apply_st;
      },
      &info);
  if (!st.ok()) {
    // Leave the engine non-durable and empty-ish state visible to the
    // caller; recovery failures are surfaced, never papered over.
    sessions_.clear();
    ids_.clear();
    index_.clear();
    seq_ = 0;
    totals_ = Totals();
    return st;
  }
  if (info.snapshot_loaded && info.tail_records == 0) {
    seq_ = info.snapshot_seq;
  } else if (info.snapshot_loaded && seq_ < info.snapshot_seq) {
    seq_ = info.snapshot_seq;
  }
  recovery_info_ = info;
  journal_ = std::move(journal);
  ops_since_snapshot_ = info.tail_records;
  return Status::OK();
}

Status ServingEngine::Snapshot() {
  GLINT_CHECK(durable());
  GLINT_OBS_TIMER(timer, "glint.recovery.snapshot_ms");
  GLINT_RETURN_IF_ERROR(journal_->WriteSnapshot(seq_, EncodeSnapshot()));
  ops_since_snapshot_ = 0;
  return Status::OK();
}

namespace {

/// One home of a snapshot.
struct HomeSnapshot {
  HomeId id;
  graph::LiveGraph::State state;
};

/// The snapshot payload's one field list: u32 count, then per home its id
/// and its LiveGraph state.
template <class IO, class Homes>
bool SnapshotFields(IO& io, Homes& homes) {
  return io.List(homes,
                 util::ListBound{"home", sizeof(uint32_t) +
                                             graph::LiveGraph::kMinStateBytes},
                 [&io](auto& h) {
                   return io.Str(h.id) && graph::LiveStateFields(io, h.state);
                 });
}

/// A non-finite event time would pin the home's watermark (inf) or
/// unsort its retained events (NaN), so neither the live path, replay nor
/// a snapshot takes one.
Status CheckTime(double hours) {
  if (std::isfinite(hours)) return Status::OK();
  return Status::InvalidArgument("event time " + std::to_string(hours) +
                                 "h is not a finite number");
}

}  // namespace

std::vector<char> ServingEngine::EncodeSnapshot() const {
  std::vector<HomeSnapshot> homes;
  homes.reserve(sessions_.size());
  for (size_t h = 0; h < sessions_.size(); ++h) {
    homes.push_back({ids_[h], sessions_[h]->live().SaveState()});
  }
  return util::EncodeAll([&](auto& io) { return SnapshotFields(io, homes); });
}

Status ServingEngine::ApplySnapshot(const std::vector<char>& payload) {
  std::vector<HomeSnapshot> homes;
  GLINT_RETURN_IF_ERROR(util::DecodeAll(payload, "snapshot", [&](auto& io) {
    return SnapshotFields(io, homes);
  }));
  for (HomeSnapshot& h : homes) {
    if (index_.count(h.id) != 0) {
      return Status::InvalidArgument("snapshot: duplicate home id '" + h.id +
                                     "'");
    }
    GLINT_RETURN_IF_ERROR(CheckTime(h.state.watermark));
    for (const graph::Event& e : h.state.events) {
      GLINT_RETURN_IF_ERROR(CheckTime(e.time_hours));
    }
    auto session = MakeSession();
    session->Restore(h.state);
    // A restored session starts with zero event and inspect counts.
    totals_.rules += static_cast<uint64_t>(session->num_rules());
    RegisterHomeId(std::move(h.id));
    sessions_.push_back(std::move(session));
  }
  return Status::OK();
}

namespace {

// The one field list of each WAL op (after the op byte; util/binio.h).
// The live path runs it with a LayoutWriter over its arguments, replay
// with a LayoutReader into locals. `slot` is the home's dense slot.
template <class IO, class Id, class Rules>
bool AddHomeFields(IO& io, Id& id, Rules& deployed) {
  return io.Str(id) &&
         io.List(deployed, util::ListBound{"rule", rules::kMinRuleBytes},
                 [&io](auto& rule) { return rules::RuleFields(io, rule); });
}

template <class IO, class Slot, class R>
bool AddRuleFields(IO& io, Slot& slot, R& rule) {
  return io.U32(slot) && rules::RuleFields(io, rule);
}

template <class IO, class Slot, class Id>
bool RemoveRuleFields(IO& io, Slot& slot, Id& rule_id) {
  return io.U32(slot) && io.I32(rule_id);
}

template <class IO, class Slot, class E>
bool EventFields(IO& io, Slot& slot, E& e) {
  return io.U32(slot) && graph::EventFields(io, e);
}

/// Replay's verdict on one decoded record: InvalidArgument naming the op
/// when its field list failed, bytes trail it, or `valid` (the op's own
/// precondition) is not OK.
Status CheckRecord(const char* op, bool decoded, const util::ByteReader& r,
                   const util::LayoutReader& io, const Status& valid) {
  const std::string where = std::string("WAL ") + op + ": ";
  if (!decoded) {
    return Status::InvalidArgument(
        where + (io.error().empty() ? "truncated record" : io.error()));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("WAL record: trailing bytes");
  }
  if (!valid.ok()) return Status::InvalidArgument(where + valid.message());
  return Status::OK();
}

}  // namespace

template <class Fields>
Status ServingEngine::JournalRun(Op op, size_t n, const Fields& fields) {
  if (journal_ == nullptr) {
    seq_ += n;
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    util::ByteWriter& w = journal_->StartRecord(seq_ + 1 + i);
    w.U8(op);
    util::LayoutWriter io(&w);
    fields(io, i);
  }
  GLINT_OBS_TIMER(timer, "glint.serving.wal_append_ms");
  GLINT_RETURN_IF_ERROR(journal_->AppendRun());
  seq_ += n;
  ops_since_snapshot_ += n;
  return Status::OK();
}

uint64_t ServingEngine::OpsUntilSnapshot() const {
  if (journal_ == nullptr || config_.snapshot_every_ops == 0) {
    return UINT64_MAX;
  }
  return ops_since_snapshot_ >= config_.snapshot_every_ops
             ? 0
             : config_.snapshot_every_ops - ops_since_snapshot_;
}

Status ServingEngine::MaybeAutoSnapshot() {
  return OpsUntilSnapshot() == 0 ? Snapshot() : Status::OK();
}

Status ServingEngine::ApplyRecord(const std::vector<char>& payload) {
  util::ByteReader r(payload);
  util::LayoutReader io(&r);
  uint8_t op = 0;
  if (!r.U8(&op)) return Status::InvalidArgument("WAL record: missing op");
  // Decode targets; each op's field list fills its own.
  HomeId id;
  std::vector<rules::Rule> deployed;
  uint32_t slot = 0;
  rules::Rule rule;
  int32_t rule_id = 0;
  graph::Event event;
  auto slot_ok = [&] {
    return slot < sessions_.size()
               ? Status::OK()
               : Status::InvalidArgument("bad home index");
  };
  bool decoded = false;  // set before the checks that read the decode
  switch (op) {
    case kOpAddHome:
      decoded = AddHomeFields(io, id, deployed);
      GLINT_RETURN_IF_ERROR(
          CheckRecord("AddHome", decoded, r, io, CheckNewHome(id)));
      ApplyAddHome(std::move(id), deployed);
      return Status::OK();
    case kOpAddRule:
      decoded = AddRuleFields(io, slot, rule);
      GLINT_RETURN_IF_ERROR(CheckRecord("AddRule", decoded, r, io, slot_ok()));
      ApplyAddRule(slot, rule);
      return Status::OK();
    case kOpRemoveRule:
      decoded = RemoveRuleFields(io, slot, rule_id);
      GLINT_RETURN_IF_ERROR(
          CheckRecord("RemoveRule", decoded, r, io, slot_ok()));
      ApplyRemoveRule(slot, rule_id);
      return Status::OK();
    case kOpEvent:
      decoded = EventFields(io, slot, event);
      GLINT_RETURN_IF_ERROR(CheckRecord(
          "Event", decoded, r, io,
          slot_ok().ok() ? CheckTime(event.time_hours) : slot_ok()));
      ApplyEvents(slot, &event, 1);
      return Status::OK();
    default:
      return Status::InvalidArgument("WAL record: unknown op " +
                                     std::to_string(op));
  }
}

// ---- Deployment mutations ----------------------------------------------

void ServingEngine::RegisterHomeId(HomeId id) {
  index_.emplace(id, static_cast<int>(sessions_.size()));
  ids_.push_back(std::move(id));
}

Result<int> ServingEngine::RequireHome(const HomeId& id) const {
  const int h = ResolveHome(id);
  if (h < 0) {
    GLINT_OBS_COUNT("glint.serving.bad_home_id", 1);
    return Status::NotFound("no home with id '" + id + "'");
  }
  return h;
}

Status ServingEngine::CheckNewHome(const HomeId& id) const {
  if (id.empty()) {
    return Status::InvalidArgument("home id must be non-empty");
  }
  if (index_.count(id) != 0) {
    return Status::InvalidArgument("home id '" + id + "' already exists");
  }
  return Status::OK();
}

void ServingEngine::ApplyAddHome(HomeId id,
                                 const std::vector<rules::Rule>& deployed) {
  auto session = MakeSession();
  for (const auto& rule : deployed) session->AddRule(rule);
  totals_.rules += deployed.size();
  RegisterHomeId(std::move(id));
  sessions_.push_back(std::move(session));
}

void ServingEngine::ApplyAddRule(uint32_t slot, const rules::Rule& rule) {
  sessions_[slot]->AddRule(rule);
  ++totals_.rules;
}

void ServingEngine::ApplyRemoveRule(uint32_t slot, int rule_id) {
  if (sessions_[slot]->RemoveRule(rule_id)) --totals_.rules;
}

void ServingEngine::ApplyEvents(uint32_t slot, const graph::Event* events,
                                size_t n) {
  sessions_[slot]->OnEvents(events, n);
  totals_.events += n;
}

Result<int> ServingEngine::TryAddHome(
    const HomeId& id, const std::vector<rules::Rule>& deployed) {
  GLINT_RETURN_IF_ERROR(CheckNewHome(id));
  GLINT_RETURN_IF_ERROR(JournalRun(kOpAddHome, 1, [&](auto& io, size_t) {
    return AddHomeFields(io, id, deployed);
  }));
  ApplyAddHome(id, deployed);
  GLINT_RETURN_IF_ERROR(MaybeAutoSnapshot());
  return static_cast<int>(sessions_.size()) - 1;
}

Status ServingEngine::TryAddRule(const HomeId& id, const rules::Rule& rule) {
  Result<int> h = RequireHome(id);
  GLINT_RETURN_IF_ERROR(h.status());
  const uint32_t slot = static_cast<uint32_t>(h.value());
  GLINT_RETURN_IF_ERROR(JournalRun(kOpAddRule, 1, [&](auto& io, size_t) {
    return AddRuleFields(io, slot, rule);
  }));
  ApplyAddRule(slot, rule);
  return MaybeAutoSnapshot();
}

Status ServingEngine::TryRemoveRule(const HomeId& id, int rule_id,
                                    bool* removed) {
  Result<int> h = RequireHome(id);
  GLINT_RETURN_IF_ERROR(h.status());
  const uint32_t slot = static_cast<uint32_t>(h.value());
  // Probe first so a no-op removal does not pollute the WAL. CurrentRules
  // is node-ordered, so id lookup mirrors RemoveRule's scan.
  bool present = false;
  for (const auto& rule : sessions_[slot]->CurrentRules()) {
    if (rule.id == rule_id) {
      present = true;
      break;
    }
  }
  if (removed != nullptr) *removed = present;
  if (!present) return Status::OK();
  GLINT_RETURN_IF_ERROR(JournalRun(kOpRemoveRule, 1, [&](auto& io, size_t) {
    return RemoveRuleFields(io, slot, rule_id);
  }));
  ApplyRemoveRule(slot, rule_id);
  return MaybeAutoSnapshot();
}

Status ServingEngine::TryOnEvent(const HomeId& id, const graph::Event& e) {
  return TryOnEvents(id, &e, 1);
}

Status ServingEngine::TryOnEvents(const HomeId& id,
                                  const graph::Event* events, size_t n,
                                  size_t* applied_end) {
  if (applied_end != nullptr) *applied_end = 0;
  if (n == 0) return Status::OK();
  Result<int> h = RequireHome(id);
  GLINT_RETURN_IF_ERROR(h.status());
  const uint32_t slot = static_cast<uint32_t>(h.value());
  Status first;
  size_t applied = 0;
  for (size_t i = 0; i < n;) {
    Status st = CheckTime(events[i].time_hours);
    if (!st.ok()) {
      // A refused event takes no effect; the next run starts after it.
      if (first.ok()) first = st;
      ++i;
      continue;
    }
    // The run: every event up to the next refused one, cut where the
    // snapshot cadence falls due so the snapshot lands at the same seq
    // as with per-event calls.
    const size_t cap =
        i + static_cast<size_t>(std::min<uint64_t>(
                n - i, std::max<uint64_t>(1, OpsUntilSnapshot())));
    size_t end = i + 1;
    while (end < cap && std::isfinite(events[end].time_hours)) ++end;
    st = JournalRun(kOpEvent, end - i, [&](auto& io, size_t k) {
      return EventFields(io, slot, events[i + k]);
    });
    if (!st.ok()) {
      // Nothing from this run on takes effect, so what applied is a
      // prefix and a retransmit of the batch applies exactly the rest.
      if (first.ok()) first = st;
      break;
    }
    ApplyEvents(slot, events + i, end - i);
    applied += end - i;
    if (applied_end != nullptr) *applied_end = end;
    i = end;
    st = MaybeAutoSnapshot();
    if (!st.ok() && first.ok()) first = st;
  }
  GLINT_OBS_COUNT("glint.serving.events", static_cast<int64_t>(applied));
  // Charge the apply stage of an in-flight fleet request trace (set by
  // the bus consumer around Apply — DESIGN.md §14). WAL appends and any
  // auto-snapshot are part of what the operator sees as apply latency.
  if (obs::TraceContext* t = obs::CurrentTrace()) {
    t->Mark(obs::TraceStage::kApply);
  }
  return first;
}

// ---- Inspection --------------------------------------------------------

Result<ThreatWarning> ServingEngine::TryInspect(const HomeId& id,
                                                double now_hours) {
  Result<int> h = RequireHome(id);
  if (!h.ok()) return h.status();
  Result<ThreatWarning> w =
      sessions_[static_cast<size_t>(h.value())]->TryInspect(now_hours);
  // A session counts an inspect exactly when it answers one.
  if (w.ok()) ++totals_.inspects;
  return w;
}

Result<ThreatWarning> ServingEngine::TryInspectDegraded(const HomeId& id,
                                                        double now_hours) {
  Result<int> h = RequireHome(id);
  if (!h.ok()) return h.status();
  GLINT_OBS_COUNT("glint.serving.degraded_inspects", 1);
  Result<ThreatWarning> w =
      sessions_[static_cast<size_t>(h.value())]->TryInspectDegraded(
          now_hours);
  if (w.ok()) ++totals_.inspects;
  return w;
}

std::vector<ThreatWarning> ServingEngine::InspectAll(double now_hours,
                                                     int max_batch) {
  GLINT_OBS_TIMER(timer, "glint.serving.inspect_all_ms");
  GLINT_CHECK(max_batch >= 1);
  const size_t n = sessions_.size();
  std::vector<ThreatWarning> out(n);
  std::vector<DeploymentSession::Pending> pending(n);
  // Stage 1 (parallel, one home per chunk): cache lookups + materialize +
  // tensorize. Each session is touched by exactly one thread.
  ParallelFor(0, static_cast<int64_t>(n), 1, [&](int64_t lo, int64_t hi) {
    for (int64_t h = lo; h < hi; ++h) {
      pending[static_cast<size_t>(h)] =
          sessions_[static_cast<size_t>(h)]->BeginInspect(now_hours);
    }
  });
  totals_.inspects += n;  // one BeginInspect per home
  // Stage 2 (serial, home order): pack the verdict-cache misses into
  // super-graphs and analyze each with one batched forward. Serial
  // assembly keeps batch composition — and therefore every float — a pure
  // function of the fleet state, independent of thread count.
  std::vector<size_t> todo;
  for (size_t h = 0; h < n; ++h) {
    if (pending[h].cached) {
      out[h] = pending[h].warning;
    } else {
      todo.push_back(h);
    }
  }
  std::vector<const gnn::GnnGraph*> ggs;
  std::vector<const graph::InteractionGraph*> gs;
  std::vector<size_t> members;
  for (size_t i = 0; i < todo.size();) {
    ggs.clear();
    gs.clear();
    members.clear();
    while (i < todo.size() && members.size() < static_cast<size_t>(max_batch)) {
      const size_t h = todo[i++];
      ggs.push_back(pending[h].gg.get());
      gs.push_back(&pending[h].graph);
      members.push_back(h);
    }
    GLINT_OBS_OBSERVE("glint.batch.size", static_cast<double>(members.size()));
    std::vector<ThreatWarning> warnings = detector_->AnalyzeBatch(ggs, gs);
    for (size_t k = 0; k < members.size(); ++k) {
      out[members[k]] = sessions_[members[k]]->FinishInspect(warnings[k]);
    }
  }
  return out;
}

// ---- Read-only lookups -------------------------------------------------

int ServingEngine::ResolveHome(const HomeId& id) const {
  auto it = index_.find(id);
  return it == index_.end() ? -1 : it->second;
}

const DeploymentSession& ServingEngine::home_view(int h) const {
  GLINT_CHECK(h >= 0 && h < static_cast<int>(sessions_.size()));
  return *sessions_[static_cast<size_t>(h)];
}

DeploymentSession::CacheStats ServingEngine::AggregateStats() const {
  DeploymentSession::CacheStats total;
  for (const auto& s : sessions_) total += s->Stats();
  return total;
}

}  // namespace glint::core
