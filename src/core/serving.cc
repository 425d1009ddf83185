#include "core/serving.h"

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

std::vector<char> ServingEngine::EncodeSnapshot() const {
  util::ByteWriter w;
  w.U32(static_cast<uint32_t>(sessions_.size()));
  for (size_t h = 0; h < sessions_.size(); ++h) {
    w.Str(ids_[h]);
    sessions_[h]->SerializeTo(&w);
  }
  return w.TakeBuffer();
}

Status ServingEngine::ApplySnapshot(const std::vector<char>& payload) {
  util::ByteReader r(payload);
  uint32_t homes = 0;
  if (!r.U32(&homes)) {
    return Status::InvalidArgument("snapshot: truncated home count");
  }
  for (uint32_t h = 0; h < homes; ++h) {
    HomeId id;
    if (!r.Str(&id)) {
      return Status::InvalidArgument("snapshot: truncated home id");
    }
    if (index_.count(id) != 0) {
      return Status::InvalidArgument("snapshot: duplicate home id '" + id +
                                     "'");
    }
    auto session = MakeSession();
    GLINT_RETURN_IF_ERROR(session->RestoreFrom(&r));
    RegisterHomeId(std::move(id));
    sessions_.push_back(std::move(session));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("snapshot: trailing bytes");
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

/// An event at a non-finite time would pin the home's watermark (inf) or
/// unsort its retained events (NaN), so neither the live path nor replay
/// takes one.
Status CheckEventTime(const graph::Event& e) {
  if (std::isfinite(e.time_hours)) return Status::OK();
  return Status::InvalidArgument("event time " +
                                 std::to_string(e.time_hours) +
                                 "h is not a finite number");
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
Status ServingEngine::JournalOp(Op op, const Fields& fields) {
  if (journal_ == nullptr) {
    ++seq_;
    return Status::OK();
  }
  util::ByteWriter w;
  w.U8(op);
  util::LayoutWriter io(&w);
  fields(io);
  GLINT_OBS_TIMER(timer, "glint.serving.wal_append_ms");
  GLINT_RETURN_IF_ERROR(journal_->Append(seq_ + 1, w.buffer()));
  ++seq_;
  ++ops_since_snapshot_;
  return Status::OK();
}

bool ServingEngine::SnapshotDue() const {
  return journal_ != nullptr && config_.snapshot_every_ops != 0 &&
         ops_since_snapshot_ >= config_.snapshot_every_ops;
}

Status ServingEngine::MaybeAutoSnapshot() {
  return SnapshotDue() ? Snapshot() : Status::OK();
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
          slot_ok().ok() ? CheckEventTime(event) : slot_ok()));
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
  RegisterHomeId(std::move(id));
  sessions_.push_back(std::move(session));
}

void ServingEngine::ApplyAddRule(uint32_t slot, const rules::Rule& rule) {
  sessions_[slot]->AddRule(rule);
}

void ServingEngine::ApplyRemoveRule(uint32_t slot, int rule_id) {
  sessions_[slot]->RemoveRule(rule_id);
}

void ServingEngine::ApplyEvents(uint32_t slot, const graph::Event* events,
                                size_t n) {
  sessions_[slot]->OnEvents(events, n);
}

Result<int> ServingEngine::TryAddHome(
    const HomeId& id, const std::vector<rules::Rule>& deployed) {
  GLINT_RETURN_IF_ERROR(CheckNewHome(id));
  GLINT_RETURN_IF_ERROR(JournalOp(kOpAddHome, [&](auto& io) {
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
  GLINT_RETURN_IF_ERROR(JournalOp(
      kOpAddRule, [&](auto& io) { return AddRuleFields(io, slot, rule); }));
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
  GLINT_RETURN_IF_ERROR(JournalOp(kOpRemoveRule, [&](auto& io) {
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
  size_t run = 0;  // first journaled event not yet applied
  size_t applied = 0;
  auto apply_through = [&](size_t end) {  // applies the run [run, end)
    if (end == run) return;
    ApplyEvents(slot, events + run, end - run);
    applied += end - run;
    if (applied_end != nullptr) *applied_end = end;
    run = end;
  };
  for (size_t i = 0; i < n; ++i) {
    const graph::Event& e = events[i];
    Status st = CheckEventTime(e);
    if (st.ok()) {
      st = JournalOp(kOpEvent,
                     [&](auto& io) { return EventFields(io, slot, e); });
    }
    if (!st.ok()) {
      // This event takes no effect; the journaled run before it applies.
      apply_through(i);
      run = i + 1;
      if (first.ok()) first = st;
      continue;
    }
    if (SnapshotDue()) {
      apply_through(i + 1);
      st = Snapshot();
      if (!st.ok() && first.ok()) first = st;
    }
  }
  apply_through(n);
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
  return sessions_[static_cast<size_t>(h.value())]->TryInspect(now_hours);
}

Result<ThreatWarning> ServingEngine::TryInspectDegraded(const HomeId& id,
                                                        double now_hours) {
  Result<int> h = RequireHome(id);
  if (!h.ok()) return h.status();
  GLINT_OBS_COUNT("glint.serving.degraded_inspects", 1);
  return sessions_[static_cast<size_t>(h.value())]->TryInspectDegraded(
      now_hours);
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
      ggs.push_back(pending[h].gg);
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

size_t ServingEngine::total_rules() const {
  size_t n = 0;
  for (const auto& s : sessions_) n += static_cast<size_t>(s->num_rules());
  return n;
}

DeploymentSession::CacheStats ServingEngine::AggregateStats() const {
  DeploymentSession::CacheStats total;
  for (const auto& s : sessions_) total += s->Stats();
  return total;
}

}  // namespace glint::core
