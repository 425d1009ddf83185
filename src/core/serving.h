#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/journal.h"
#include "core/session.h"
#include "util/status.h"

namespace glint::core {

/// Stable, user-visible home address. The fleet layer routes by HomeId
/// (consistent hashing — see fleet/sharding.h); the dense `int h` index is
/// a per-engine (per-shard) detail: it names a slot inside one engine and
/// is not stable across engines or shard counts. Ids are journaled with
/// the AddHome record and written into snapshots, so they survive
/// recovery.
using HomeId = std::string;

/// Multiplexes many DeploymentSessions (homes) over one shared
/// TrainedDetector — the "one detector, N homes" serving shape of the
/// ROADMAP's production target. Every mutation and inspection is addressed
/// by HomeId; the dense slot a home occupies is private to the engine
/// (read-only lookups aside). InspectAll fans the per-home inspections out
/// over the global ThreadPool.
///
/// Determinism: sessions are independent (each mutates only its own state;
/// the detector's memo caches store pure-function results), so InspectAll
/// returns bit-identical warnings for any thread count and batch size, in
/// home order — and identical to a per-home TryInspect loop.
///
/// Durability (optional): Recover(dir) attaches a write-ahead log. Every
/// state-changing operation (TryAddHome / TryAddRule / TryRemoveRule /
/// TryOnEvents, one record per event) is appended to the WAL *before* it
/// is applied; Snapshot() serializes every session and truncates the
/// log. After a crash, a fresh engine calling Recover(dir) replays
/// snapshot + tail and reaches a state whose InspectAll output is
/// bit-identical to the uninterrupted run's (the recovery extension of
/// the session-vs-cold determinism proof).
class ServingEngine {
 public:
  struct Config {
    DeploymentSession::Config session;
    /// Automatic snapshot cadence for durable engines: snapshot after this
    /// many journaled ops (0 = manual Snapshot() only).
    uint64_t snapshot_every_ops = 0;
    /// fsync the WAL on every append (see Journal::Config).
    bool sync_each_append = false;
  };

  explicit ServingEngine(const TrainedDetector* detector);
  ServingEngine(const TrainedDetector* detector, Config config);

  // ---- Durability ------------------------------------------------------

  /// Attaches the state directory `dir` (created if missing): restores the
  /// snapshot + WAL tail into this (required empty) engine, truncates any
  /// torn tail, and journals every subsequent engine-routed mutation. On a
  /// fresh directory this is simply "enable durability".
  Status Recover(const std::string& dir);

  /// Serializes every session and truncates the WAL. Durable engines only.
  Status Snapshot();

  bool durable() const { return journal_ != nullptr; }
  /// Sequence number of the last journaled (and applied) operation.
  uint64_t journal_seq() const { return seq_; }
  /// What the last Recover() found (zero-initialized when never called).
  /// Kept for the tests: they check what recovery replayed.
  const Journal::RecoveryInfo& recovery_info() const {
    return recovery_info_;
  }

  // ---- Deployment mutations -------------------------------------------

  /// Registers a home under a caller-chosen stable id; returns the home's
  /// dense slot inside this engine. InvalidArgument on an empty or
  /// duplicate id; journaled when durable (IOError if the WAL append
  /// fails — the home is then not registered).
  Result<int> TryAddHome(const HomeId& id,
                         const std::vector<rules::Rule>& deployed);

  // Every id-addressed call below returns NotFound, journals nothing and
  // touches no session when `id` names no home in this engine. Mutations
  // return IOError on a WAL failure, and then nothing is applied.

  /// Deploys one rule into home `id` (journaled).
  Status TryAddRule(const HomeId& id, const rules::Rule& rule);
  /// Retires rule `rule_id` from home `id` (journaled). `*removed` (when
  /// non-null) reports whether the rule existed. A no-op removal is not
  /// journaled.
  Status TryRemoveRule(const HomeId& id, int rule_id,
                       bool* removed = nullptr);
  /// Routes one event to home `id`'s session: TryOnEvents(id, &e, 1).
  Status TryOnEvent(const HomeId& id, const graph::Event& e);
  /// Routes `n` events, in order, to home `id`'s session with one home
  /// lookup, one `glint.serving.events` add and one apply trace mark. Each
  /// event is journaled on its own (one kOpEvent record, the bytes
  /// TryOnEvent writes), and each run of journaled events is applied with
  /// one DeploymentSession::OnEvents. An event whose time is not finite
  /// (InvalidArgument, nothing journaled) or whose WAL append fails
  /// (IOError) takes no effect, and the rest still apply. An auto-snapshot
  /// falls due after the same event as with per-event calls: the events
  /// up to it are applied first. Returns the first failure.
  /// `*applied_end` (when non-null) is one past the index of the last
  /// event that took effect, 0 when none did. n == 0 is OK and looks
  /// nothing up.
  Status TryOnEvents(const HomeId& id, const graph::Event* events, size_t n,
                     size_t* applied_end = nullptr);

  // ---- Inspection ------------------------------------------------------

  /// Inspects one home: InvalidArgument when `now` precedes the home's
  /// event watermark — nothing an untrusted caller passes here can abort
  /// the process.
  Result<ThreatWarning> TryInspect(const HomeId& id, double now_hours);
  /// Degraded-mode inspection (overloaded shard, DESIGN.md §16):
  /// verdict-cache hit or explainer-free analysis, verdict not recorded —
  /// see DeploymentSession::TryInspectDegraded.
  Result<ThreatWarning> TryInspectDegraded(const HomeId& id,
                                           double now_hours);

  /// Inspects every home at `now`; result i belongs to home_ids()[i]. The
  /// per-home cache/materialize/tensorize stage fans out over the
  /// ThreadPool, then the verdict-cache misses are packed into
  /// block-diagonal super-graphs of up to `max_batch` member graphs and
  /// analyzed with one ITGNN forward per super-graph, amortizing tape and
  /// dispatch overhead across the fleet. Warnings — and the per-home
  /// verdict caches afterwards — are bit-identical to a per-home TryInspect
  /// loop for every batch size, thread count and kernel backend (the
  /// segment-op contract in gnn/tensor.h).
  std::vector<ThreatWarning> InspectAll(double now_hours, int max_batch = 256);

  // ---- Read-only lookups -----------------------------------------------

  size_t num_homes() const { return sessions_.size(); }
  /// Dense slot of `id` in this engine, -1 when unknown.
  int ResolveHome(const HomeId& id) const;
  bool has_home(const HomeId& id) const { return ResolveHome(id) >= 0; }
  /// Every home id, in registration (= dense slot) order.
  const std::vector<HomeId>& home_ids() const { return ids_; }
  /// Read-only session of slot `h` (checked) for stats and rule listings.
  /// There is no mutable accessor: every mutation goes through the
  /// journaled Try* API.
  const DeploymentSession& home_view(int h) const;

  /// Total rules deployed across all homes.
  size_t total_rules() const;

  /// Sum of every home's per-session counters (cache hit/miss, inspects,
  /// events) — the fleet-level half of a `--stats` report; pair it with
  /// obs::Registry::Global().TakeSnapshot() for stage latencies.
  DeploymentSession::CacheStats AggregateStats() const;

 private:
  /// WAL record operation tags (payload byte 0).
  enum Op : uint8_t {
    kOpAddHome = 1,
    kOpAddRule = 2,
    kOpRemoveRule = 3,
    kOpEvent = 4,
  };

  std::unique_ptr<DeploymentSession> MakeSession() const;
  /// Registers `id` for the next dense slot (ids_ + index_ bookkeeping).
  void RegisterHomeId(HomeId id);
  /// Dense slot of `id`, or NotFound (with the id in the message).
  Result<int> RequireHome(const HomeId& id) const;
  /// InvalidArgument when `id` is empty or already registered.
  Status CheckNewHome(const HomeId& id) const;
  /// Journals one op: the op byte, then what `fields` (the op's field
  /// list, run with a util::LayoutWriter) writes. When not durable the
  /// record is never encoded. On success bumps seq_; the caller applies
  /// the op only on OK.
  template <class Fields>
  Status JournalOp(Op op, const Fields& fields);

  // The one apply of each WAL op. The live Try* path runs it after the
  // journal append, replay (ApplyRecord) after decoding the record.
  void ApplyAddHome(HomeId id, const std::vector<rules::Rule>& deployed);
  void ApplyAddRule(uint32_t slot, const rules::Rule& rule);
  void ApplyRemoveRule(uint32_t slot, int rule_id);
  void ApplyEvents(uint32_t slot, const graph::Event* events, size_t n);

  /// Decodes one WAL record and runs its op's apply (recovery).
  Status ApplyRecord(const std::vector<char>& payload);
  /// Serializes every session into a snapshot payload.
  std::vector<char> EncodeSnapshot() const;
  Status ApplySnapshot(const std::vector<char>& payload);
  /// True when a durable engine has journaled snapshot_every_ops ops
  /// since its last snapshot.
  bool SnapshotDue() const;
  Status MaybeAutoSnapshot();

  const TrainedDetector* detector_;
  Config config_;
  /// unique_ptr for stable addresses across TryAddHome growth.
  std::vector<std::unique_ptr<DeploymentSession>> sessions_;
  /// ids_[h] is the stable id of sessions_[h]; index_ is the reverse map.
  std::vector<HomeId> ids_;
  std::unordered_map<HomeId, int> index_;
  std::unique_ptr<Journal> journal_;
  uint64_t seq_ = 0;
  uint64_t ops_since_snapshot_ = 0;
  Journal::RecoveryInfo recovery_info_;
};

}  // namespace glint::core
