#pragma once

// glint::fleet — the million-home serving shape: one process hosts N
// independent ServingEngine shards behind a HomeId router.
//
// A ShardedFleet owns `num_shards` ServingEngine instances over one shared
// TrainedDetector and routes every home-addressed operation by *stable
// consistent hashing* on the HomeId: each shard owns kVirtualNodes points
// on a 64-bit hash ring, and a home lives on the shard owning the first
// ring point at or after hash(id) (FNV-1a through a murmur-style avalanche
// finalizer). Adding a shard therefore moves only
// ~1/(N+1) of the homes — the property that lets a deployment grow its
// shard count without rehashing the world — and the mapping is a pure
// function of (id, num_shards): identical across processes, restarts, and
// platforms.
//
// Durability is per shard: shard K journals to `<state_dir>/shard-K/`
// (reusing core::Journal), so shards recover independently — one shard's
// crash, torn WAL tail, or corrupt snapshot never blocks the others.
// Recovery reconstructs each shard's homes (ids included; they ride in the
// AddHome WAL records and snapshots) and the fleet's id→shard map is
// re-derived from the hash ring, so nothing fleet-global needs its own log.
//
// Determinism: shards are disjoint (a home maps to exactly one shard) and
// a ServingEngine's sessions are already independent, so fleet inspection
// is bit-identical to a single engine serving the same homes — for any
// shard count and any thread count. InspectAll drives each shard's batched
// InspectAll (SIMD batching amortizes within a shard) and returns
// warnings in (shard, within-shard registration) order; match them to
// homes via Warnings()'s parallel id vector, since cross-shard order is a
// function of the ring, not of registration order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/serving.h"

namespace glint::fleet {

using core::HomeId;

/// One fleet-wide configuration: every shard is constructed from the same
/// `engine` block, so per-shard knobs (snapshot cadence, fsync policy,
/// session window/caches) cannot silently diverge across the fleet.
struct FleetConfig {
  int num_shards = 4;
  /// Shared per-shard engine config (snapshot_every_ops, sync_each_append,
  /// session window + cache sizes).
  core::ServingEngine::Config engine;
  /// Root state directory; shard K journals under `<state_dir>/shard-K/`.
  /// Empty = in-memory fleet (Recover() is then just a no-op).
  std::string state_dir;
};

/// A fleet inspection result: warnings[i] belongs to ids[i].
struct FleetWarnings {
  std::vector<HomeId> ids;
  std::vector<core::ThreatWarning> warnings;
};

class ShardedFleet {
 public:
  /// Virtual ring points per shard: enough that home counts stay within a
  /// few percent of uniform at fleet scale.
  static constexpr int kVirtualNodes = 64;

  ShardedFleet(const core::TrainedDetector* detector, FleetConfig config);

  /// 64-bit FNV-1a of the id bytes, avalanched through a murmur-style
  /// finalizer — the stable hash the ring is built on. Pure function of
  /// the bytes: identical across processes, restarts, and platforms.
  static uint64_t HashHomeId(const HomeId& id);

  /// Shard owning `id` under this fleet's ring (pure, stable).
  int ShardOf(const HomeId& id) const;

  // ---- Durability ------------------------------------------------------

  /// Recovers every shard from `<state_dir>/shard-K/` (directories created
  /// as needed) and enables journaling; no-op on an in-memory fleet. Fails
  /// on the first shard whose recovery fails — shards before it stay
  /// recovered and durable, mirroring ServingEngine::Recover semantics.
  Status Recover();

  /// Snapshots every durable shard (serialize + truncate its WAL).
  Status Snapshot();

  /// Rebuilds shard `k` from scratch: the old engine (and its journal fd)
  /// is destroyed FIRST, then a fresh engine is constructed and — on a
  /// durable fleet — re-`Recover()`ed from `<state_dir>/shard-K/`, so its
  /// state is exactly what the WAL proves. On an in-memory fleet the
  /// existing engine is kept as-is (there is nothing to rebuild from).
  /// Supervision path (EventBus watchdog, DESIGN.md §16): callers must
  /// guarantee nothing touches shard `k` concurrently (its consumer is
  /// dead, its queue is parked). On recovery failure a fresh EMPTY engine
  /// is installed (never a dangling slot) and the error returned — the
  /// caller marks the shard down so the empty engine is never served.
  Status RestartShard(int k);

  bool durable() const;

  // ---- Home-addressed operations (routed) ------------------------------
  // Rule changes have no fleet-level entry: the EventBus applies them to
  // shard(ShardOf(id)), the engine that owns the home.

  /// Registers a home fleet-wide; InvalidArgument on a duplicate id.
  /// Returns the owning shard index.
  Result<int> TryAddHome(const HomeId& id,
                         const std::vector<rules::Rule>& deployed);
  Status TryOnEvent(const HomeId& id, const graph::Event& e);
  Result<core::ThreatWarning> TryInspect(const HomeId& id, double now_hours);
  /// Degraded-mode inspection (verdict cache / no explainer; the verdict
  /// itself stays bit-identical — DESIGN.md §16).
  Result<core::ThreatWarning> TryInspectDegraded(const HomeId& id,
                                                 double now_hours);
  bool has_home(const HomeId& id) const;

  // ---- Fleet-wide inspection ------------------------------------------

  /// Inspects every home at `now` — shard by shard, each via the batched
  /// path (`max_batch` member graphs per block-diagonal forward; 1 =
  /// sequential). Output order is (shard, within-shard registration);
  /// `ids` names each slot. Bit-identical per home to a single engine
  /// serving the same homes, for any shard count / thread count / batch
  /// size (tests/fleet_test.cc).
  FleetWarnings InspectAll(double now_hours, int max_batch = 256);

  // ---- Shard access & rollups -----------------------------------------

  int num_shards() const { return static_cast<int>(shards_.size()); }
  core::ServingEngine& shard(int k);
  const core::ServingEngine& shard(int k) const;

  size_t num_homes() const;
  size_t total_rules() const;
  /// Sum of every shard's AggregateStats.
  core::DeploymentSession::CacheStats AggregateStats() const;
  /// Publishes per-shard gauges (glint.fleet.shard<K>.homes / .rules) and
  /// the fleet totals — the obs rollup half of a stats report. Reads every
  /// shard: only for quiesced fleets (use the per-shard overload from a
  /// bus consumer while producers are live).
  void PublishShardGauges() const;
  /// Publishes shard `k`'s gauges only — touches no other shard, so it is
  /// safe from shard `k`'s bus consumer thread (EventBus::RunOnShard).
  void PublishShardGauges(int k) const;

  const FleetConfig& config() const { return config_; }

 private:
  struct RingPoint {
    uint64_t hash;
    int shard;
    bool operator<(const RingPoint& o) const {
      return hash != o.hash ? hash < o.hash : shard < o.shard;
    }
  };

  FleetConfig config_;
  /// Kept for RestartShard: fresh engines share the same detector.
  const core::TrainedDetector* detector_;
  std::vector<std::unique_ptr<core::ServingEngine>> shards_;
  /// Sorted hash ring; built once (shard count is fixed per fleet).
  std::vector<RingPoint> ring_;
};

}  // namespace glint::fleet
