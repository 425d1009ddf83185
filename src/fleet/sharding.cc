#include "fleet/sharding.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/obs.h"

namespace glint::fleet {

namespace {

/// 64-bit FNV-1a over a byte string.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 0xcbf29ce484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Murmur3-style avalanche finalizer. Raw FNV-1a of short, similar strings
/// ("home-0", "home-1", ...) barely stirs the high bits, and ring placement
/// compares full 64-bit values — without this mix, consecutive ids cluster
/// onto a handful of shards.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint64_t HashBytes(const void* data, size_t n) {
  return Mix64(Fnv1a64(data, n));
}

}  // namespace

uint64_t ShardedFleet::HashHomeId(const HomeId& id) {
  return HashBytes(id.data(), id.size());
}

ShardedFleet::ShardedFleet(const core::TrainedDetector* detector,
                           FleetConfig config)
    : config_(std::move(config)), detector_(detector) {
  GLINT_CHECK(detector != nullptr);
  GLINT_CHECK(config_.num_shards >= 1);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  ring_.reserve(static_cast<size_t>(config_.num_shards) * kVirtualNodes);
  for (int k = 0; k < config_.num_shards; ++k) {
    // Every shard gets the one shared engine config — the fleet level owns
    // the knobs, so shards cannot diverge.
    shards_.push_back(
        std::make_unique<core::ServingEngine>(detector, config_.engine));
    const std::string prefix = "glint.fleet.shard" + std::to_string(k);
    auto& reg = obs::Registry::Global();
    gauges_.push_back(
        {reg.GetGauge(prefix + ".homes"), reg.GetGauge(prefix + ".rules")});
    for (int v = 0; v < kVirtualNodes; ++v) {
      const std::string point =
          "shard-" + std::to_string(k) + "#" + std::to_string(v);
      ring_.push_back({HashBytes(point.data(), point.size()), k});
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ShardedFleet::ShardOf(const HomeId& id) const {
  const uint64_t h = HashHomeId(id);
  // First ring point at or after h, wrapping to the ring start.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), RingPoint{h, -1},
      [](const RingPoint& a, const RingPoint& b) { return a.hash < b.hash; });
  if (it == ring_.end()) it = ring_.begin();
  return it->shard;
}

// ---- Durability ---------------------------------------------------------

Status ShardedFleet::Recover() {
  if (config_.state_dir.empty()) return Status::OK();
  // The per-shard Journal creates its own leaf directory; the fleet root
  // is ours to create.
  if (::mkdir(config_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + config_.state_dir + ": " +
                           std::strerror(errno));
  }
  for (int k = 0; k < num_shards(); ++k) {
    Status st = shards_[static_cast<size_t>(k)]->Recover(
        config_.state_dir + "/shard-" + std::to_string(k));
    if (!st.ok()) {
      return Status(st.code(), "shard " + std::to_string(k) +
                                   " recovery: " + st.message());
    }
  }
  return Status::OK();
}

Status ShardedFleet::Snapshot() {
  for (int k = 0; k < num_shards(); ++k) {
    auto& shard = *shards_[static_cast<size_t>(k)];
    if (!shard.durable()) continue;
    Status st = shard.Snapshot();
    if (!st.ok()) {
      return Status(st.code(), "shard " + std::to_string(k) +
                                   " snapshot: " + st.message());
    }
  }
  return Status::OK();
}

Status ShardedFleet::RestartShard(int k) {
  GLINT_CHECK(k >= 0 && k < num_shards());
  if (config_.state_dir.empty()) {
    // In-memory fleet: the engine IS the only copy of the state, so a
    // restart keeps it (a consumer that died at its loop top left it
    // consistent — nothing was mid-apply).
    return Status::OK();
  }
  // Destroy the old engine first so its journal fd is closed before the
  // replacement reopens the same WAL directory.
  shards_[static_cast<size_t>(k)].reset();
  auto fresh = std::make_unique<core::ServingEngine>(detector_, config_.engine);
  Status st =
      fresh->Recover(config_.state_dir + "/shard-" + std::to_string(k));
  // Install the fresh engine either way: a null slot would turn every later
  // shard(k) into a crash; on failure the caller marks the shard down.
  shards_[static_cast<size_t>(k)] = std::move(fresh);
  GLINT_OBS_COUNT("glint.fleet.shard_restarts", 1);
  if (!st.ok()) {
    return Status(st.code(),
                  "shard " + std::to_string(k) + " restart: " + st.message());
  }
  return Status::OK();
}

bool ShardedFleet::durable() const {
  for (const auto& s : shards_) {
    if (s->durable()) return true;
  }
  return false;
}

// ---- Home-addressed operations ------------------------------------------

Result<int> ShardedFleet::TryAddHome(const HomeId& id,
                                     const std::vector<rules::Rule>& deployed) {
  const int k = ShardOf(id);
  Result<int> local = shards_[static_cast<size_t>(k)]->TryAddHome(id, deployed);
  if (!local.ok()) return local.status();
  GLINT_OBS_COUNT("glint.fleet.homes_added", 1);
  return k;
}

Status ShardedFleet::TryOnEvent(const HomeId& id, const graph::Event& e) {
  return shards_[static_cast<size_t>(ShardOf(id))]->TryOnEvent(id, e);
}

Result<core::ThreatWarning> ShardedFleet::TryInspect(const HomeId& id,
                                                     double now_hours) {
  return shards_[static_cast<size_t>(ShardOf(id))]->TryInspect(id, now_hours);
}

Result<core::ThreatWarning> ShardedFleet::TryInspectDegraded(
    const HomeId& id, double now_hours) {
  return shards_[static_cast<size_t>(ShardOf(id))]->TryInspectDegraded(
      id, now_hours);
}

bool ShardedFleet::has_home(const HomeId& id) const {
  return shards_[static_cast<size_t>(ShardOf(id))]->has_home(id);
}

// ---- Fleet-wide inspection ----------------------------------------------

FleetWarnings ShardedFleet::InspectAll(double now_hours, int max_batch) {
  GLINT_OBS_TIMER(timer, "glint.fleet.inspect_all_ms");
  FleetWarnings out;
  out.ids.reserve(num_homes());
  out.warnings.reserve(num_homes());
  // Shard by shard, serially: each shard's InspectAll already fans the
  // per-home stage over the global thread pool, and serial shard order
  // keeps the output layout a pure function of fleet state.
  for (const auto& shard : shards_) {
    std::vector<core::ThreatWarning> w =
        shard->InspectAll(now_hours, max_batch);
    out.ids.insert(out.ids.end(), shard->home_ids().begin(),
                   shard->home_ids().end());
    out.warnings.insert(out.warnings.end(),
                        std::make_move_iterator(w.begin()),
                        std::make_move_iterator(w.end()));
  }
  return out;
}

// ---- Shard access & rollups ---------------------------------------------

core::ServingEngine& ShardedFleet::shard(int k) {
  GLINT_CHECK(k >= 0 && k < num_shards());
  return *shards_[static_cast<size_t>(k)];
}

const core::ServingEngine& ShardedFleet::shard(int k) const {
  GLINT_CHECK(k >= 0 && k < num_shards());
  return *shards_[static_cast<size_t>(k)];
}

size_t ShardedFleet::num_homes() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->num_homes();
  return n;
}

size_t ShardedFleet::total_rules() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->total_rules();
  return n;
}

core::DeploymentSession::CacheStats ShardedFleet::AggregateStats() const {
  core::DeploymentSession::CacheStats total;
  for (const auto& s : shards_) total += s->AggregateStats();
  return total;
}

void ShardedFleet::PublishShardGauges() const {
  auto& reg = obs::Registry::Global();
  for (int k = 0; k < num_shards(); ++k) PublishShardGauges(k);
  reg.GetGauge("glint.fleet.shards")->Set(num_shards());
  reg.GetGauge("glint.fleet.homes")->Set(static_cast<int64_t>(num_homes()));
}

void ShardedFleet::PublishShardGauges(int k) const {
  GLINT_CHECK(k >= 0 && k < num_shards());
  const auto& shard = *shards_[static_cast<size_t>(k)];
  const ShardGauges& g = gauges_[static_cast<size_t>(k)];
  g.homes->Set(static_cast<int64_t>(shard.num_homes()));
  g.rules->Set(static_cast<int64_t>(shard.total_rules()));
}

}  // namespace glint::fleet
