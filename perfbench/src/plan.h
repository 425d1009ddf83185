#pragma once

// Workload inputs of the repository benchmark. A Plan is a pure function of
// (workload, seed, run length): homes, their rule deployments, their device
// event streams, and the open-loop request schedule. Nothing measured while
// a run executes feeds back into a Plan.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/event_log.h"
#include "rules/rule.h"

namespace perfbench {

enum class Workload { kIngest, kDeploy, kMixed, kAudit };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// One simulated home.
struct HomePlan {
  std::string id;
  /// Rules deployed when the home is registered.
  std::vector<glint::rules::Rule> rules;
  /// Fresh rules that AddRule ops deploy, in order.
  std::vector<glint::rules::Rule> extra;
  /// One lap of the home's testbed event stream, times in [0, lap_hours).
  std::vector<glint::graph::Event> base;
  double lap_hours = 24;
  /// Leading stream events applied at registration (audit histories).
  uint64_t history = 0;

  /// Event i of the home's unbounded stream: base[i % n] shifted by whole
  /// laps, so times never decrease along the stream.
  glint::graph::Event EventAt(uint64_t i) const;
  /// Stream events with time <= t.
  uint64_t EventsUpTo(double t) const;
};

enum class OpKind : uint8_t { kEvents, kAddRule, kRemoveRule, kInspect };

/// One scheduled request. Every op of a home rides the same connection, so
/// per-home order at the server is the schedule order.
struct Op {
  int64_t due_ns = 0;  ///< offset from the start of the measured phase
  int32_t home = 0;
  int32_t conn = 0;
  OpKind kind = OpKind::kInspect;
  uint32_t count = 0;  ///< kEvents: events in the batch
  /// kEvents: first stream index; kAddRule: index into HomePlan::extra;
  /// kRemoveRule: the rule id.
  uint64_t first = 0;
  /// kInspect: inspection time; negative = the home's live event clock at
  /// send time (ingest, whose event stream is closed-loop).
  double now_hours = 0;
};

struct Plan {
  Workload workload = Workload::kIngest;
  uint64_t seed = 0;
  double seconds = 0;
  std::vector<HomePlan> homes;
  /// Request schedule: open loop, sorted by due_ns; or, when closed_ops,
  /// a closed loop taken in order (each inspect waits for its verdict
  /// before the next op is sent; due_ns unused).
  std::vector<Op> ops;
  bool closed_ops = false;
  /// Connections the schedule spreads over (op.conn < conns).
  int conns = 1;
  // ingest: closed-loop event batches.
  uint32_t batch = 0;   ///< events per kEventBatch frame
  size_t window = 0;    ///< in-flight frames per connection
  int ingest_conns = 0; ///< closed-loop connections (inspects ride their own)
  // audit: InspectAll sweeps.
  int sweep_batch = 0;
  double sweep_start_hours = 0;
  double sweep_step_hours = 0;
};

Plan MakePlan(Workload w, uint64_t seed, double seconds);

/// Digest of every byte of the plan (homes, rules, events, schedule).
uint64_t PlanDigest(const Plan& plan);

}  // namespace perfbench
