#include "plan.h"

#include <algorithm>
#include <cmath>

#include "rules/corpus.h"
#include "rules/rule_io.h"
#include "testbed/home.h"
#include "util/binio.h"
#include "util/rng.h"

namespace perfbench {

using glint::Rng;
namespace graph = glint::graph;
namespace rules = glint::rules;

namespace {

// Fixed shape of every workload. Open-loop rates are constants of the
// workload, never derived from a measurement taken during a run. They were
// sized once to about half of what a 4-core x86 VM sustains (5 s runs):
//   mixed   2x these rates still kept up (ack and inspect p99 ~100 ms,
//           mean 9 ms); 3.3x fell behind (p99 600 ms). These rates gave
//           p99 8 ms.
//   ingest  the inspect probe connection is answered one inspect at a
//           time, behind the shards' ingest batches: offered 1000/s, it
//           completed ~560/s, so 250/s is ~45% of it.
struct Shape {
  int homes;
  int min_rules, max_rules;
  int extra_rules;          // AddRule pool per home
  double lap_hours;         // simulated hours per event-stream lap
  int conns;                // open-loop connections
  double event_frames_per_s, inspects_per_s, changes_per_s;
  uint32_t events_per_frame;
  /// Deployed rules are drawn from a pool of this many (0 = every rule
  /// fresh). A pool makes dense homes share rule pairs, so registration
  /// stays cheap; deploy's changes still add fresh rules, whose pairs are
  /// new to the correlation memo. The pool itself is the same for every
  /// seed, so its character does not vary from run to run.
  int rule_pool = 0;
  /// Closed loop of rule changes (deploy): this many change→inspect steps
  /// are planned, and the run takes them in order until time is up.
  int closed_changes = 0;
};

Shape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kIngest:
      return {2000, 2, 4, 0, 24, 1, 0, 250, 0, 64, 0, 0};
    case Workload::kDeploy:
      return {200, 8, 24, 48, 24, 1, 0, 0, 0, 4, 64, 1500};
    case Workload::kMixed:
      return {500, 4, 8, 16, 24, 2, 1200, 600, 30, 8, 0, 0};
    case Workload::kAudit:
      return {1000, 7, 12, 0, 24, 0, 0, 0, 0, 0, 120};
  }
  return {};
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull ^ (b + 0x7f4a7c159e3779b9ull);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return x;
}

rules::Platform PickPlatform(Rng* rng) {
  static const std::vector<double> kWeights = {0.55, 0.05, 0.15, 0.10, 0.15};
  return static_cast<rules::Platform>(rng->Weighted(kWeights));
}

/// One lap of a home's testbed events. The home's day starts at
/// `phase_hours` of the benchmark clock, so homes are spread over the time
/// of day and the fleet's event density does not follow one diurnal cycle.
std::vector<graph::Event> SimulateLap(uint64_t seed,
                                      const std::vector<rules::Rule>& deployed,
                                      double lap_hours, double phase_hours) {
  glint::testbed::SmartHome::Config cfg;
  cfg.seed = seed;
  cfg.start_hour = phase_hours;
  glint::testbed::SmartHome home(cfg, deployed);
  home.Simulate(lap_hours);
  std::vector<graph::Event> out;
  for (auto e : home.log().events()) {
    e.time_hours -= phase_hours;
    if (e.time_hours >= 0 && e.time_hours < lap_hours) out.push_back(e);
  }
  // The stream must be chronological: an inspection at the time of a
  // home's last event must not precede any event already applied.
  std::stable_sort(out.begin(), out.end(),
                   [](const graph::Event& a, const graph::Event& b) {
                     return a.time_hours < b.time_hours;
                   });
  if (out.empty()) {
    graph::Event e;
    e.time_hours = lap_hours / 2;
    e.device = rules::DeviceType::kMotionSensor;
    e.location = rules::Location::kHallway;
    e.state = "active";
    out.push_back(e);
  }
  return out;
}

int64_t DueNs(double i, double per_s) {
  return static_cast<int64_t>(std::llround(i * 1e9 / per_s));
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kIngest, Workload::kDeploy, Workload::kMixed,
                     Workload::kAudit}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kIngest: return "ingest";
    case Workload::kDeploy: return "deploy";
    case Workload::kMixed: return "mixed";
    case Workload::kAudit: return "audit";
  }
  return "?";
}

graph::Event HomePlan::EventAt(uint64_t i) const {
  graph::Event e = base[i % base.size()];
  e.time_hours += lap_hours * static_cast<double>(i / base.size());
  return e;
}

uint64_t HomePlan::EventsUpTo(double t) const {
  const uint64_t n = base.size();
  if (t < 0) return 0;
  const uint64_t laps = static_cast<uint64_t>(t / lap_hours);
  const double in_lap = t - lap_hours * static_cast<double>(laps);
  const auto it = std::upper_bound(
      base.begin(), base.end(), in_lap,
      [](double v, const graph::Event& e) { return v < e.time_hours; });
  return laps * n + static_cast<uint64_t>(it - base.begin());
}

Plan MakePlan(Workload w, uint64_t seed, double seconds) {
  const Shape s = ShapeOf(w);
  Plan plan;
  plan.workload = w;
  plan.seed = seed;
  plan.seconds = seconds;
  Rng rng(Mix(seed, 0x10ad + static_cast<uint64_t>(w)));

  // Rules: a seeded corpus generator distinct from the detector's training
  // corpus, so rule pairs are new to the correlation memo.
  rules::CorpusConfig cc;
  cc.seed = Mix(seed, 0xc0de + static_cast<uint64_t>(w));
  rules::CorpusGenerator gen(cc);

  std::vector<rules::Rule> pool;
  {
    rules::CorpusConfig pool_cc;
    pool_cc.seed = 0xa0d17;
    rules::CorpusGenerator pool_gen(pool_cc);
    Rng pool_rng(0xa0d17);
    for (int i = 0; i < s.rule_pool; ++i) {
      pool.push_back(pool_gen.GenerateRule(PickPlatform(&pool_rng)));
    }
  }
  plan.homes.resize(static_cast<size_t>(s.homes));
  for (int h = 0; h < s.homes; ++h) {
    HomePlan& home = plan.homes[static_cast<size_t>(h)];
    home.id = std::string(WorkloadName(w)) + "-" + std::to_string(seed) +
              "-" + std::to_string(h);
    const int n = static_cast<int>(rng.Int(s.min_rules, s.max_rules));
    for (int i = 0; i < n; ++i) {
      if (pool.empty()) {
        home.rules.push_back(gen.GenerateRule(PickPlatform(&rng)));
        continue;
      }
      // Distinct pool entries, each under a home-unique rule id.
      rules::Rule r;
      do {
        r = pool[rng.Below(pool.size())];
      } while (std::any_of(home.rules.begin(), home.rules.end(),
                           [&](const rules::Rule& x) { return x.text == r.text; }));
      r.id = 100000 + i;
      home.rules.push_back(std::move(r));
    }
    for (int i = 0; i < s.extra_rules; ++i) {
      home.extra.push_back(gen.GenerateRule(PickPlatform(&rng)));
    }
    home.lap_hours = s.lap_hours;
    const double phase = rng.Uniform(0, s.lap_hours);
    home.base = SimulateLap(Mix(seed, 0x4e00000 + static_cast<uint64_t>(h)),
                            home.rules, s.lap_hours, phase);
  }

  const int64_t horizon = static_cast<int64_t>(seconds * 1e9);
  switch (w) {
    case Workload::kIngest: {
      plan.batch = s.events_per_frame;
      plan.window = 16;
      plan.ingest_conns = 2;
      plan.conns = plan.ingest_conns + 1;
      for (int64_t i = 0;; ++i) {
        Op op;
        op.due_ns = DueNs(static_cast<double>(i), s.inspects_per_s);
        if (op.due_ns >= horizon) break;
        op.kind = OpKind::kInspect;
        op.home = static_cast<int32_t>(rng.Below(plan.homes.size()));
        op.conn = plan.ingest_conns;
        op.now_hours = -1;
        plan.ops.push_back(op);
      }
      break;
    }
    case Workload::kDeploy:
    case Workload::kMixed: {
      plan.conns = s.conns;
      // Per-home generator-side state: stream position, clock, and the
      // currently deployed rule ids (for RemoveRule targets).
      std::vector<uint64_t> next_event(plan.homes.size(), 0);
      std::vector<size_t> next_extra(plan.homes.size(), 0);
      std::vector<std::vector<int>> deployed(plan.homes.size());
      for (size_t h = 0; h < plan.homes.size(); ++h) {
        for (const auto& r : plan.homes[h].rules) deployed[h].push_back(r.id);
      }
      auto clock = [&](size_t h) {
        return next_event[h] == 0
                   ? 0.0
                   : plan.homes[h].EventAt(next_event[h] - 1).time_hours;
      };
      auto push_events = [&](int64_t due, size_t h, uint32_t n) {
        Op op;
        op.due_ns = due;
        op.home = static_cast<int32_t>(h);
        op.conn = static_cast<int32_t>(h % static_cast<size_t>(s.conns));
        op.kind = OpKind::kEvents;
        op.first = next_event[h];
        op.count = n;
        next_event[h] += n;
        plan.ops.push_back(op);
      };
      auto push_change = [&](int64_t due, size_t h) {
        Op op;
        op.due_ns = due;
        op.home = static_cast<int32_t>(h);
        op.conn = static_cast<int32_t>(h % static_cast<size_t>(s.conns));
        auto& ids = deployed[h];
        const bool can_add = next_extra[h] < plan.homes[h].extra.size() &&
                             ids.size() < static_cast<size_t>(s.max_rules);
        const bool can_remove = ids.size() > static_cast<size_t>(s.min_rules);
        if (can_add && (!can_remove || rng.Chance(0.5))) {
          op.kind = OpKind::kAddRule;
          op.first = next_extra[h]++;
          ids.push_back(plan.homes[h].extra[op.first].id);
        } else {
          op.kind = OpKind::kRemoveRule;
          const size_t k = rng.Below(ids.size());
          op.first = static_cast<uint64_t>(ids[k]);
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
        }
        plan.ops.push_back(op);
      };
      auto push_inspect = [&](int64_t due, size_t h) {
        Op op;
        op.due_ns = due;
        op.home = static_cast<int32_t>(h);
        op.conn = static_cast<int32_t>(h % static_cast<size_t>(s.conns));
        op.kind = OpKind::kInspect;
        op.now_hours = clock(h);
        plan.ops.push_back(op);
      };
      // Independent fixed-rate streams, merged by due time.
      struct Stream {
        double per_s;
        int kind;  // 0 events, 1 inspect, 2 change(+inspect)
        int64_t i = 0;
      };
      std::vector<Stream> streams;
      if (s.event_frames_per_s > 0) streams.push_back({s.event_frames_per_s, 0});
      if (s.inspects_per_s > 0) streams.push_back({s.inspects_per_s, 1});
      if (s.changes_per_s > 0) streams.push_back({s.changes_per_s, 2});
      for (int i = 0; i < s.closed_changes; ++i) {
        // deploy: sparse events ahead of some changes, then the change and
        // the inspect that checks it.
        const size_t h = rng.Below(plan.homes.size());
        if (rng.Chance(0.3)) push_events(0, h, static_cast<uint32_t>(rng.Int(1, 4)));
        push_change(0, h);
        push_inspect(0, h);
      }
      plan.closed_ops = s.closed_changes > 0;
      while (!streams.empty()) {
        Stream* next = nullptr;
        for (auto& st : streams) {
          if (next == nullptr || DueNs(static_cast<double>(st.i), st.per_s) <
                                     DueNs(static_cast<double>(next->i),
                                           next->per_s)) {
            next = &st;
          }
        }
        const int64_t due = DueNs(static_cast<double>(next->i), next->per_s);
        if (due >= horizon) break;
        ++next->i;
        const size_t h = rng.Below(plan.homes.size());
        if (next->kind == 0) {
          push_events(due, h, s.events_per_frame);
        } else if (next->kind == 1) {
          push_inspect(due, h);
        } else {
          push_change(due, h);
        }
      }
      break;
    }
    case Workload::kAudit: {
      plan.sweep_batch = 64;
      plan.sweep_start_hours = 6;
      // Longer than the 3 h window and not a divisor of the 24 h lap: every
      // sweep sees a fresh window at a new time of day, so the share of
      // verdict-cache misses per sweep stays the same however many sweeps
      // a run makes.
      plan.sweep_step_hours = 3.7;
      for (auto& home : plan.homes) {
        home.history = home.EventsUpTo(plan.sweep_start_hours);
      }
      break;
    }
  }
  return plan;
}

uint64_t PlanDigest(const Plan& plan) {
  glint::util::ByteWriter w;
  w.U32(static_cast<uint32_t>(plan.workload));
  w.U64(plan.seed);
  w.F64(plan.seconds);
  w.U32(static_cast<uint32_t>(plan.conns));
  w.U32(plan.batch);
  w.U64(plan.window);
  w.U32(static_cast<uint32_t>(plan.ingest_conns));
  w.U32(static_cast<uint32_t>(plan.sweep_batch));
  w.U8(plan.closed_ops ? 1 : 0);
  w.F64(plan.sweep_start_hours);
  w.F64(plan.sweep_step_hours);
  for (const auto& h : plan.homes) {
    w.Str(h.id);
    w.F64(h.lap_hours);
    w.U64(h.history);
    for (const auto* set : {&h.rules, &h.extra}) {
      w.U32(static_cast<uint32_t>(set->size()));
      for (const auto& r : *set) {
        w.I32(r.id);
        glint::rules::WriteRule(&w, r);
      }
    }
    w.U32(static_cast<uint32_t>(h.base.size()));
    for (const auto& e : h.base) glint::graph::WriteEvent(&w, e);
  }
  for (const auto& op : plan.ops) {
    w.U64(static_cast<uint64_t>(op.due_ns));
    w.I32(op.home);
    w.I32(op.conn);
    w.U8(static_cast<uint8_t>(op.kind));
    w.U32(op.count);
    w.U64(op.first);
    w.F64(op.now_hours);
  }
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : w.buffer()) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace perfbench
