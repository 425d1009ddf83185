// The traced run: the workload's generated inputs replayed in-process,
// each call into a layer's public functions wrapped in a span of this
// file's tracer. Spans nest on the replay thread; a span's self time is its
// duration minus its children's, so the self times of every span plus the
// replay's unattributed gaps add up to the replay's wall time exactly.
//
// Every op of the plan is applied to several copies of the home state, one
// per layer under measurement:
//   wire      EncodeRequest+AppendFrame / DecodeFrame+DecodeRequest
//   fleet     an in-process FleetServer: kPing round trips, and its
//             EventBus (Post / PostBatch / RunOnShard) feeding its shards
//   engine    ServingEngine Try* on an in-memory and a durable engine
//   session   DeploymentSession BeginInspect / FinishInspect
//   graph     a LiveGraph whose edge predicate and node factory are timed
//             wrappers of TrainedDetector::Correlated / MakeNode, then the
//             inspect pipeline piece by piece (materialize, tensorize,
//             drift embedding, classification forward, explainer) and
//             TrainedDetector::Analyze whole
// The detector's memo caches are shared, so the graph copy (applied first)
// pays every correlation and embedding miss; the other copies see them
// warm, as a server sees a rule pair the second time.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/explain.h"
#include "core/serving.h"
#include "fleet/server.h"
#include "gnn/ggraph.h"
#include "gnn/tensor.h"
#include "gnn/trainer.h"
#include "graph/live_graph.h"
#include "runs.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace core = glint::core;
namespace fleet = glint::fleet;
namespace gnn = glint::gnn;
namespace graph = glint::graph;
namespace rules = glint::rules;
namespace wire = glint::fleet::wire;

namespace {

/// Nested spans of one thread, aggregated by name. Every span is checked as
/// it closes: it must lie inside its parent (the replay itself for a
/// top-level span), after the parent's previous child, and its children
/// must not outlast it. A span that breaks this, such as one interval
/// recorded twice, counts as a violation, so the self times are a proper
/// partition of the replay only when violations() is 0.
class Tracer {
 public:
  struct Agg {
    uint64_t n = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  /// Starts the replay; top-level spans must begin at or after `origin_ns`.
  void Start(int64_t origin_ns) { stack_ = {{"", origin_ns, 0, origin_ns}}; }

  void Begin(const char* name) { stack_.push_back({name, MonoNs(), 0, 0}); }
  /// Ends the innermost span, recorded under `name` when given (a span
  /// named by how the call turned out); returns its duration.
  int64_t End(const char* name = nullptr) {
    Open o = stack_.back();
    stack_.pop_back();
    const int64_t end = MonoNs();
    Record(name != nullptr ? name : o.name, o.start, end, o.child_ns);
    return end - o.start;
  }
  /// A child span measured elsewhere (another thread's work the current
  /// span waited for), from `start_ns` to `end_ns`.
  void Child(const char* name, int64_t start_ns, int64_t end_ns) {
    Record(name, start_ns, end_ns, 0);
  }

  const Agg& Get(const std::string& name) { return aggs_[name]; }
  const std::map<std::string, Agg>& aggs() const { return aggs_; }
  /// Time covered by top-level spans.
  int64_t top_level_ns() const { return stack_.front().child_ns; }
  /// Spans that broke the nesting rules, plus spans still open, plus a
  /// top-level span that ended after `end_ns`.
  uint64_t violations(int64_t end_ns) const {
    return violations_ + (stack_.size() - 1) + (stack_.front().last_end > end_ns);
  }

 private:
  struct Open {
    const char* name;
    int64_t start;
    int64_t child_ns;
    int64_t last_end;  ///< end of the latest closed child
  };
  void Record(const char* name, int64_t start, int64_t end, int64_t child_ns) {
    Open& parent = stack_.back();
    if (start < parent.start || start < parent.last_end || end < start ||
        child_ns > end - start) {
      ++violations_;
    }
    parent.last_end = end;
    parent.child_ns += end - start;
    Agg& a = aggs_[name];
    ++a.n;
    a.total_ns += end - start;
    a.self_ns += end - start - child_ns;
  }

  std::vector<Open> stack_ = {{"", 0, 0, 0}};
  std::map<std::string, Agg> aggs_;
  uint64_t violations_ = 0;
};

class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t) { t_->Begin(name); }
  ~Span() { t_->End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& span) {
  return span.substr(0, span.find('.'));
}

}  // namespace

RunResult RunTraced(const Plan& plan, const RunConfig& cfg) {
  RunResult res;
  std::string first_error;
  auto fail = [&](const std::string& why) {
    ++res.failed;
    if (first_error.empty()) first_error = why;
  };
  const size_t n = plan.homes.size();

  // ---- Untimed set-up: detector, in-process server, engines -------------
  core::TrainedDetector det(ServeOptions());
  det.TrainOffline();
  fleet::FleetConfig fc;
  fc.num_shards = 2;
  fleet::ShardedFleet fl(&det, fc);
  fleet::FleetServer server(&fl, fleet::FleetServer::Config{});
  if (!server.Start().ok()) {
    res.Fail("in-process server failed to start");
    return res;
  }
  wire::Client ping_client;
  if (!ping_client.Connect("127.0.0.1", server.port()).ok()) {
    res.Fail("in-process server connect failed");
    return res;
  }
  core::ServingEngine mem(&det);
  core::ServingEngine dur(&det);
  if (!dur.Recover(cfg.workdir + "/traced-state").ok()) {
    res.Fail("durable engine recovery failed");
    return res;
  }

  Tracer tr;
  uint64_t pairs = 0, graph_add_rules = 0;
  std::vector<std::unique_ptr<graph::LiveGraph>> lg;
  std::vector<std::unique_ptr<core::DeploymentSession>> sess;
  const graph::LiveGraph::Config lg_cfg{3.0, det.options().builder.device_edges};
  for (size_t h = 0; h < n; ++h) {
    lg.push_back(std::make_unique<graph::LiveGraph>(
        lg_cfg,
        [&](const rules::Rule& a, const rules::Rule& b) {
          Span s(&tr, "correlation.pair");
          ++pairs;
          return det.Correlated(a, b);
        },
        [&](const rules::Rule& r) {
          Span s(&tr, "embed.make_node");
          return det.MakeNode(r);
        }));
    sess.push_back(std::make_unique<core::DeploymentSession>(&det));
  }
  const size_t corr_hits0 = det.correlation_cache().hits();
  const size_t corr_misses0 = det.correlation_cache().misses();

  uint64_t frames = 0, frame_bytes = 0, codec_events = 0, ops_done = 0;
  uint64_t inspects = 0, threats = 0, drifting = 0, nodes = 0, live_edges = 0;
  Samples queue_wait_us;
  std::vector<double> home_clock(n, 0);
  std::vector<uint64_t> home_events(n, 0);

  // The codec on every frame: encode, then decode what was encoded.
  auto codec = [&](const wire::Request& req) {
    std::vector<char> bytes;
    {
      Span s(&tr, "wire.encode");
      wire::AppendFrame(&bytes, wire::EncodeRequest(req));
    }
    {
      Span s(&tr, "wire.decode");
      glint::util::ByteReader r(bytes);
      std::vector<char> payload;
      wire::Request back;
      if (!wire::DecodeFrame(&r, &payload).ok() ||
          !wire::DecodeRequest(payload, &back).ok()) {
        fail("codec round trip failed");
      }
    }
    ++frames;
    frame_bytes += bytes.size();
  };
  auto post = [&](fleet::BusMessage msg, bool batch) {
    Span s(&tr, batch ? "bus.post_batch" : "bus.post");
    const glint::Status st = batch ? server.bus().PostBatch(std::move(msg))
                                   : server.bus().Post(std::move(msg));
    if (!st.ok()) fail("bus post: " + st.ToString());
  };

  auto add_home = [&](size_t h) {
    const HomePlan& home = plan.homes[h];
    wire::Request req;
    req.type = wire::MsgType::kAddHome;
    req.home = home.id;
    req.rules = home.rules;
    codec(req);
    for (const auto& r : home.rules) {
      Span s(&tr, "graph.add_rule");
      lg[h]->AddRule(r);
      ++graph_add_rules;
    }
    {
      Span s(&tr, "session.add_rule");
      for (const auto& r : home.rules) sess[h]->AddRule(r);
    }
    {
      Span s(&tr, "engine.add_home");
      if (!mem.TryAddHome(home.id, home.rules).ok()) fail("add home");
    }
    {
      Span s(&tr, "engine.add_home_durable");
      if (!dur.TryAddHome(home.id, home.rules).ok()) fail("add home (durable)");
    }
    fleet::BusMessage msg;
    msg.kind = fleet::BusMessage::Kind::kAddHome;
    msg.home = home.id;
    msg.rules = home.rules;
    post(std::move(msg), false);
  };

  auto events = [&](size_t h, uint64_t first, uint32_t count) {
    const HomePlan& home = plan.homes[h];
    wire::Request req;
    req.type = wire::MsgType::kEventBatch;
    req.home = home.id;
    req.seq = first + 1;
    for (uint32_t i = 0; i < count; ++i) req.events.push_back(home.EventAt(first + i));
    codec(req);
    codec_events += count;
    {
      Span s(&tr, "graph.on_event");
      for (const auto& e : req.events) lg[h]->OnEvent(e);
    }
    {
      Span s(&tr, "session.on_event");
      for (const auto& e : req.events) sess[h]->OnEvent(e);
    }
    {
      Span s(&tr, "engine.on_event");
      for (const auto& e : req.events) {
        if (!mem.TryOnEvent(home.id, e).ok()) fail("event");
      }
    }
    {
      Span s(&tr, "engine.on_event_durable");
      for (const auto& e : req.events) {
        if (!dur.TryOnEvent(home.id, e).ok()) fail("event (durable)");
      }
    }
    fleet::BusMessage msg;
    msg.kind = fleet::BusMessage::Kind::kEventBatch;
    msg.home = home.id;
    msg.seq = req.seq;
    msg.events = std::move(req.events);
    post(std::move(msg), true);
    home_clock[h] = home.EventAt(first + count - 1).time_hours;
    home_events[h] = first + count;
  };

  auto change = [&](size_t h, const Op& op) {
    const HomePlan& home = plan.homes[h];
    const bool add = op.kind == OpKind::kAddRule;
    wire::Request req;
    req.type = add ? wire::MsgType::kAddRule : wire::MsgType::kRemoveRule;
    req.home = home.id;
    if (add) req.rule = home.extra[op.first];
    req.rule_id = static_cast<int32_t>(op.first);
    codec(req);
    if (add) {
      Span s(&tr, "graph.add_rule");
      lg[h]->AddRule(req.rule);
      ++graph_add_rules;
    } else {
      Span s(&tr, "graph.remove_rule");
      lg[h]->RemoveRule(req.rule_id);
    }
    {
      Span s(&tr, "session.change");
      if (add) sess[h]->AddRule(req.rule); else sess[h]->RemoveRule(req.rule_id);
    }
    {
      Span s(&tr, "engine.change");
      if (!(add ? mem.TryAddRule(home.id, req.rule)
                : mem.TryRemoveRule(home.id, req.rule_id)).ok()) {
        fail("change");
      }
    }
    {
      Span s(&tr, "engine.change_durable");
      if (!(add ? dur.TryAddRule(home.id, req.rule)
                : dur.TryRemoveRule(home.id, req.rule_id)).ok()) {
        fail("change (durable)");
      }
    }
    fleet::BusMessage msg;
    msg.kind = add ? fleet::BusMessage::Kind::kAddRule
                   : fleet::BusMessage::Kind::kRemoveRule;
    msg.home = home.id;
    msg.rule = req.rule;
    msg.rule_id = req.rule_id;
    post(std::move(msg), false);
  };

  auto inspect = [&](size_t h, double now) {
    const HomePlan& home = plan.homes[h];
    wire::Request req;
    req.type = wire::MsgType::kInspect;
    req.home = home.id;
    req.now_hours = now;
    codec(req);
    ++inspects;
    // Fleet: the shard consumer runs the inspect behind its queue.
    {
      Span s(&tr, "bus.run_on_shard");
      const int64_t called = MonoNs();
      int64_t began = 0, ended = 0;
      bool ok = false;
      const glint::Status st = server.bus().RunOnShard(fl.ShardOf(home.id), [&] {
        began = MonoNs();
        ok = fl.TryInspect(home.id, now).ok();
        ended = MonoNs();
      });
      if (!st.ok() || !ok) fail("fleet inspect");
      if (began > 0) {
        queue_wait_us.Add(static_cast<double>(began - called) * 1e-3);
        tr.Child("engine.fleet_inspect", began, ended);
      }
    }
    {
      Span s(&tr, "engine.inspect");
      if (!mem.TryInspect(home.id, now).ok()) fail("engine inspect");
    }
    // Session: split inspection. A BeginInspect that the verdict cache
    // answers is recorded as session.hit_inspect, a miss as
    // session.begin_inspect.
    {
      core::DeploymentSession& ss = *sess[h];
      const size_t hits = ss.verdict_hits();
      tr.Begin("session.begin_inspect");
      core::DeploymentSession::Pending p = ss.BeginInspect(now);
      const bool hit = ss.verdict_hits() != hits;
      tr.End(hit ? "session.hit_inspect" : "session.begin_inspect");
      if (!hit) {
        core::ThreatWarning w;
        {
          Span s(&tr, "session.analyze");
          w = det.Analyze(*p.gg, p.graph);
        }
        Span s(&tr, "session.finish_inspect");
        ss.FinishInspect(w);
      }
    }
    // Graph and model layers, piece by piece.
    std::vector<graph::Edge> edges;
    {
      Span s(&tr, "graph.realtime_edges");
      edges = lg[h]->RealTimeEdges(now);
    }
    graph::InteractionGraph g;
    {
      Span s(&tr, "graph.materialize");
      g = lg[h]->Materialize(edges);
    }
    nodes += static_cast<uint64_t>(g.num_nodes());
    live_edges += edges.size();
    if (g.num_nodes() == 0) return;
    gnn::GnnGraph gg;
    {
      Span s(&tr, "gnn.tensorize");
      gg = gnn::ToGnnGraph(g);
    }
    bool threat = false;
    {
      Span s(&tr, "gnn.drift_embed");
      const auto z = gnn::Trainer::Embed(det.contrastive(), gg);
      drifting += det.drift_detector().IsDrifting(z);
    }
    {
      Span s(&tr, "gnn.classify_forward");
      gnn::ScopedTape tape;
      tape->set_freeze_leaves(true);
      auto r = det.classifier()->Forward(tape.get(), gg);
      double p[2];
      gnn::SoftmaxRowInto(r.logits, p);
      threat = p[1] > 0.5;
    }
    threats += threat;
    if (threat) {
      Span s(&tr, "explain.nodes");
      (void)core::ExplainNodes(det.classifier(), gg);
    }
    {
      Span s(&tr, "detector.analyze");
      const core::ThreatWarning w = det.Analyze(gg, g);
      if (w.threat != threat) fail("piecewise and whole Analyze disagree");
    }
  };

  // ---- The traced replay ----------------------------------------------------
  // Registration always completes; the op stream after it runs for the
  // run length.
  const int64_t budget = static_cast<int64_t>(plan.seconds * 1e9);
  const int64_t t0 = MonoNs();
  tr.Start(t0);
  int64_t ops_start = t0;
  auto time_left = [&] { return MonoNs() - ops_start < budget; };
  auto ping = [&] {
    wire::Request req;
    req.type = wire::MsgType::kPing;
    wire::Reply reply;
    Span s(&tr, "server.ping");
    if (!ping_client.Call(req, &reply).ok()) fail("ping");
  };

  for (size_t h = 0; h < n; ++h) {
    add_home(h);
    if (plan.workload == Workload::kAudit) {
      const HomePlan& home = plan.homes[h];
      if (home.history > 0) {
        events(h, 0, static_cast<uint32_t>(std::min<uint64_t>(home.history, 512)));
      }
    }
  }
  ops_start = MonoNs();
  switch (plan.workload) {
    case Workload::kIngest: {
      // Round-robin batches as on the wire; the scheduled inspects are
      // interleaved at one per 100 frames.
      size_t next_inspect = 0;
      for (uint64_t r = 0; time_left(); ++r) {
        for (size_t h = 0; h < n && time_left(); ++h) {
          events(h, r * plan.batch, plan.batch);
          ++ops_done;
          if (ops_done % 100 == 0 && next_inspect < plan.ops.size()) {
            const size_t target = static_cast<size_t>(plan.ops[next_inspect++].home);
            inspect(target, home_clock[target]);
            ++ops_done;
          }
          if (ops_done % 64 == 0) ping();
        }
      }
      break;
    }
    case Workload::kDeploy:
    case Workload::kMixed:
      for (const Op& op : plan.ops) {
        if (!time_left()) break;
        const size_t h = static_cast<size_t>(op.home);
        switch (op.kind) {
          case OpKind::kEvents: events(h, op.first, op.count); break;
          case OpKind::kAddRule:
          case OpKind::kRemoveRule: change(h, op); break;
          case OpKind::kInspect: inspect(h, op.now_hours); break;
        }
        if (++ops_done % 16 == 0) ping();
      }
      break;
    case Workload::kAudit: {
      // Sweep steps: feed every home up to the sweep time, inspect it.
      double now = plan.sweep_start_hours;
      for (size_t h = 0; h < n; ++h) {
        home_clock[h] = plan.homes[h].EventAt(home_events[h] - 1).time_hours;
      }
      while (time_left()) {
        for (size_t h = 0; h < n && time_left(); ++h) {
          const uint64_t upto = plan.homes[h].EventsUpTo(now);
          if (upto > home_events[h]) {
            events(h, home_events[h], static_cast<uint32_t>(std::min<uint64_t>(
                                          upto - home_events[h], 512)));
          }
          inspect(h, std::max(now, home_clock[h]));
          if (++ops_done % 64 == 0) ping();
        }
        now += plan.sweep_step_hours;
      }
      break;
    }
  }
  // Batched analysis and the pool fan-out over the homes the replay built.
  {
    std::vector<gnn::GnnGraph> ggs;
    std::vector<graph::InteractionGraph> gs;
    for (size_t h = 0; h < n && gs.size() < 64; ++h) {
      Span s(&tr, "graph.sweep_prepare");
      graph::InteractionGraph g =
          lg[h]->MaterializeRealTime(std::max(home_clock[h], lg[h]->latest_event_hours()));
      if (g.num_nodes() == 0) continue;
      ggs.push_back(gnn::ToGnnGraph(g));
      gs.push_back(std::move(g));
    }
    std::vector<const gnn::GnnGraph*> gp;
    std::vector<const graph::InteractionGraph*> ip;
    for (size_t i = 0; i < gs.size(); ++i) {
      gp.push_back(&ggs[i]);
      ip.push_back(&gs[i]);
    }
    const size_t kBatch = static_cast<size_t>(std::max(1, plan.sweep_batch > 0 ? plan.sweep_batch : 64));
    for (size_t i = 0; i < gp.size(); i += kBatch) {
      const size_t j = std::min(gp.size(), i + kBatch);
      Span s(&tr, "gnn.batch_analyze");
      det.AnalyzeBatch({gp.begin() + static_cast<std::ptrdiff_t>(i),
                        gp.begin() + static_cast<std::ptrdiff_t>(j)},
                       {ip.begin() + static_cast<std::ptrdiff_t>(i),
                        ip.begin() + static_cast<std::ptrdiff_t>(j)});
    }
    int64_t serial_ns = 0;
    {
      Span s(&tr, "pool.serial_analyze");
      const int64_t a = MonoNs();
      for (size_t i = 0; i < gp.size(); ++i) det.Analyze(*gp[i], *ip[i]);
      serial_ns = MonoNs() - a;
    }
    int64_t fanout_ns = 0;
    {
      Span s(&tr, "pool.parallel_analyze");
      const int64_t a = MonoNs();
      glint::ParallelFor(0, static_cast<int64_t>(gp.size()), 1,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) {
                             det.Analyze(*gp[static_cast<size_t>(i)],
                                         *ip[static_cast<size_t>(i)]);
                           }
                         });
      fanout_ns = MonoNs() - a;
    }
    const int threads = glint::ThreadPool::Global().threads();
    res.json.Set("pool.audit_parallel_efficiency",
                 fanout_ns > 0 ? static_cast<double>(serial_ns) /
                                     (static_cast<double>(fanout_ns) * threads)
                               : 0,
                 "ratio");
    res.report.Set("pool.graphs", static_cast<double>(gp.size()), "count");
  }
  const int64_t wall = MonoNs() - t0;

  // ---- Counters read after the replay --------------------------------------
  wire::Reply stats;
  {
    wire::Request req;
    req.type = wire::MsgType::kStats;
    if (!ping_client.Call(req, &stats).ok()) fail("kStats");
  }
  ping_client.Close();
  size_t high_water = 0;
  for (int k = 0; k < fl.num_shards(); ++k) {
    high_water = std::max(high_water, server.bus().queue_high_water(k));
  }
  const double events_per_msg =
      static_cast<double>(server.bus().posted_events()) /
      static_cast<double>(std::max<uint64_t>(1, server.bus().posted()));
  server.Stop();
  double max_homes = 0, sum_homes = 0;
  for (int k = 0; k < fl.num_shards(); ++k) {
    const double h = static_cast<double>(fl.shard(k).num_homes());
    max_homes = std::max(max_homes, h);
    sum_homes += h;
  }
  core::DeploymentSession::CacheStats ss;
  for (const auto& s : sess) ss += s->Stats();
  const size_t corr_hits = det.correlation_cache().hits() - corr_hits0;
  const size_t corr_misses = det.correlation_cache().misses() - corr_misses0;

  // ---- Accounting: self times + unattributed == wall ------------------------
  // The tracer checks each span against its parent and siblings as it
  // closes; with no violation the top-level spans are disjoint intervals of
  // the replay and every span's children disjoint intervals of it, so the
  // self times and the unattributed gaps partition the wall time.
  int64_t self_sum = 0;
  std::map<std::string, int64_t> layer_self;
  for (const auto& [name, a] : tr.aggs()) {
    self_sum += a.self_ns;
    layer_self[LayerOf(name)] += a.self_ns;
  }
  const int64_t unattributed = wall - tr.top_level_ns();
  if (const uint64_t v = tr.violations(t0 + wall); v != 0) {
    fail(std::to_string(v) + " spans overlap a sibling or outlast their parent");
  }
  if (unattributed < 0 || self_sum + unattributed != wall) {
    fail("self times do not partition the replay wall time");
  }
  for (const auto& [name, a] : tr.aggs()) {
    std::printf("span %-28s n=%-8llu total_ms=%-10.3f self_ms=%-10.3f\n",
                name.c_str(), static_cast<unsigned long long>(a.n),
                static_cast<double>(a.total_ns) * 1e-6,
                static_cast<double>(a.self_ns) * 1e-6);
  }
  for (const auto& [layer, ns] : layer_self) {
    std::printf("layer %-14s self %8.2f ms  %5.1f%% of replay wall\n",
                layer.c_str(), static_cast<double>(ns) * 1e-6,
                100.0 * static_cast<double>(ns) / static_cast<double>(wall));
  }
  std::printf("layer %-14s self %8.2f ms  %5.1f%% of replay wall\n",
              "(unattributed)", static_cast<double>(unattributed) * 1e-6,
              100.0 * static_cast<double>(unattributed) /
                  static_cast<double>(wall));
  std::printf("replay wall %.3f ms = layer self times + unattributed\n",
              static_cast<double>(wall) * 1e-6);

  // ---- Per-layer metrics ------------------------------------------------------
  auto mean_us = [&](const char* span) {
    const Tracer::Agg& a = tr.Get(span);
    return a.n ? static_cast<double>(a.total_ns) * 1e-3 / static_cast<double>(a.n) : 0.0;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto total_us = [&](const char* span) {
    return static_cast<double>(tr.Get(span).total_ns) * 1e-3;
  };
  const double ev = static_cast<double>(codec_events);
  Report& j = res.json;
  j.Set("wire.encode_us", mean_us("wire.encode"), "us");
  j.Set("wire.decode_us", mean_us("wire.decode"), "us");
  j.Set("wire.bytes_per_event", per(static_cast<double>(frame_bytes), static_cast<double>(frames)) *
                                    per(static_cast<double>(frames), ev),
        "bytes");
  j.Set("server.ping_rtt_us", mean_us("server.ping"), "us");
  j.Set("server.requests", static_cast<double>(stats.server_requests), "count");
  j.Set("server.overloaded", static_cast<double>(stats.server_overloaded), "count");
  j.Set("bus.post_batch_us", mean_us("bus.post_batch"), "us");
  j.Set("bus.queue_wait_p50_us", queue_wait_us.Pct(0.5), "us");
  j.Set("bus.queue_wait_p99_us", queue_wait_us.Pct(0.99), "us");
  j.Set("bus.queue_high_water", static_cast<double>(high_water), "count");
  j.Set("bus.events_per_message", events_per_msg, "ratio");
  j.Set("fleet.shard_skew", per(max_homes, sum_homes / fl.num_shards()), "ratio");
  j.Set("engine.on_event_us", per(total_us("engine.on_event"), ev), "us");
  j.Set("engine.on_event_durable_us", per(total_us("engine.on_event_durable"), ev), "us");
  j.Set("engine.add_home_us", mean_us("engine.add_home"), "us");
  j.Set("session.verdict_hit_ratio",
        per(static_cast<double>(ss.verdict_hits), static_cast<double>(ss.inspects)), "ratio");
  j.Set("session.tensor_hit_ratio",
        per(static_cast<double>(ss.tensor_hits),
            static_cast<double>(ss.tensor_hits + ss.tensor_misses)),
        "ratio");
  j.Set("session.hit_inspect_us", mean_us("session.hit_inspect"), "us");
  j.Set("session.begin_inspect_us", mean_us("session.begin_inspect"), "us");
  j.Set("graph.add_rule_self_us",
        per(static_cast<double>(tr.Get("graph.add_rule").self_ns) * 1e-3,
            static_cast<double>(tr.Get("graph.add_rule").n)),
        "us");
  j.Set("graph.on_event_us", per(total_us("graph.on_event"), ev), "us");
  j.Set("graph.realtime_edges_us", mean_us("graph.realtime_edges"), "us");
  j.Set("graph.materialize_us", mean_us("graph.materialize"), "us");
  j.Set("graph.nodes_per_inspect", per(static_cast<double>(nodes), static_cast<double>(inspects)), "count");
  j.Set("graph.live_edges_per_inspect",
        per(static_cast<double>(live_edges), static_cast<double>(inspects)), "count");
  j.Set("correlation.pair_us", mean_us("correlation.pair"), "us");
  j.Set("correlation.cache_hit_ratio",
        per(static_cast<double>(corr_hits), static_cast<double>(corr_hits + corr_misses)), "ratio");
  j.Set("correlation.pairs_per_add_rule",
        per(static_cast<double>(pairs), static_cast<double>(graph_add_rules)), "count");
  j.Set("embed.make_node_us", mean_us("embed.make_node"), "us");
  j.Set("gnn.tensorize_us", mean_us("gnn.tensorize"), "us");
  j.Set("gnn.classify_forward_us", mean_us("gnn.classify_forward"), "us");
  j.Set("gnn.drift_embed_us", mean_us("gnn.drift_embed"), "us");
  j.Set("gnn.batch_analyze_us_per_graph",
        per(total_us("gnn.batch_analyze"), static_cast<double>(res.report.Get("pool.graphs").value)),
        "us");
  j.Set("detector.analyze_us", mean_us("detector.analyze"), "us");
  j.Set("explain.us", mean_us("explain.nodes"), "us");
  const double analyzed = static_cast<double>(tr.Get("detector.analyze").n);
  j.Set("detector.threat_ratio", per(static_cast<double>(threats), analyzed), "ratio");
  j.Set("detector.drift_ratio", per(static_cast<double>(drifting), analyzed), "ratio");
  j.Set("trace.unattributed_frac",
        static_cast<double>(unattributed) / static_cast<double>(wall), "fraction");
  for (const auto& name : j.names()) {
    const Metric& m = j.Get(name);
    res.report.Set(name, m.value, m.unit);
  }
  res.report.Set("trace.replay_wall_s", static_cast<double>(wall) * 1e-9, "s");
  res.report.Set("trace.inspects", static_cast<double>(inspects), "count");
  res.report.Set("trace.queue_wait_samples", static_cast<double>(queue_wait_us.count()), "count");

  res.attempted = std::max<uint64_t>(1, ops_done + n);
  if (!first_error.empty()) res.Fail(first_error);
  return res;
}

}  // namespace perfbench
