// Wire workloads (ingest, deploy, mixed): a live `glint fleet-serve` child
// process driven by this process over the binary wire protocol.
//
// Timeline of one run:
//   launch server ─ train (server) ─ listen ─ register homes ─ kStats barrier
//   └─ setup_s ends here; the reference detector (trained in this process,
//      concurrently with the server's training) must be ready before the
//      measured phase starts
//   measured phase (--seconds): closed-loop event batches (ingest) or the
//      open-loop schedule (deploy, mixed); every latency is timed from the
//      request's due time
//   gate: final inspects of sampled homes, kStats accounting, SIGTERM drain,
//      then an in-process ServingEngine replay of each sampled home's op
//      sequence must render the same warnings.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/serving.h"
#include "fleet/sharding.h"
#include "fleet/wire.h"
#include "runs.h"
#include "server_proc.h"

namespace perfbench {

namespace wire = glint::fleet::wire;
namespace core = glint::core;
using glint::Status;
using glint::StatusCode;

namespace {

enum class Cls : uint8_t { kAck, kInspect, kControl };

/// Shards of the server under test.
constexpr int kShards = 2;

/// Measurement window. The measured phase is cut into windows, and every
/// reported figure counts only the half of the windows in which the
/// hypervisor stole the least CPU time: on a shared host, time stolen from
/// the guest measures the neighbours, not the server.
constexpr int64_t kBinNs = 250'000'000;

/// One latency sample and the window its reply arrived in.
struct Timed {
  double ms;
  uint32_t bin;
};

struct Pending {
  wire::MsgType type = wire::MsgType::kPing;
  int64_t due_ns = 0;
  uint32_t events = 0;
  Cls cls = Cls::kControl;
  /// Cleared when the reply arrives, whatever its outcome.
  std::atomic<bool>* release = nullptr;
};

/// Reply-side outcome counts of one connection.
struct Tally {
  std::vector<Timed> ack, inspect;
  /// Window origin (0 = not binned); set before the receiver starts.
  int64_t origin_ns = 0;
  std::vector<uint64_t> event_bins;  ///< acked events per window
  std::vector<uint64_t> reply_bins;  ///< measured replies per window
  uint64_t replies = 0;
  uint64_t acked_events = 0;
  uint64_t inspects = 0;
  uint64_t failed = 0, overloaded = 0, degraded = 0, transport = 0;
  int64_t last_reply_ns = 0;
  std::string first_error;

  void Error(const std::string& e) {
    ++failed;
    if (first_error.empty()) first_error = e;
  }
  void Merge(const Tally& o) {
    ack.insert(ack.end(), o.ack.begin(), o.ack.end());
    inspect.insert(inspect.end(), o.inspect.begin(), o.inspect.end());
    replies += o.replies;
    acked_events += o.acked_events;
    inspects += o.inspects;
    for (auto [mine, theirs] : {std::pair{&event_bins, &o.event_bins},
                                std::pair{&reply_bins, &o.reply_bins}}) {
      if (mine->size() < theirs->size()) mine->resize(theirs->size());
      for (size_t i = 0; i < theirs->size(); ++i) (*mine)[i] += (*theirs)[i];
    }
    failed += o.failed;
    overloaded += o.overloaded;
    degraded += o.degraded;
    transport += o.transport;
    last_reply_ns = std::max(last_reply_ns, o.last_reply_ns);
    if (first_error.empty()) first_error = o.first_error;
  }
};

wire::MsgType ReplyTypeFor(wire::MsgType req) {
  switch (req) {
    case wire::MsgType::kEventBatch: return wire::MsgType::kBatchAck;
    case wire::MsgType::kInspect: return wire::MsgType::kWarning;
    case wire::MsgType::kStats: return wire::MsgType::kStatsReply;
    default: return wire::MsgType::kAck;
  }
}

/// One pipelined connection: any thread sends, one receiver thread matches
/// replies to requests in FIFO order (the server answers each connection in
/// request order).
class Conn {
 public:
  explicit Conn(size_t window) : window_(window) {}
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  /// Blocks while `window` requests are in flight; false once the
  /// connection is dead.
  bool Send(const wire::Request& req, const Pending& p) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return dead_ || q_.size() < window_; });
      if (dead_) return false;
      q_.push_back(p);
    }
    if (!wire::SendFrame(fd_, wire::EncodeRequest(req)).ok()) {
      MarkDead();
      return false;
    }
    return true;
  }

  using OnReply =
      std::function<void(const Pending&, const wire::Reply&, int64_t, Tally*)>;

  /// Receiver thread body: runs until the connection closes.
  void ReceiveLoop(Tally* t, const OnReply& on_reply) {
    std::vector<char> payload;
    for (;;) {
      const Status st = wire::RecvFrame(fd_, &payload);
      const int64_t now = MonoNs();
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!(closing_ && q_.empty())) {
          ++t->transport;
          t->Error("recv: " + st.ToString());
        }
        break;
      }
      Pending p;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (q_.empty()) {
          ++t->transport;
          t->Error("reply without a request");
          break;
        }
        p = q_.front();
        q_.pop_front();
        if (p.cls == Cls::kControl) ++controls_done_;
        cv_.notify_all();
      }
      wire::Reply reply;
      if (!wire::DecodeReply(payload, &reply).ok()) {
        ++t->transport;
        t->Error("undecodable reply");
        break;
      }
      on_reply(p, reply, now, t);
    }
    MarkDead();
    std::lock_guard<std::mutex> lock(mu_);
    // Requests that will never be answered.
    for (size_t i = 0; i < q_.size(); ++i) t->Error("no reply");
    q_.clear();
  }

  /// Waits until `n` control requests (barriers) have been answered.
  bool WaitControls(uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return dead_ || controls_done_ >= n; });
    return controls_done_ >= n;
  }

  /// Waits until every request has been answered (or the deadline).
  bool WaitDrained(int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!dead_ && !q_.empty()) {
      const int64_t left = deadline_ns - MonoNs();
      if (left <= 0) return false;
      cv_.wait_for(lock, std::chrono::nanoseconds(left));
    }
    return q_.empty();
  }

  /// Ends the receiver: what is still in flight counts as failed.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
    }
    if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
  }

 private:
  void MarkDead() {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = true;
    cv_.notify_all();
  }

  int fd_ = -1;
  size_t window_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> q_;
  uint64_t controls_done_ = 0;
  bool dead_ = false;
  bool closing_ = false;
};

void OnReply(const Pending& p, const wire::Reply& r, int64_t now, Tally* t) {
  if (p.release != nullptr) p.release->store(false);
  ++t->replies;
  t->last_reply_ns = std::max(t->last_reply_ns, now);
  if (r.type != ReplyTypeFor(p.type)) {
    t->Error(std::string("reply type ") + wire::MsgTypeName(r.type) + " for " +
             wire::MsgTypeName(p.type));
    return;
  }
  if (r.code == static_cast<int32_t>(StatusCode::kOverloaded)) {
    ++t->overloaded;
    t->Error("overloaded: " + r.message);
    return;
  }
  if (r.code != 0) {
    t->Error(std::string(wire::MsgTypeName(p.type)) + " failed: " + r.message);
    return;
  }
  if (r.type == wire::MsgType::kWarning && r.degraded) {
    ++t->degraded;
    t->Error("degraded verdict");
    return;
  }
  if (r.type == wire::MsgType::kBatchAck) {
    if (r.batch_events != p.events) {
      t->Error("batch ack covers " + std::to_string(r.batch_events) + " of " +
               std::to_string(p.events) + " events");
      return;
    }
    t->acked_events += p.events;
  }
  uint32_t bin = 0;
  if (t->origin_ns > 0 && now >= t->origin_ns) {
    bin = static_cast<uint32_t>((now - t->origin_ns) / kBinNs);
    if (t->event_bins.size() <= bin) {
      t->event_bins.resize(bin + 1);
      t->reply_bins.resize(bin + 1);
    }
    t->event_bins[bin] += r.type == wire::MsgType::kBatchAck ? p.events : 0;
    t->reply_bins[bin] += p.cls != Cls::kControl;
  }
  const double ms = static_cast<double>(now - p.due_ns) * 1e-6;
  if (p.cls == Cls::kAck) t->ack.push_back({ms, bin});
  if (p.cls == Cls::kInspect) {
    t->inspect.push_back({ms, bin});
    ++t->inspects;
  }
}

/// A connection plus its receiver thread.
struct Lane {
  Lane(size_t window, int64_t origin_ns) : conn(window) {
    tally.origin_ns = origin_ns;
  }
  Conn conn;
  Tally tally;
  std::thread receiver;

  bool Start(int port) {
    if (!conn.Connect(port)) return false;
    receiver = std::thread([this] { conn.ReceiveLoop(&tally, OnReply); });
    return true;
  }
  /// Waits for outstanding replies, then closes and joins.
  void Finish(int64_t deadline_ns) {
    if (receiver.joinable()) {
      conn.WaitDrained(deadline_ns);
      conn.Shutdown();
      receiver.join();
    }
  }
};

wire::Request EventsRequest(const HomePlan& home, uint64_t first,
                            uint32_t n) {
  wire::Request req;
  req.type = wire::MsgType::kEventBatch;
  req.home = home.id;
  req.seq = first + 1;
  req.events.reserve(n);
  for (uint32_t i = 0; i < n; ++i) req.events.push_back(home.EventAt(first + i));
  return req;
}

wire::Request OpRequest(const Plan& plan, const Op& op) {
  const HomePlan& home = plan.homes[static_cast<size_t>(op.home)];
  wire::Request req;
  switch (op.kind) {
    case OpKind::kEvents:
      return EventsRequest(home, op.first, op.count);
    case OpKind::kAddRule:
      req.type = wire::MsgType::kAddRule;
      req.rule = home.extra[op.first];
      break;
    case OpKind::kRemoveRule:
      req.type = wire::MsgType::kRemoveRule;
      req.rule_id = static_cast<int32_t>(op.first);
      break;
    case OpKind::kInspect:
      req.type = wire::MsgType::kInspect;
      req.now_hours = op.now_hours;
      break;
  }
  req.home = home.id;
  return req;
}

/// Applies one home's op sequence to a reference engine.
Status ReplayOps(core::ServingEngine* eng, const Plan& plan, int h,
                 uint64_t ingest_events, const std::vector<char>& sent) {
  const HomePlan& home = plan.homes[static_cast<size_t>(h)];
  auto added = eng->TryAddHome(home.id, home.rules);
  if (!added.ok()) return added.status();
  for (uint64_t i = 0; i < ingest_events; ++i) {
    GLINT_RETURN_IF_ERROR(eng->TryOnEvent(home.id, home.EventAt(i)));
  }
  for (size_t k = 0; k < plan.ops.size(); ++k) {
    const Op& op = plan.ops[k];
    if (op.home != h || !sent[k]) continue;
    switch (op.kind) {
      case OpKind::kEvents:
        for (uint32_t i = 0; i < op.count; ++i) {
          GLINT_RETURN_IF_ERROR(
              eng->TryOnEvent(home.id, home.EventAt(op.first + i)));
        }
        break;
      case OpKind::kAddRule:
        GLINT_RETURN_IF_ERROR(eng->TryAddRule(home.id, home.extra[op.first]));
        break;
      case OpKind::kRemoveRule:
        GLINT_RETURN_IF_ERROR(
            eng->TryRemoveRule(home.id, static_cast<int>(op.first)));
        break;
      case OpKind::kInspect:
        break;
    }
  }
  return Status::OK();
}

/// The worst shard's queue state so far (kStatsJson): how close the shards
/// came to the overload detector's thresholds.
struct QueueState {
  bool ok = false;
  uint64_t high_water = 0;
  double wait_p99_ms = 0;
  double apply_p99_ms = 0;
};

QueueState ReadQueueState(wire::Client* client) {
  wire::Request req;
  req.type = wire::MsgType::kStatsJson;
  wire::Reply reply;
  QueueState q;
  q.ok = client->Call(req, &reply).ok() && reply.code == 0;
  for (const auto& s : reply.shard_stats) {
    q.high_water = std::max(q.high_water, s.queue_high_water);
    q.wait_p99_ms = std::max(q.wait_p99_ms, s.queue_wait_p99_ms);
    q.apply_p99_ms = std::max(q.apply_p99_ms, s.apply_p99_ms);
  }
  return q;
}

}  // namespace

RunResult RunWire(const Plan& plan, const RunConfig& cfg) {
  RunResult res;
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const size_t n_homes = plan.homes.size();

  // ---- Setup: launch, train, listen, register ----------------------------
  std::vector<std::string> argv = {cfg.glint, "fleet-serve", "--port", "0",
                                   "--shards", std::to_string(kShards)};
  if (plan.workload == Workload::kMixed) {
    argv.push_back("--state-dir");
    argv.push_back(cfg.workdir + "/state");
  }
  // The gate's reference detector trains first, before the server starts:
  // both trainings saturate the cores, so overlapping them saves no time
  // and would make setup_s depend on how the two shared the CPU.
  const int64_t t_ref = MonoNs();
  core::TrainedDetector ref(ServeOptions());
  ref.TrainOffline();
  std::fprintf(stderr, "perfbench: reference detector trained in %.1f s\n",
               static_cast<double>(MonoNs() - t_ref) * 1e-9);

  ServerProcess server;
  std::string err;
  const int64_t t_launch = MonoNs();
  if (!server.Start(argv, 120000, &err)) {
    res.Fail("server start: " + err);
    return res;
  }
  const int port = server.port();
  const int64_t t_listen = MonoNs();
  for (const auto& line : server.lines()) {
    if (line.find("listening on") != std::string::npos) {
      std::printf("SERVER %s\n", line.c_str());
    }
  }

  // Registration: AddHome with the first rules, AddRule for the rest. An
  // ack only means "queued", so registration runs in rounds: each round
  // sends every shard its next request (a home's requests stay in order on
  // its shard) and ends with a kStats barrier, which runs on every shard
  // behind what is queued. No shard ever queues more than one registration
  // request, so the queue-wait overload detector (50 ms p99) sees at most
  // one apply of waiting, however slow the host.
  Tally setup_tally;
  wire::Reply reg_stats;
  uint64_t reg_requests = 0, barriers = 0;
  {
    std::vector<std::vector<wire::Request>> by_shard(kShards);
    glint::fleet::FleetConfig ring_cfg;
    ring_cfg.num_shards = kShards;
    const glint::fleet::ShardedFleet ring(&ref, ring_cfg);
    const size_t kFirstRules = 4;
    for (const auto& home : plan.homes) {
      auto& out = by_shard[static_cast<size_t>(ring.ShardOf(home.id))];
      wire::Request req;
      req.type = wire::MsgType::kAddHome;
      req.home = home.id;
      const size_t first = std::min(kFirstRules, home.rules.size());
      req.rules.assign(home.rules.begin(),
                       home.rules.begin() + static_cast<std::ptrdiff_t>(first));
      out.push_back(std::move(req));
      for (size_t i = first; i < home.rules.size(); ++i) {
        wire::Request add;
        add.type = wire::MsgType::kAddRule;
        add.home = home.id;
        add.rule = home.rules[i];
        out.push_back(std::move(add));
      }
    }
    Lane reg(kShards + 1, 0);
    bool ok = reg.Start(port);
    wire::Request barrier;
    barrier.type = wire::MsgType::kStats;
    for (size_t round = 0; ok; ++round) {
      bool sent_any = false;
      for (const auto& reqs : by_shard) {
        if (round >= reqs.size()) continue;
        const wire::Request& req = reqs[round];
        ok = ok &&
             reg.conn.Send(req, Pending{req.type, MonoNs(), 0, Cls::kControl});
        ++reg_requests;
        sent_any = true;
      }
      if (!sent_any) break;
      ok = ok &&
           reg.conn.Send(barrier,
                         Pending{barrier.type, MonoNs(), 0, Cls::kControl}) &&
           reg.conn.WaitControls(reg_requests + ++barriers);
    }
    reg.Finish(MonoNs() + 60'000'000'000);
    setup_tally = reg.tally;
  }
  wire::Client stats_client;
  const bool stats_ok = stats_client.Connect("127.0.0.1", port).ok() &&
                        [&] {
                          wire::Request req;
                          req.type = wire::MsgType::kStats;
                          return stats_client.Call(req, &reg_stats).ok();
                        }();
  size_t n_rules = 0;
  for (const auto& home : plan.homes) n_rules += home.rules.size();
  const int64_t t_ready = MonoNs();
  const double setup_s = static_cast<double>(t_ready - t_launch) * 1e-9;
  const QueueState reg_queue = ReadQueueState(&stats_client);
  if (setup_tally.failed > 0 ||
      setup_tally.replies != reg_requests + barriers || !stats_ok ||
      reg_stats.homes != n_homes || reg_stats.rules != n_rules) {
    res.Fail("registration: " + setup_tally.first_error + " (" +
             std::to_string(reg_stats.homes) + " of " +
             std::to_string(n_homes) + " homes, " +
             std::to_string(reg_stats.rules) + " of " +
             std::to_string(n_rules) + " rules registered)");
    server.Stop(10000, &err);
    return res;
  }

  // ---- Measured phase ------------------------------------------------------
  const size_t open_window = 4096;
  const int64_t start = MonoNs() + 100'000'000;  // lanes and senders ready
  const int64_t end = start + static_cast<int64_t>(plan.seconds * 1e9);
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int c = 0; c < plan.conns; ++c) {
    const bool closed = c < plan.ingest_conns;
    lanes.push_back(
        std::make_unique<Lane>(closed ? plan.window : open_window, start));
    if (!lanes.back()->Start(port)) {
      res.Fail("connect failed");
      for (auto& l : lanes) l->Finish(MonoNs());
      server.Stop(10000, &err);
      return res;
    }
  }
  // Ingest: the last batch index sent per home. An inspect on the side
  // connection holds its home (under the home's lock) from reading this
  // clock until its reply, so no event of that home can be queued ahead of
  // it with a later time.
  std::vector<int64_t> last_batch(n_homes, -1);
  std::vector<std::mutex> home_mu(plan.ingest_conns > 0 ? n_homes : 0);
  std::vector<std::atomic<bool>> held(n_homes);
  for (auto& h : held) h.store(false);
  auto ingest_clock = [&](size_t h) {
    const int64_t b = last_batch[h];
    return b < 0 ? 0.0
                 : plan.homes[h]
                       .EventAt(static_cast<uint64_t>(b + 1) * plan.batch - 1)
                       .time_hours;
  };

  std::vector<std::vector<const Op*>> by_conn(static_cast<size_t>(plan.conns));
  for (const Op& op : plan.ops) by_conn[static_cast<size_t>(op.conn)].push_back(&op);

  std::vector<Samples> late(static_cast<size_t>(plan.conns));
  // Ops actually sent (a closed loop stops where time runs out); the gate
  // replays exactly these.
  std::vector<char> sent(plan.ops.size(), 0);
  std::vector<uint64_t> sent_events(static_cast<size_t>(plan.conns), 0);
  std::vector<uint64_t> sent_ops(static_cast<size_t>(plan.conns), 0);
  std::atomic<int> send_failures{0};

  const double self_cpu0 = SelfCpuSeconds();
  // Window sampler: host steal and server CPU at every window boundary.
  std::vector<HostTicks> host_ticks;
  std::vector<double> server_cpu;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    for (int64_t i = 0;; ++i) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start + i * kBinNs)));
      host_ticks.push_back(ReadHostTicks());
      server_cpu.push_back(ProcCpuSeconds(server.pid()));
      if (!sampling.load()) return;
    }
  });
  std::vector<std::thread> senders;
  for (int c = 0; c < plan.conns; ++c) {
    senders.emplace_back([&, c] {
      const size_t ci = static_cast<size_t>(c);
      Conn& conn = lanes[ci]->conn;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start)));
      if (c < plan.ingest_conns) {
        // Closed loop: one batch per owned home per round until time is up.
        // An ack only means "queued", so every kBarrierEvery frames a kStats
        // barrier (it runs on every shard behind the queued batches) bounds
        // accepted-but-unapplied work to two barrier intervals: 128 frames
        // per connection, about 128 queued messages per shard. The server
        // counts a shard overloaded at 512 queued messages (half its bus
        // capacity) or a 50 ms queue-wait p99; 128 frames of 64 events
        // apply in about 5 ms on a 4-core VM, so a host would have to slow
        // the server tenfold before either trips.
        const uint64_t kBarrierEvery = 64;
        uint64_t frames = 0, barriers = 0;
        wire::Request barrier;
        barrier.type = wire::MsgType::kStats;
        for (;;) {
          for (size_t h = ci; h < n_homes;
               h += static_cast<size_t>(plan.ingest_conns)) {
            const int64_t now = MonoNs();
            if (now >= end) return;
            std::lock_guard<std::mutex> lock(home_mu[h]);
            if (held[h].load()) continue;  // an inspect is reading it
            const int64_t b = ++last_batch[h];
            wire::Request req = EventsRequest(
                plan.homes[h], static_cast<uint64_t>(b) * plan.batch,
                plan.batch);
            if (!conn.Send(req, Pending{req.type, now, plan.batch, Cls::kAck})) {
              send_failures.fetch_add(1);
              return;
            }
            sent_events[ci] += plan.batch;
            ++sent_ops[ci];
            if (++frames % kBarrierEvery == 0) {
              if (!conn.WaitControls(barriers) ||
                  !conn.Send(barrier, Pending{barrier.type, MonoNs(), 0,
                                              Cls::kControl})) {
                send_failures.fetch_add(1);
                return;
              }
              ++barriers;
            }
          }
        }
      }
      int64_t change_due = 0;
      for (const Op* op : by_conn[ci]) {
        int64_t due = start + op->due_ns;
        if (plan.closed_ops) {
          // One user: change a rule, wait for the verdict, repeat. The
          // inspect is due with the change it follows.
          due = MonoNs();
          if (due >= end) return;
          if (op->kind == OpKind::kInspect) due = change_due;
          if (op->kind == OpKind::kAddRule || op->kind == OpKind::kRemoveRule) {
            change_due = due;
          }
        }
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        wire::Request req = OpRequest(plan, *op);
        std::atomic<bool>* release = nullptr;
        if (op->kind == OpKind::kInspect && op->now_hours < 0) {
          const size_t h = static_cast<size_t>(op->home);
          for (;;) {  // a previous inspect of this home may be in flight
            {
              std::lock_guard<std::mutex> lock(home_mu[h]);
              if (!held[h].exchange(true)) {
                req.now_hours = ingest_clock(h);
                break;
              }
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          release = &held[h];
        }
        if (!plan.closed_ops) {
          late[ci].Add(static_cast<double>(std::max<int64_t>(0, MonoNs() - due)) *
                       1e-6);
        }
        const Cls cls = op->kind == OpKind::kInspect ? Cls::kInspect : Cls::kAck;
        if (!conn.Send(req, Pending{req.type, due, op->count, cls, release})) {
          send_failures.fetch_add(1);
          return;
        }
        sent[static_cast<size_t>(op - plan.ops.data())] = 1;
        if (op->kind == OpKind::kEvents) sent_events[ci] += op->count;
        ++sent_ops[ci];
        if (plan.closed_ops && op->kind == OpKind::kInspect &&
            !conn.WaitDrained(end + 30'000'000'000)) {
          send_failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : senders) t.join();
  Tally tally;
  for (auto& l : lanes) {
    l->Finish(MonoNs() + 30'000'000'000);
    tally.Merge(l->tally);
  }
  sampling.store(false);
  sampler.join();
  const double self_cpu1 = SelfCpuSeconds();
  const double wall = static_cast<double>(tally.last_reply_ns - start) * 1e-9;
  uint64_t total_sent_events = 0, total_sent_ops = 0;
  for (int c = 0; c < plan.conns; ++c) {
    total_sent_events += sent_events[static_cast<size_t>(c)];
    total_sent_ops += sent_ops[static_cast<size_t>(c)];
  }

  // ---- Gate: final verdicts of sampled homes, accounting, drain ----------
  const int kSample = 16;
  std::vector<int> sample;
  for (int i = 0; i < kSample; ++i) {
    sample.push_back(static_cast<int>((static_cast<size_t>(i) * n_homes) / kSample));
  }
  // Per sampled home: events applied before its ops (ingest) and the final
  // inspection time (the home's event clock).
  std::vector<uint64_t> sample_events(sample.size(), 0);
  std::vector<double> sample_now(sample.size(), 0);
  for (size_t i = 0; i < sample.size(); ++i) {
    const size_t h = static_cast<size_t>(sample[i]);
    if (plan.ingest_conns > 0) {
      sample_events[i] = static_cast<uint64_t>(last_batch[h] + 1) * plan.batch;
      sample_now[i] = ingest_clock(h);
    }
    for (size_t k = 0; k < plan.ops.size(); ++k) {
      const Op& op = plan.ops[k];
      if (op.home == sample[i] && op.kind == OpKind::kEvents && sent[k]) {
        sample_now[i] = std::max(
            sample_now[i],
            plan.homes[h].EventAt(op.first + op.count - 1).time_hours);
      }
    }
  }
  std::vector<std::string> served(sample.size());
  uint64_t gate_failed = 0;
  std::string gate_error;
  auto gate_fail = [&](const std::string& why) {
    ++gate_failed;
    if (gate_error.empty()) gate_error = why;
  };
  for (size_t i = 0; i < sample.size(); ++i) {
    wire::Request req;
    req.type = wire::MsgType::kInspect;
    req.home = plan.homes[static_cast<size_t>(sample[i])].id;
    req.now_hours = sample_now[i];
    wire::Reply reply;
    if (!stats_client.Call(req, &reply).ok() || reply.code != 0 ||
        reply.degraded) {
      gate_fail("final inspect of " + req.home + " failed: " + reply.message);
      continue;
    }
    served[i] = reply.rendered;
  }
  wire::Reply stats;
  {
    wire::Request req;
    req.type = wire::MsgType::kStats;
    if (!stats_client.Call(req, &stats).ok()) gate_fail("kStats failed");
  }
  const QueueState run_queue = ReadQueueState(&stats_client);
  if (!run_queue.ok) gate_fail("kStatsJson failed");
  const double peak_rss = ProcPeakRssMb(server.pid());
  stats_client.Close();
  if (!server.Stop(15000, &err)) gate_fail("server stop: " + err);

  if (total_sent_events != tally.acked_events ||
      tally.acked_events != stats.events) {
    gate_fail("events sent " + std::to_string(total_sent_events) + ", acked " +
              std::to_string(tally.acked_events) + ", applied " +
              std::to_string(stats.events));
  }
  if (stats.server_overloaded != 0 || stats.bus_rejected != 0 ||
      stats.bus_apply_errors != 0) {
    gate_fail("server counted " + std::to_string(stats.server_overloaded) +
              " overloaded replies, " + std::to_string(stats.bus_apply_errors) +
              " apply errors");
  }
  if (send_failures.load() != 0) gate_fail("send failures");

  // Reference replay: one in-process engine, the same per-home op sequence.
  {
    core::ServingEngine eng(&ref);
    for (size_t i = 0; i < sample.size(); ++i) {
      if (served[i].empty()) continue;
      const Status st =
          ReplayOps(&eng, plan, sample[i], sample_events[i], sent);
      auto w = st.ok() ? eng.TryInspect(plan.homes[static_cast<size_t>(sample[i])].id,
                                        sample_now[i])
                       : glint::Result<core::ThreatWarning>(st);
      if (!w.ok()) {
        gate_fail("reference replay: " + w.status().ToString());
      } else if (w.value().Render() != served[i]) {
        gate_fail("verdict mismatch for " +
                  plan.homes[static_cast<size_t>(sample[i])].id);
      }
    }
  }

  // ---- Report ----------------------------------------------------------------
  res.attempted = total_sent_ops + sample.size();
  res.failed = tally.failed + gate_failed;
  if (!tally.first_error.empty()) res.Fail(tally.first_error);
  if (!gate_error.empty()) res.Fail(gate_error);

  Samples late_all;
  for (auto& l : late) late_all.v.insert(late_all.v.end(), l.v.begin(), l.v.end());
  const double late_p99 = late_all.Pct(0.99);
  // Open-loop latencies from a generator that fell behind its schedule
  // measured the generator, not the server: they are flagged invalid. The
  // run itself still counts. Server CPU per op is not a latency, and a
  // late generator on a busy host is no fault of the program.
  const double kMaxLateMs = 20;
  const bool behind =
      !plan.ops.empty() && !plan.closed_ops && late_p99 > kMaxLateMs;
  if (behind) {
    std::printf("INVALID latencies: generator fell behind schedule, late p99 "
                "%.3f ms\n", late_p99);
  }

  // Counted windows: the least-stolen half (see kBinNs) of the windows
  // inside the measured phase.
  const size_t windows =
      std::min(host_ticks.empty() ? 0 : host_ticks.size() - 1,
               static_cast<size_t>((end - start) / kBinNs));
  std::vector<double> steal_frac(windows, 0);
  uint64_t steal = 0, ticks = 0;
  for (size_t i = 0; i < windows; ++i) {
    const uint64_t st = host_ticks[i + 1].steal - host_ticks[i].steal;
    const uint64_t tot = host_ticks[i + 1].total - host_ticks[i].total;
    steal += st;
    ticks += tot;
    steal_frac[i] = tot ? static_cast<double>(st) / static_cast<double>(tot) : 0;
  }
  std::vector<size_t> order(windows);
  for (size_t i = 0; i < windows; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_frac[a] < steal_frac[b];
  });
  std::vector<char> clean(windows, 0);
  const size_t n_clean = (windows + 1) / 2;
  for (size_t i = 0; i < n_clean; ++i) clean[order[i]] = 1;
  auto counted = [&](uint32_t bin) { return bin < windows && clean[bin]; };
  auto pick = [&](const std::vector<Timed>& xs) {
    Samples out;
    for (const Timed& x : xs) {
      if (counted(x.bin)) out.Add(x.ms);
    }
    return out;
  };
  Samples ack = pick(tally.ack), inspect = pick(tally.inspect);
  // Ops per window, in the workload's unit of work: events (ingest),
  // verdicts (deploy), replies (mixed).
  std::vector<double> ops_in(windows, 0);
  for (size_t i = 0; i < windows; ++i) {
    const auto& bins = plan.workload == Workload::kIngest ? tally.event_bins
                                                          : tally.reply_bins;
    if (i < bins.size()) ops_in[i] = static_cast<double>(bins[i]);
  }
  if (plan.workload == Workload::kDeploy) {
    ops_in.assign(windows, 0);
    for (const Timed& x : tally.inspect) {
      if (x.bin < windows) ++ops_in[x.bin];
    }
  }
  // Closed loops (ingest events, deploy verdicts): work per second of the
  // counted windows.
  double ops = 0;
  for (size_t i = 0; i < windows; ++i) {
    if (counted(static_cast<uint32_t>(i))) ops += ops_in[i];
  }
  const double counted_rate =
      ops / (static_cast<double>(n_clean) * static_cast<double>(kBinNs) * 1e-9);
  // Server CPU per op counts every window after a warm-up instead. The
  // verdict and memo caches fill first: on mixed, CPU per reply falls from
  // ~570 us in the first window to a flat ~130 us after about 3 s. Windows
  // picked by steal would be a different part of the schedule, with a
  // different op mix, on every run; on mixed that spread the figure more
  // than steal itself did.
  const size_t warm = std::min(windows, static_cast<size_t>(3'000'000'000 / kBinNs));
  double cpu_ops = 0, cpu_s = 0;
  for (size_t i = warm; i < windows; ++i) {
    cpu_ops += ops_in[i];
    cpu_s += server_cpu[i + 1] - server_cpu[i];
  }
  const double cpu_us = cpu_s * 1e6 / std::max(1.0, cpu_ops);

  Report& r = res.report;
  r.Set("setup_s", setup_s, "s");
  r.Set("setup.register_s", static_cast<double>(t_ready - t_listen) * 1e-9, "s",
        reg_requests);
  if (plan.workload == Workload::kIngest) {
    r.Set("events_per_s", counted_rate, "events/s", static_cast<uint64_t>(ops));
  }
  r.Set("ack_mean_ms", ack.Mean(), "ms", ack.count());
  r.Set("ack_p50_ms", ack.Pct(0.5), "ms", ack.count());
  r.Set("ack_p99_ms", ack.Pct(0.99), "ms", ack.count(), ack.TailValid(0.99));
  r.Set("inspect_mean_ms", inspect.Mean(), "ms", inspect.count(), !behind);
  r.Set("inspect_p50_ms", inspect.Pct(0.5), "ms", inspect.count(), !behind);
  r.Set("inspect_p99_ms", inspect.Pct(0.99), "ms", inspect.count(),
        !behind && inspect.TailValid(0.99));
  r.Set("failed_frac",
        static_cast<double>(res.failed) /
            static_cast<double>(std::max<uint64_t>(1, res.attempted)),
        "fraction", res.attempted);
  r.Set("server_cpu_us_per_op", cpu_us, "us", static_cast<uint64_t>(cpu_ops));
  r.Set("server_peak_rss_mb", peak_rss, "MB");
  r.Set("server.requests", static_cast<double>(stats.server_requests), "count");
  r.Set("server.overloaded", static_cast<double>(stats.server_overloaded), "count");
  r.Set("setup.queue_high_water", static_cast<double>(reg_queue.high_water),
        "count");
  r.Set("setup.queue_wait_p99_ms", reg_queue.wait_p99_ms, "ms");
  r.Set("setup.apply_p99_ms", reg_queue.apply_p99_ms, "ms");
  r.Set("server.queue_high_water", static_cast<double>(run_queue.high_water),
        "count");
  r.Set("server.queue_wait_p99_ms", run_queue.wait_p99_ms, "ms");
  r.Set("driver.late_p99_ms", late_p99, "ms", late_all.count());
  r.Set("driver.cpu_util",
        (self_cpu1 - self_cpu0) / (static_cast<double>(plan.seconds) * nproc),
        "fraction");
  r.Set("driver.measured_s", wall, "s");
  r.Set("driver.host_steal_frac",
        ticks ? static_cast<double>(steal) / static_cast<double>(ticks) : 0,
        "fraction");
  double counted_steal = 0;
  for (size_t i = 0; i < n_clean; ++i) counted_steal += steal_frac[order[i]];
  r.Set("driver.counted_steal_frac",
        n_clean ? counted_steal / static_cast<double>(n_clean) : 0, "fraction",
        n_clean);

  Report& j = res.json;
  j.Set("setup_s", setup_s, "s");
  // Server CPU per op, not a rate: an open loop (mixed) replies at the
  // schedule's rate whatever the server's speed, and a closed loop's rate
  // (ingest) also measures the generator, which shares the cores.
  j.Set("server_cpu_us_per_op", cpu_us, "us");
  j.Set("peak_rss_mb", peak_rss, "MB");
  return res;
}

}  // namespace perfbench
