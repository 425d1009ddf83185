#include "fleet/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/obs.h"
#include "util/fault.h"

namespace glint::fleet {

namespace {

/// epoll_event.data.u64 tags for the two non-connection fds; Conn
/// pointers (heap addresses, never 0/1) tag everything else.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

/// Read granularity. One recv() per chunk; a short read means the socket
/// is drained, so the loop rarely pays a trailing EAGAIN.
constexpr size_t kReadChunk = 64 * 1024;

/// Unparsed input high water: big enough that the largest legal frame
/// always fits (so parsing can always make progress), small enough that
/// a flooding peer cannot balloon the input side while its replies are
/// backpressured.
constexpr size_t kMaxBufferedInput = wire::kMaxFramePayload + 8 + kReadChunk;

// A backpressured connection must still be able to buffer one whole reply.
static_assert(FleetServer::kMaxWriteBuffer >= wire::kMaxFramePayload + 8);

}  // namespace

FleetServer::FleetServer(ShardedFleet* fleet, Config config)
    : fleet_(fleet), config_(config) {
  GLINT_CHECK(fleet_ != nullptr);
  GLINT_CHECK(config_.io_workers >= 1);
}

FleetServer::~FleetServer() { Stop(); }

Status FleetServer::Start() {
  GLINT_CHECK(listen_fd_.load() < 0);  // Start is one-shot
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status st = Status::IOError("bind port " +
                                      std::to_string(config_.port) + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const Status st =
        Status::IOError("listen: " + std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const Status st =
        Status::IOError("getsockname: " + std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status st =
        Status::IOError("epoll/eventfd: " + std::string(std::strerror(errno)));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    ::close(fd);
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered, never drained: wakes every worker
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  // ONESHOT keeps the listener on one worker per accept burst; AcceptReady
  // re-arms when the burst is drained.
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  listen_fd_.store(fd, std::memory_order_release);
  // Tracing + telemetry before the bus: bus consumers hold a recorder
  // pointer from their first message on.
  obs::TraceRecorder::Config trace_cfg = config_.trace;
  trace_cfg.num_shards = fleet_->num_shards();
  recorder_ = std::make_unique<obs::TraceRecorder>(trace_cfg);
  series_ = std::make_unique<obs::TimeSeriesSet>(kSeriesCapacity);
  EventBus::Config bus_cfg = config_.bus;
  bus_cfg.recorder = recorder_.get();
  bus_ = std::make_unique<EventBus>(fleet_, bus_cfg);
  last_sample_ns_ = obs::NowNs();
  last_applied_events_.assign(static_cast<size_t>(fleet_->num_shards()), 0);
  if (config_.sample_interval_ms > 0) {
    sampler_ = std::thread([this] { SamplerLoop(); });
  }
  workers_.reserve(static_cast<size_t>(config_.io_workers));
  for (int i = 0; i < config_.io_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void FleetServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  const int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) {
    // Shut down (but do not yet close) the listener: accepts start
    // failing and new connections are refused, while the fd NUMBER
    // stays reserved to this socket. A worker mid-AcceptReady may still
    // re-arm it concurrently; deferring the close until after the join
    // below means that re-arm can never race the close or land on a
    // recycled fd. The wake below gets the workers out of epoll_wait.
    // (Workers blocked inside a kBlock Post or a RunOnShard unblock on
    // their own: the bus consumers keep draining until bus_->Stop()
    // below.)
    ::shutdown(lfd, SHUT_RDWR);
  }
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  if (lfd >= 0) ::close(lfd);  // workers joined: nobody touches it now
  if (sampler_.joinable()) sampler_.join();  // wakes on stopping_
  {
    // Workers are joined: no one else can touch a Conn now.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, c] : conns_) ::close(fd);
    conns_.clear();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  if (bus_ != nullptr) bus_->Stop();  // drains everything accepted
}

void FleetServer::WorkerLoop() {
  epoll_event evs[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, evs, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd itself failed — only plausible mid-teardown
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = evs[i].data.u64;
      if (tag == kWakeTag || stopping_.load(std::memory_order_acquire)) {
        return;  // Stop() owns every conn from the moment we are joined
      }
      if (tag == kListenerTag) {
        AcceptReady();
        continue;
      }
      HandleConn(reinterpret_cast<Conn*>(tag));
    }
  }
}

void FleetServer::AcceptReady() {
  static const bool fault_registered =
      fault::Registry::Global().RegisterPoint("fleet.server.accept");
  (void)fault_registered;
  for (;;) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // Stop() already retired the listener
    if (fault::Registry::Armed() &&
        !fault::Registry::Global().Hit("fleet.server.accept").ok()) {
      // Injected accept failure: same recovery as transient resource
      // pressure — the pending connection stays in the backlog and the
      // level-triggered re-arm below retries it.
      accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
      GLINT_OBS_COUNT("glint.fleet.server.accept_backoffs", 1);
      break;
    }
    const int fd = ::accept4(lfd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // burst drained
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient resource pressure: the pending connection stays in
        // the backlog; back off briefly. The level-triggered re-arm
        // below turns the backlog into a fresh readiness event.
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        GLINT_OBS_COUNT("glint.fleet.server.accept_backoffs", 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        break;
      }
      if (listen_fd_.load(std::memory_order_acquire) >= 0) {
        GLINT_OBS_COUNT("glint.fleet.server.accept_errors", 1);
      }
      return;  // listener closed or broken: do not re-arm
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_.fetch_add(1, std::memory_order_relaxed);
    GLINT_OBS_COUNT("glint.fleet.server.connections", 1);
    GLINT_OBS_COUNT("glint.fleet.conn.opened", 1);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* cp = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Cannot collide: CloseConn removes an fd's entry before ::close,
      // so a number the kernel hands back out is always vacant here.
      const bool inserted = conns_.emplace(fd, std::move(conn)).second;
      GLINT_CHECK(inserted);
    }
    cp->handoff.store(1, std::memory_order_release);  // publish to workers
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.u64 = reinterpret_cast<uint64_t>(cp);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseConn(cp);
    }
  }
  const int lfd = listen_fd_.load(std::memory_order_acquire);
  if (lfd >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.u64 = kListenerTag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, lfd, &ev);
  }
}

void FleetServer::HandleConn(Conn* c) {
  // Acquire the previous owner's writes (see Conn::handoff).
  c->handoff.load(std::memory_order_acquire);
  // Flush first: an EPOLLOUT wakeup means queued replies can move, and a
  // drained output buffer is what lifts read backpressure.
  if (!FlushOut(c)) {
    CloseConn(c);
    return;
  }
  static const bool fault_registered =
      fault::Registry::Global().RegisterPoint("fleet.server.recv");
  (void)fault_registered;
  bool peer_eof = false;
  bool torn = false;
  if (!c->close_after_flush) {
    while (c->in.size() - c->in_off < kMaxBufferedInput) {
      if (fault::Registry::Armed() &&
          !fault::Registry::Global().Hit("fleet.server.recv").ok()) {
        // Injected read failure: same path as a peer reset.
        peer_eof = torn = true;
        break;
      }
      const size_t old = c->in.size();
      c->in.resize(old + kReadChunk);
      const ssize_t r = ::recv(c->fd, c->in.data() + old, kReadChunk, 0);
      if (r < 0) {
        c->in.resize(old);
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        peer_eof = torn = true;  // reset/err: stream integrity is gone
        break;
      }
      c->in.resize(old + static_cast<size_t>(r));
      if (r == 0) {
        peer_eof = true;
        break;
      }
      if (obs::Enabled()) c->last_read_ns = obs::NowNs();
      if (static_cast<size_t>(r) < kReadChunk) break;  // socket drained
    }
  }
  // Serve every complete frame that arrived (pipelined peers batch many
  // per read), including everything a closing peer flushed before FIN.
  ParseFrames(c);
  if (draining_.load(std::memory_order_acquire)) {
    // Graceful drain: everything this connection already sent has just
    // been served (ParseFrames above); its owed replies flush below and
    // the connection closes once they are out.
    c->close_after_flush = true;
  }
  if (peer_eof && !c->close_after_flush) {
    if (torn || c->in.size() != c->in_off) {
      // EOF (or a reset) inside a frame: same contract as the threaded
      // path — count it, answer if the pipe still works, then drop.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      GLINT_OBS_COUNT("glint.fleet.server.bad_frames", 1);
      const std::vector<char> ack = wire::EncodeReply(wire::AckFor(
          Status::IOError("wire: EOF inside frame")));
      wire::AppendFrame(&c->out, ack);
    }
    c->close_after_flush = true;
  }
  if (!FlushOut(c)) {
    CloseConn(c);
    return;
  }
  RearmOrClose(c);
}

void FleetServer::ParseFrames(Conn* c) {
  while (!c->close_after_flush && !stopping_.load(std::memory_order_acquire)) {
    if (Backpressured(c)) {
      // A slow reader's replies are piling up: stop parsing (and
      // implicitly stop reading — RearmOrClose drops EPOLLIN) until the
      // peer drains. TCP flow control propagates the stall to the
      // sender; per-connection memory stays bounded.
      GLINT_OBS_COUNT("glint.fleet.conn.read_backpressure", 1);
      break;
    }
    const size_t avail = c->in.size() - c->in_off;
    if (avail < wire::kFrameHeaderBytes) break;
    const char* base = c->in.data() + c->in_off;
    const wire::FrameHeader header = wire::FrameHeader::Parse(base);
    const char* body = base + wire::kFrameHeaderBytes;
    // An oversized prefix is refused before waiting for its bytes.
    Status frame_st = header.CheckLength();
    if (frame_st.ok()) {
      if (avail - wire::kFrameHeaderBytes < header.len) break;  // partial
      c->in_off += wire::kFrameHeaderBytes + header.len;
      frame_st = header.CheckPayload(body);
    }
    if (!frame_st.ok()) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      GLINT_OBS_COUNT("glint.fleet.server.bad_frames", 1);
      wire::AppendFrame(&c->out, wire::EncodeReply(wire::AckFor(frame_st)));
      c->close_after_flush = true;  // the stream cannot be resynchronized
      break;
    }
    std::vector<char> payload(body, body + header.len);
    // The request's trace is born at the read() that completed its frame
    // (idle keep-alive time between requests is nobody's latency; frames
    // that arrived together share a birth stamp).
    obs::TraceContext ctx = obs::TraceContext::Begin(c->last_read_ns);
    ctx.Mark(obs::TraceStage::kAccept);
    wire::Request req;
    Status st = wire::DecodeRequest(payload, &req);
    wire::Reply reply;
    if (!st.ok()) {
      // The frame itself was intact, so the stream is still in sync: an
      // unparseable body earns an error ack, not a disconnect. No trace:
      // there is no request type to decompose.
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      GLINT_OBS_COUNT("glint.fleet.server.bad_requests", 1);
      ctx = obs::TraceContext{};
      reply = wire::AckFor(st);
    } else {
      requests_.fetch_add(1, std::memory_order_relaxed);
      GLINT_OBS_COUNT("glint.fleet.server.requests", 1);
      ctx.msg_type = static_cast<uint8_t>(req.type);
      ctx.Mark(obs::TraceStage::kDecode);
      reply = Dispatch(req, &ctx);
    }
    if (reply.code == static_cast<int32_t>(StatusCode::kOverloaded)) {
      // Central kOverloaded bookkeeping: every shed path (health shed,
      // deadline shed, full kReject queue, task timeout) funnels through
      // here, gets the retry-after hint stamped, and is counted once.
      if (reply.retry_after_ms == 0) {
        reply.retry_after_ms = bus_->retry_after_ms();
      }
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      GLINT_OBS_COUNT("glint.fleet.server.overloaded", 1);
    }
    wire::AppendFrame(&c->out, wire::EncodeReply(reply));
    ctx.Mark(obs::TraceStage::kEncode);
    // Hand the reply to the kernel now (replies overlap the parsing of
    // later pipelined frames); what the socket refuses waits for
    // EPOLLOUT. The reply stage ends when the bytes leave this server's
    // hands, queued or sent.
    if (!FlushOut(c)) c->close_after_flush = true;
    if (ctx.active()) {
      ctx.Mark(obs::TraceStage::kReply);
      recorder_->Finish(ctx);
    }
  }
  // Compact: drop the consumed prefix so a long-lived connection's input
  // buffer tracks its unparsed backlog, not its history.
  if (c->in_off == c->in.size()) {
    c->in.clear();
    c->in_off = 0;
  } else if (c->in_off >= kReadChunk) {
    c->in.erase(c->in.begin(),
                c->in.begin() + static_cast<ptrdiff_t>(c->in_off));
    c->in_off = 0;
  }
}

bool FleetServer::FlushOut(Conn* c) {
  static const bool fault_registered =
      fault::Registry::Global().RegisterPoint("fleet.server.send");
  (void)fault_registered;
  while (c->out_off < c->out.size()) {
    if (fault::Registry::Armed() &&
        !fault::Registry::Global().Hit("fleet.server.send").ok()) {
      return false;  // injected send failure: same path as a dead peer
    }
    const ssize_t w = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        GLINT_OBS_COUNT("glint.fleet.conn.write_stalls", 1);
        return true;  // kernel buffer full; EPOLLOUT resumes us
      }
      return false;  // peer is gone
    }
    c->out_off += static_cast<size_t>(w);
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

void FleetServer::RearmOrClose(Conn* c) {
  const bool pending_out = c->out_off < c->out.size();
  if (c->close_after_flush && !pending_out) {
    CloseConn(c);
    return;
  }
  const int fd = c->fd;  // read before the release: past it, the next
                         // owner may already be closing this conn
  epoll_event ev{};
  ev.events = EPOLLONESHOT;
  if (pending_out) ev.events |= EPOLLOUT;
  if (!c->close_after_flush && !Backpressured(c)) ev.events |= EPOLLIN;
  ev.data.u64 = reinterpret_cast<uint64_t>(c);
  // Release this round's writes to whichever worker the re-arm wakes.
  c->handoff.fetch_add(1, std::memory_order_release);
  // Re-arm as DEL+ADD rather than MOD. Functionally identical for a
  // ONESHOT-disarmed fd (readiness is re-evaluated at ADD, so pending
  // bytes fire immediately), but ADD is the arming operation sanitizers
  // model as a release on the epoll fd paired with epoll_wait's acquire —
  // MOD is not — so the cross-worker handoff is ordered for TSAN too.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    // Never armed: this worker still owns the conn exclusively.
    CloseConn(c);
  }
}

void FleetServer::CloseConn(Conn* c) {
  GLINT_OBS_COUNT("glint.fleet.conn.closed", 1);
  const int fd = c->fd;
  // Remove from the map BEFORE ::close. The kernel may hand the fd
  // number to a concurrent accept4 the instant close returns; if the
  // stale entry were still keyed under that number, the accepting
  // worker's emplace would collide and destroy its brand-new Conn while
  // the epoll registration keeps the dangling pointer.
  std::unique_ptr<Conn> owned;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(fd);
    if (it != conns_.end()) {
      owned = std::move(it->second);
      conns_.erase(it);
    }
  }
  ::close(fd);  // also removes the fd from the epoll set
  // `owned` frees the Conn here — after the registration is gone, and
  // only this worker held the pointer (EPOLLONESHOT single ownership).
}

FleetServer::Counters FleetServer::counters() const {
  Counters c;
  c.connections = connections_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  c.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  c.accept_backoffs = accept_backoffs_.load(std::memory_order_relaxed);
  c.batch_frames = batch_frames_.load(std::memory_order_relaxed);
  c.batch_events = batch_events_.load(std::memory_order_relaxed);
  c.overloaded = overloaded_.load(std::memory_order_relaxed);
  return c;
}

size_t FleetServer::open_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

wire::Reply FleetServer::Dispatch(wire::Request& req,
                                  obs::TraceContext* ctx) {
  switch (req.type) {
    case wire::MsgType::kPing: {
      wire::Reply reply;
      reply.type = wire::MsgType::kPong;
      return reply;
    }
    case wire::MsgType::kAddHome:
    case wire::MsgType::kAddRule:
    case wire::MsgType::kRemoveRule: {
      const int k = fleet_->ShardOf(req.home);
      const ShardHealth h = bus_->health(k);
      if (h == ShardHealth::kDegraded || h == ShardHealth::kDown) {
        // Shed BEFORE the ack: the message is never posted, so the
        // no-acked-work-lost invariant is untouched — the client retries
        // after the hint and nothing was half-done.
        bus_->NoteOverloadShed(k);
        return wire::AckFor(Status::Overloaded(
            "shard " + std::to_string(k) + " is " + ShardHealthName(h)));
      }
      BusMessage msg;
      msg.home = req.home;
      switch (req.type) {
        case wire::MsgType::kAddHome:
          msg.kind = BusMessage::Kind::kAddHome;
          msg.rules = std::move(req.rules);
          break;
        case wire::MsgType::kAddRule:
          msg.kind = BusMessage::Kind::kAddRule;
          msg.rule = std::move(req.rule);
          break;
        default:
          msg.kind = BusMessage::Kind::kRemoveRule;
          msg.rule_id = req.rule_id;
          break;
      }
      if (ctx->active()) {
        // The trace rides the message from here: the shard consumer
        // finishes it after apply, and this connection's copy goes
        // inactive so the ack path does not double-finish. Post stamps
        // kEnqueue (charging any kBlock wait); a rejected Post drops the
        // trace with the message.
        ctx->shard = k;
        msg.trace = *ctx;
        *ctx = obs::TraceContext{};
      }
      return wire::AckFor(bus_->Post(std::move(msg)));
    }
    case wire::MsgType::kEventBatch: {
      const uint32_t n = static_cast<uint32_t>(req.events.size());
      const int k = fleet_->ShardOf(req.home);
      const ShardHealth h = bus_->health(k);
      if (h == ShardHealth::kDegraded || h == ShardHealth::kDown) {
        bus_->NoteOverloadShed(k);
        wire::Reply reply;
        reply.type = wire::MsgType::kBatchAck;
        reply.code = static_cast<int32_t>(StatusCode::kOverloaded);
        reply.message = "Overloaded: shard " + std::to_string(k) + " is " +
                        ShardHealthName(h);
        return reply;
      }
      batch_frames_.fetch_add(1, std::memory_order_relaxed);
      batch_events_.fetch_add(n, std::memory_order_relaxed);
      GLINT_OBS_COUNT("glint.fleet.server.batch_frames", 1);
      GLINT_OBS_COUNT("glint.fleet.server.batch_events", n);
      BusMessage msg;
      msg.kind = BusMessage::Kind::kEventBatch;
      msg.home = req.home;
      msg.seq = req.seq;
      msg.events = std::move(req.events);
      if (ctx->active()) {
        // ONE trace spans the whole batch — per-frame trace cost is part
        // of what batching amortizes; the events count keeps per-event
        // stage attribution recoverable (stage_ns / events).
        ctx->shard = k;
        ctx->events = n;
        msg.trace = *ctx;
        *ctx = obs::TraceContext{};
      }
      const Status st = bus_->PostBatch(std::move(msg));
      wire::Reply reply;
      reply.type = wire::MsgType::kBatchAck;
      reply.code = static_cast<int32_t>(st.code());
      reply.message = st.ok() ? "" : st.ToString();
      reply.batch_events = st.ok() ? n : 0;
      return reply;
    }
    case wire::MsgType::kInspect: {
      // Inspect on the owning shard's consumer thread, behind everything
      // the bus already accepted for that shard. This is the only
      // race-free read while other connections keep posting: a flush
      // barrier alone would let the consumer apply a just-posted event
      // to the engine while we read it.
      const int k = fleet_->ShardOf(req.home);
      ctx->shard = k;
      const ShardHealth h = bus_->health(k);
      if (h == ShardHealth::kDown) {
        // Never queue a read behind a dead/wedged consumer.
        bus_->NoteOverloadShed(k);
        wire::Reply reply;
        reply.type = wire::MsgType::kWarning;
        reply.code = static_cast<int32_t>(StatusCode::kOverloaded);
        reply.message =
            "Overloaded: shard " + std::to_string(k) + " is down";
        return reply;
      }
      // Degraded mode: verdict-cache hits answer at full fidelity, misses
      // skip the explainer — verdict and confidence stay bit-identical,
      // only culprit attribution is shed (DESIGN.md §16).
      const bool degraded = h == ShardHealth::kDegraded;
      // The deadline is evaluated at DEQUEUE, on the consumer thread: the
      // queue wait is the unbounded part under overload, and shedding
      // there frees exactly the work whose answer would arrive too late.
      const uint64_t deadline_ns =
          req.deadline_ms > 0
              ? obs::NowNs() + uint64_t(req.deadline_ms) * 1000000ull
              : 0;
      bool deadline_shed = false;
      Result<core::ThreatWarning> w =
          Status::FailedPrecondition("fleet server is stopping");
      const Status ran = bus_->RunOnShard(
          k,
          [&] {
            if (deadline_ns != 0 && obs::NowNs() > deadline_ns) {
              deadline_shed = true;
              return;
            }
            w = degraded ? fleet_->TryInspectDegraded(req.home, req.now_hours)
                         : fleet_->TryInspect(req.home, req.now_hours);
          },
          ctx->active() ? ctx : nullptr);
      if (deadline_shed) {
        bus_->NoteDeadlineShed(k);
        wire::Reply reply;
        reply.type = wire::MsgType::kWarning;
        reply.code = static_cast<int32_t>(StatusCode::kOverloaded);
        reply.message = "Overloaded: deadline (" +
                        std::to_string(req.deadline_ms) +
                        "ms) expired in shard " + std::to_string(k) +
                        "'s queue";
        return reply;
      }
      if (!ran.ok()) w = ran;  // includes kOverloaded task timeouts
      wire::Reply reply;
      reply.type = wire::MsgType::kWarning;
      reply.code = static_cast<int32_t>(w.status().code());
      if (!w.ok()) {
        reply.message = w.status().ToString();
      } else {
        reply.threat = w.value().threat;
        reply.drifting = w.value().drifting;
        reply.confidence = w.value().confidence;
        reply.degraded = degraded;
        reply.rendered = w.value().Render();
      }
      return reply;
    }
    case wire::MsgType::kHealth:
      // Atomics only — answerable even while every shard is wedged, which
      // is exactly when a prober needs it.
      return BuildHealthReply();
    case wire::MsgType::kStats: {
      // Read each shard on its own consumer thread (same discipline as
      // kInspect — a fleet-wide Flush is not a barrier against clients
      // still posting), then aggregate here. Shards are visited one at a
      // time, so the accumulators need no locking.
      core::DeploymentSession::CacheStats agg;
      uint64_t homes = 0;
      for (int k = 0; k < fleet_->num_shards(); ++k) {
        // A down shard's consumer may be gone or wedged — skip rather
        // than park this worker on its task timeout.
        if (bus_->health(k) == ShardHealth::kDown) continue;
        (void)bus_->RunOnShard(k, [&, k] {
          homes += fleet_->shard(k).num_homes();
          agg += fleet_->shard(k).AggregateStats();
          fleet_->PublishShardGauges(k);
        });  // only fails once Stop() has begun: report what we have
      }
      auto& reg = obs::Registry::Global();
      reg.GetGauge("glint.fleet.shards")->Set(fleet_->num_shards());
      reg.GetGauge("glint.fleet.homes")->Set(static_cast<int64_t>(homes));
      wire::Reply reply;
      reply.type = wire::MsgType::kStatsReply;
      reply.homes = homes;
      reply.rules = agg.rules;
      reply.events = agg.events;
      reply.inspects = agg.inspects;
      reply.bus_rejected = bus_->rejected();
      reply.bus_apply_errors = bus_->apply_errors();
      const Counters c = counters();
      reply.server_connections = c.connections;
      reply.server_requests = c.requests;
      reply.server_bad_frames = c.bad_frames;
      reply.server_bad_requests = c.bad_requests;
      reply.server_accept_backoffs = c.accept_backoffs;
      reply.server_overloaded = c.overloaded;
      // Stats touch every shard, not one: the apply stage lands in the
      // recorder's server bucket (shard stays -1).
      ctx->Mark(obs::TraceStage::kApply);
      return reply;
    }
    case wire::MsgType::kStatsJson: {
      wire::Reply reply = BuildStatsJsonReply();
      ctx->Mark(obs::TraceStage::kApply);
      return reply;
    }
    default:
      return wire::AckFor(Status::InvalidArgument(
          "not a request type: " +
          std::to_string(static_cast<int>(req.type))));
  }
}

wire::Reply FleetServer::BuildStatsJsonReply() {
  wire::Reply reply;
  reply.type = wire::MsgType::kStatsJsonReply;
  const int n = fleet_->num_shards();
  reply.shard_stats.resize(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    wire::ShardStat& s = reply.shard_stats[static_cast<size_t>(k)];
    const ShardHealth h = bus_->health(k);
    s.health = static_cast<uint8_t>(h);
    s.overload_shed = bus_->overload_shed(k);
    s.deadline_shed = bus_->deadline_shed(k);
    s.restarts = bus_->restarts(k);
    // Serving counters on the shard's consumer thread (the race-free
    // read); bus/trace state is atomics, readable from here. A down
    // shard's consumer may be gone — report its atomics only.
    if (h != ShardHealth::kDown) {
      (void)bus_->RunOnShard(k, [&, k] {
        s.homes = fleet_->shard(k).num_homes();
        const auto agg = fleet_->shard(k).AggregateStats();
        s.rules = agg.rules;
        s.events = agg.events;
        s.inspects = agg.inspects;
        fleet_->PublishShardGauges(k);
      });  // only fails once Stop() has begun: report what we have
    }
    s.queue_depth = bus_->queue_depth(k);
    s.queue_high_water = bus_->queue_high_water(k);
    s.applied = bus_->applied(k);
    s.events_per_sec =
        series_->Get("glint.fleet.shard" + std::to_string(k) +
                     ".events_per_sec")
            ->Latest()
            .v;
    using obs::TraceStage;
    s.queue_wait_p50_ms =
        recorder_->stage_hist(k, TraceStage::kQueueWait)->Quantile(0.5);
    s.queue_wait_p99_ms =
        recorder_->stage_hist(k, TraceStage::kQueueWait)->Quantile(0.99);
    s.apply_p50_ms =
        recorder_->stage_hist(k, TraceStage::kApply)->Quantile(0.5);
    s.apply_p99_ms =
        recorder_->stage_hist(k, TraceStage::kApply)->Quantile(0.99);
    s.inspect_p50_ms =
        recorder_->stage_hist(k, TraceStage::kInspect)->Quantile(0.5);
    s.inspect_p99_ms =
        recorder_->stage_hist(k, TraceStage::kInspect)->Quantile(0.99);
  }
  reply.bus_rejected = bus_->rejected();
  reply.bus_apply_errors = bus_->apply_errors();
  const Counters c = counters();
  reply.server_connections = c.connections;
  reply.server_requests = c.requests;
  reply.server_bad_frames = c.bad_frames;
  reply.server_bad_requests = c.bad_requests;
  reply.server_accept_backoffs = c.accept_backoffs;
  reply.server_overloaded = c.overloaded;
  reply.stats_json = obs::Registry::Global().TakeSnapshot().RenderJson();
  reply.series_json = series_->RenderJson();
  for (const obs::CompletedTrace& t : recorder_->SlowTraces(64)) {
    wire::SlowTrace st;
    st.id = t.id;
    st.shard = t.shard;
    st.msg_type = t.msg_type;
    st.events = t.events;
    st.total_us = t.total_ns / 1000;
    for (int i = 0; i < obs::kNumTraceStages; ++i) {
      st.stage_us[i] = t.stage_ns[i] / 1000;
    }
    reply.slow_traces.push_back(st);
  }
  return reply;
}

wire::Reply FleetServer::BuildHealthReply() {
  wire::Reply reply;
  reply.type = wire::MsgType::kHealthReply;
  reply.retry_after_ms = bus_->retry_after_ms();
  const int n = fleet_->num_shards();
  reply.shard_health.resize(static_cast<size_t>(n));
  ShardHealth worst = ShardHealth::kHealthy;
  for (int k = 0; k < n; ++k) {
    wire::ShardHealthStat& s = reply.shard_health[static_cast<size_t>(k)];
    const ShardHealth h = bus_->health(k);
    s.state = static_cast<uint8_t>(h);
    s.queue_depth = bus_->queue_depth(k);
    s.overload_shed = bus_->overload_shed(k);
    s.deadline_shed = bus_->deadline_shed(k);
    s.restarts = bus_->restarts(k);
    if (ShardHealthSeverity(h) > ShardHealthSeverity(worst)) worst = h;
  }
  reply.fleet_health = static_cast<uint8_t>(worst);
  return reply;
}

Status FleetServer::Drain(int deadline_ms) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("already draining");
  }
  GLINT_OBS_COUNT("glint.fleet.server.drains", 1);
  // Refuse new connections without retiring the fd (Stop() owns that):
  // accepts start failing, pending handshakes are reset, and workers stop
  // re-arming the listener on the first failed accept.
  const int lfd = listen_fd_.load(std::memory_order_acquire);
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);
  // Live connections finish on their own: each service round under
  // draining_ serves what already arrived, flushes owed replies, and
  // closes (HandleConn). Idle connections with nothing owed are closed by
  // Stop() below — nothing acked is pending on them by definition.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (open_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Stop() drains the bus: every accepted (= acked) message applies
  // before it returns, so the snapshot below covers all acked work.
  Stop();
  if (fleet_->durable()) return fleet_->Snapshot();
  return Status::OK();
}

void FleetServer::SamplerLoop() {
  // Sleep in short slices so Stop() never waits a full interval.
  const auto interval = std::chrono::milliseconds(config_.sample_interval_ms);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    next += interval;
    SampleOnce();
  }
}

void FleetServer::SampleOnce() {
  const uint64_t now = obs::NowNs();
  const double dt_s =
      static_cast<double>(now - last_sample_ns_) / 1e9;
  using obs::TraceStage;
  for (int k = 0; k < fleet_->num_shards(); ++k) {
    const std::string base = "glint.fleet.shard" + std::to_string(k);
    series_->Push(base + ".queue_depth", now,
                  static_cast<double>(bus_->queue_depth(k)));
    series_->Push(base + ".health", now,
                  static_cast<double>(static_cast<uint8_t>(bus_->health(k))));
    // Event-level rate: a 64-event batch counts 64, so the series means
    // "events through this shard", whatever the framing.
    const uint64_t applied_events = bus_->applied_events(k);
    const size_t ki = static_cast<size_t>(k);
    const double rate =
        dt_s > 0
            ? static_cast<double>(applied_events - last_applied_events_[ki]) /
                  dt_s
            : 0.0;
    last_applied_events_[ki] = applied_events;
    series_->Push(base + ".events_per_sec", now, rate);
    obs::Histogram* qw = recorder_->stage_hist(k, TraceStage::kQueueWait);
    series_->Push(base + ".queue_wait_p50_ms", now, qw->Quantile(0.5));
    series_->Push(base + ".queue_wait_p99_ms", now, qw->Quantile(0.99));
    obs::Histogram* ap = recorder_->stage_hist(k, TraceStage::kApply);
    series_->Push(base + ".apply_p50_ms", now, ap->Quantile(0.5));
    series_->Push(base + ".apply_p99_ms", now, ap->Quantile(0.99));
  }
  series_->Push("glint.fleet.bus.rejected", now,
                static_cast<double>(bus_->rejected()));
  series_->Push("glint.fleet.conn.open", now,
                static_cast<double>(open_connections()));
  last_sample_ns_ = now;
}

}  // namespace glint::fleet
