#include "fleet/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <algorithm>
#include <chrono>
#include <thread>

#include "graph/event_log.h"
#include "rules/rule_io.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace glint::fleet::wire {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "kPing";
    case MsgType::kAddHome:
      return "kAddHome";
    case MsgType::kAddRule:
      return "kAddRule";
    case MsgType::kRemoveRule:
      return "kRemoveRule";
    case MsgType::kInspect:
      return "kInspect";
    case MsgType::kStats:
      return "kStats";
    case MsgType::kStatsJson:
      return "kStatsJson";
    case MsgType::kEventBatch:
      return "kEventBatch";
    case MsgType::kHealth:
      return "kHealth";
    case MsgType::kPong:
      return "kPong";
    case MsgType::kAck:
      return "kAck";
    case MsgType::kWarning:
      return "kWarning";
    case MsgType::kStatsReply:
      return "kStatsReply";
    case MsgType::kStatsJsonReply:
      return "kStatsJsonReply";
    case MsgType::kBatchAck:
      return "kBatchAck";
    case MsgType::kHealthReply:
      return "kHealthReply";
  }
  return "?";
}

// ---- Framing ------------------------------------------------------------

void AppendFrame(std::vector<char>* out, const std::vector<char>& payload) {
  GLINT_CHECK(payload.size() <= kMaxFramePayload);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = util::Crc32c(payload.data(), payload.size());
  const char* lp = reinterpret_cast<const char*>(&len);
  const char* cp = reinterpret_cast<const char*>(&crc);
  out->insert(out->end(), lp, lp + sizeof len);
  out->insert(out->end(), cp, cp + sizeof crc);
  out->insert(out->end(), payload.begin(), payload.end());
}

FrameHeader FrameHeader::Parse(const char* bytes) {
  FrameHeader h;
  std::memcpy(&h.len, bytes, sizeof h.len);
  std::memcpy(&h.crc, bytes + sizeof h.len, sizeof h.crc);
  return h;
}

Status FrameHeader::CheckLength() const {
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("wire: oversized frame (" +
                                   std::to_string(len) + " bytes)");
  }
  return Status::OK();
}

Status FrameHeader::CheckPayload(const char* payload) const {
  if (util::Crc32c(payload, len) != crc) {
    return Status::InvalidArgument("wire: frame checksum mismatch");
  }
  return Status::OK();
}

Status DecodeFrame(util::ByteReader* r, std::vector<char>* payload) {
  FrameHeader header;
  if (!r->U32(&header.len) || !r->U32(&header.crc)) {
    return Status::InvalidArgument("wire: truncated frame header");
  }
  GLINT_RETURN_IF_ERROR(header.CheckLength());
  if (header.len > r->remaining()) {
    return Status::InvalidArgument("wire: truncated frame payload");
  }
  payload->resize(header.len);
  if (header.len > 0) r->Raw(payload->data(), header.len);
  return header.CheckPayload(payload->data());
}

// ---- Message codecs -----------------------------------------------------

namespace {

// List bounds: each element's smallest encoding caps a decoded count.
constexpr util::ListBound kRuleList{"rule", rules::kMinRuleBytes};
constexpr util::ListBound kEventBatchList{"event", graph::kMinEventBytes,
                                          /*nonempty=*/true, kMaxBatchEvents};
// u8 state + 4 u64.
constexpr util::ListBound kShardHealthList{"shard block", 33};
// 7 u64 + 7 f64 + u8 health + 3 u64.
constexpr util::ListBound kShardStatList{"shard block", 137};
// u64 id + i32 shard + u8 type + u32 events + u64 total + a u64 per stage.
constexpr util::ListBound kSlowTraceList{"trace",
                                         25 + 8 * obs::kNumTraceStages};

// The one field list of every request body (after the type byte). Q is
// const Request when encoding, Request when decoding; false for a type
// that is not a request.
template <class IO, class Q>
bool RequestFields(IO& io, Q& q) {
  auto rule = [&io](auto& r) { return rules::RuleFields(io, r); };
  auto event = [&io](auto& e) { return graph::EventFields(io, e); };
  switch (q.type) {
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kStatsJson:
    case MsgType::kHealth:
      return true;
    case MsgType::kAddHome:
      return io.U32(q.deadline_ms) && io.Str(q.home) &&
             io.List(q.rules, kRuleList, rule);
    case MsgType::kAddRule:
      return io.U32(q.deadline_ms) && io.Str(q.home) && rule(q.rule);
    case MsgType::kRemoveRule:
      return io.U32(q.deadline_ms) && io.Str(q.home) && io.I32(q.rule_id);
    case MsgType::kEventBatch:
      return io.U32(q.deadline_ms) && io.U64(q.seq) && io.Str(q.home) &&
             io.List(q.events, kEventBatchList, event);
    case MsgType::kInspect:
      return io.U32(q.deadline_ms) && io.Str(q.home) && io.F64(q.now_hours);
    default:
      return false;
  }
}

// kStatsReply and kStatsJsonReply share the per-server counter block.
template <class IO, class P>
bool ServerCounterFields(IO& io, P& p) {
  return io.U64(p.server_connections) && io.U64(p.server_requests) &&
         io.U64(p.server_bad_frames) && io.U64(p.server_bad_requests) &&
         io.U64(p.server_accept_backoffs) && io.U64(p.server_overloaded);
}

// The one field list of every reply body, as RequestFields.
template <class IO, class P>
bool ReplyFields(IO& io, P& p) {
  auto health = [&io](auto& h) {
    return io.U8(h.state) && io.U64(h.queue_depth) &&
           io.U64(h.overload_shed) && io.U64(h.deadline_shed) &&
           io.U64(h.restarts);
  };
  auto shard = [&io](auto& s) {
    return io.U64(s.homes) && io.U64(s.rules) && io.U64(s.events) &&
           io.U64(s.inspects) && io.U64(s.queue_depth) &&
           io.U64(s.queue_high_water) && io.U64(s.applied) &&
           io.F64(s.events_per_sec) && io.F64(s.queue_wait_p50_ms) &&
           io.F64(s.queue_wait_p99_ms) && io.F64(s.apply_p50_ms) &&
           io.F64(s.apply_p99_ms) && io.F64(s.inspect_p50_ms) &&
           io.F64(s.inspect_p99_ms) && io.U8(s.health) &&
           io.U64(s.overload_shed) && io.U64(s.deadline_shed) &&
           io.U64(s.restarts);
  };
  auto trace = [&io](auto& t) {
    bool ok = io.U64(t.id) && io.I32(t.shard) && io.U8(t.msg_type) &&
              io.U32(t.events) && io.U64(t.total_us);
    for (auto& us : t.stage_us) ok = ok && io.U64(us);
    return ok;
  };
  switch (p.type) {
    case MsgType::kPong:
      return true;
    case MsgType::kAck:
      return io.I32(p.code) && io.Str(p.message) && io.U32(p.retry_after_ms);
    case MsgType::kBatchAck:
      return io.I32(p.code) && io.Str(p.message) && io.U32(p.batch_events) &&
             io.U32(p.retry_after_ms);
    case MsgType::kWarning:
      return io.I32(p.code) && io.Str(p.message) &&
             io.U32(p.retry_after_ms) && io.Bool8(p.threat) &&
             io.Bool8(p.drifting) && io.Bool8(p.degraded) &&
             io.F64(p.confidence) && io.Str(p.rendered);
    case MsgType::kHealthReply:
      return io.U8(p.fleet_health) && io.U32(p.retry_after_ms) &&
             io.List(p.shard_health, kShardHealthList, health);
    case MsgType::kStatsReply:
      return io.U64(p.homes) && io.U64(p.rules) && io.U64(p.events) &&
             io.U64(p.inspects) && io.U64(p.bus_rejected) &&
             io.U64(p.bus_apply_errors) && ServerCounterFields(io, p);
    case MsgType::kStatsJsonReply:
      return io.Str(p.stats_json) && io.Str(p.series_json) &&
             io.List(p.shard_stats, kShardStatList, shard) &&
             io.U64(p.bus_rejected) && io.U64(p.bus_apply_errors) &&
             ServerCounterFields(io, p) &&
             io.List(p.slow_traces, kSlowTraceList, trace);
    default:
      return false;
  }
}

/// Encodes `msg`'s type byte and body.
template <class Msg, class Fields>
std::vector<char> Encode(const Msg& msg, Fields fields) {
  util::ByteWriter w;
  w.U8(static_cast<uint8_t>(msg.type));
  util::LayoutWriter io(&w);
  GLINT_CHECK(fields(io, msg) && "not a type of this message kind");
  return w.TakeBuffer();
}

/// Strict decode of a request (`reply` false) or reply: InvalidArgument
/// for a missing or unknown type byte, a cut-off body, a refused count or
/// trailing bytes. Requests have type bytes below kPong, replies from it
/// up.
template <class Msg, class Fields>
Status Decode(const std::vector<char>& payload, bool reply, Msg* msg,
              Fields fields) {
  const char* kind = reply ? "wire reply: " : "wire request: ";
  util::ByteReader r(payload);
  uint8_t type = 0;
  if (!r.U8(&type)) {
    return Status::InvalidArgument(std::string(kind) + "missing type");
  }
  *msg = Msg();
  msg->type = static_cast<MsgType>(type);
  const char* name = MsgTypeName(msg->type);
  if (name[0] == '?' ||
      (type >= static_cast<uint8_t>(MsgType::kPong)) != reply) {
    return Status::InvalidArgument(std::string(kind) + "unknown type " +
                                   std::to_string(type));
  }
  util::LayoutReader io(&r);
  if (!fields(io, *msg)) {
    // "kAddHome" -> "wire AddHome: ..."
    return Status::InvalidArgument(
        std::string("wire ") + (name + 1) + ": " +
        (io.error().empty() ? "truncated body" : io.error()));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument(std::string(kind) + "trailing bytes");
  }
  return Status::OK();
}

}  // namespace

std::vector<char> EncodeRequest(const Request& req) {
  return Encode(req, [](auto& io, const Request& q) {
    return RequestFields(io, q);
  });
}

Status DecodeRequest(const std::vector<char>& payload, Request* req) {
  GLINT_RETURN_IF_ERROR(
      Decode(payload, /*reply=*/false, req,
             [](auto& io, Request& q) { return RequestFields(io, q); }));
  // The seq range first_seq..first_seq+n-1 must not wrap: a wrapped
  // high-water mark would disable the home's dedup.
  if (req->type == MsgType::kEventBatch &&
      req->seq > UINT64_MAX - (req->events.size() - 1)) {
    return Status::InvalidArgument("wire EventBatch: seq range wraps");
  }
  return Status::OK();
}

std::vector<char> EncodeReply(const Reply& reply) {
  return Encode(reply,
                [](auto& io, const Reply& p) { return ReplyFields(io, p); });
}

Status DecodeReply(const std::vector<char>& payload, Reply* reply) {
  return Decode(payload, /*reply=*/true, reply,
                [](auto& io, Reply& p) { return ReplyFields(io, p); });
}

Reply AckFor(const Status& st) {
  Reply reply;
  reply.type = MsgType::kAck;
  reply.code = static_cast<int32_t>(st.code());
  reply.message = st.ok() ? "" : st.ToString();
  return reply;
}

// ---- Blocking socket I/O ------------------------------------------------

namespace {

/// Full write with EINTR retry; false on any hard failure.
bool WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

/// Full read with EINTR retry. Returns bytes read (< n at EOF or on a
/// receive timeout — SO_RCVTIMEO surfaces as EAGAIN, reported through
/// `timed_out` so callers can tell a dead-but-open peer from a closed
/// one).
size_t ReadAll(int fd, char* data, size_t n, bool* timed_out = nullptr) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::recv(fd, data + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (timed_out != nullptr &&
          (errno == EAGAIN || errno == EWOULDBLOCK)) {
        *timed_out = true;
      }
      return off;
    }
    if (r == 0) return off;  // EOF
    off += static_cast<size_t>(r);
  }
  return off;
}

}  // namespace

Status SendFrame(int fd, const std::vector<char>& payload) {
  // Chaos point: a failed or delayed frame send at either endpoint
  // (tests/fleet_chaos_test.cc drives retry/reconnect through it).
  GLINT_FAULT_POINT("fleet.wire.send");
  std::vector<char> frame;
  frame.reserve(payload.size() + 8);
  AppendFrame(&frame, payload);
  if (!WriteAll(fd, frame.data(), frame.size())) {
    return Status::IOError("wire send: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status RecvFrame(int fd, std::vector<char>* payload, uint64_t* arrival_ns,
                 bool* frame_timed_out) {
  GLINT_FAULT_POINT("fleet.wire.recv");
  if (frame_timed_out != nullptr) *frame_timed_out = false;
  char bytes[kFrameHeaderBytes];
  bool timed_out = false;
  const size_t got = ReadAll(fd, bytes, sizeof bytes, &timed_out);
  if (got == 0) {
    if (timed_out) {
      if (frame_timed_out != nullptr) *frame_timed_out = true;
      return Status::IOError("wire recv: timed out waiting for a frame");
    }
    return Status::NotFound("wire: connection closed");  // clean EOF
  }
  // The blocking wait for a frame to *start* ends with the header; stamp
  // now so traced accept time covers reading the frame, not connection
  // idle time between requests.
  if (arrival_ns != nullptr) *arrival_ns = obs::NowNs();
  if (got < sizeof bytes) {
    if (timed_out && frame_timed_out != nullptr) *frame_timed_out = true;
    return Status::IOError(timed_out ? "wire recv: timed out inside header"
                                     : "wire: EOF inside frame header");
  }
  const FrameHeader header = FrameHeader::Parse(bytes);
  GLINT_RETURN_IF_ERROR(header.CheckLength());
  payload->resize(header.len);
  timed_out = false;
  if (header.len > 0 &&
      ReadAll(fd, payload->data(), header.len, &timed_out) < header.len) {
    if (timed_out && frame_timed_out != nullptr) *frame_timed_out = true;
    return Status::IOError(timed_out ? "wire recv: timed out inside payload"
                                     : "wire: EOF inside frame payload");
  }
  return header.CheckPayload(payload->data());
}

// ---- Client -------------------------------------------------------------

namespace {

/// True when `reply` is a legal answer to a `req`-typed request. An
/// error kAck is legal for every request type (the server's universal
/// "could not" answer); otherwise the pairing is fixed by the protocol.
bool ReplyMatchesRequest(MsgType req, MsgType reply) {
  if (reply == MsgType::kAck) return true;
  switch (req) {
    case MsgType::kPing:
      return reply == MsgType::kPong;
    case MsgType::kEventBatch:
      return reply == MsgType::kBatchAck;
    case MsgType::kInspect:
      return reply == MsgType::kWarning;
    case MsgType::kStats:
      return reply == MsgType::kStatsReply;
    case MsgType::kStatsJson:
      return reply == MsgType::kStatsJsonReply;
    case MsgType::kHealth:
      return reply == MsgType::kHealthReply;
    default:
      return false;  // mutations answer with kAck, handled above
  }
}

}  // namespace

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  pending_.clear();
}

Status Client::CheckUsable() const {
  if (!poison_.ok()) return poison_;
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  return Status::OK();
}

void Client::Poison(const std::string& why) {
  poison_ = Status::FailedPrecondition(
      "pipeline poisoned (" + why +
      "): FIFO reply matching is lost; Connect() again to reset");
}

uint64_t Client::NextRand() {
  // xorshift64* — cheap deterministic jitter, no <random> machinery.
  uint64_t x = rng_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_ = x;
  return x * 0x2545f4914f6cdd1dull;
}

int Client::BackoffMs(int attempt) {
  int cap = options_.backoff_base_ms;
  for (int i = 0; i < attempt && cap < options_.backoff_max_ms; ++i) {
    cap *= 2;
  }
  cap = std::min(cap, options_.backoff_max_ms);
  if (cap <= 0) return 0;
  return static_cast<int>(NextRand() % static_cast<uint64_t>(cap + 1));
}

Status Client::Connect(const std::string& host, int port) {
  Close();
  host_ = host;
  port_ = port;
  poison_ = Status::OK();
  if (rng_ == 0) rng_ = options_.backoff_seed ? options_.backoff_seed : 1;
  return RawConnect();
}

Status Client::ReconnectAndReplay() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  Status st = Status::IOError("reconnect never attempted");
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(attempt - 1)));
    }
    st = RawConnect();
    if (st.ok()) break;
  }
  if (!st.ok()) return st;
  ++reconnects_;
  // Re-establish the pipeline window: every unanswered request frame goes
  // out again, in order. The transport becomes at-least-once; seq-number
  // dedup on the server keeps the apply exactly-once.
  for (const auto& in_flight : pending_) {
    GLINT_RETURN_IF_ERROR(SendFrame(fd_, in_flight.frame));
  }
  return Status::OK();
}

Status Client::RawConnect() {
  const std::string& host = host_;
  const int port = port_;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  // Bounded connect: flip to non-blocking, start the handshake, poll for
  // writability, then read SO_ERROR for the real outcome. A silently
  // dropped SYN (dead server, filtered port) costs connect_timeout_ms,
  // never minutes of kernel retry.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (options_.connect_timeout_ms > 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  // EINTR from connect() means the handshake CONTINUES asynchronously
  // (POSIX: the connection is not aborted) — treat it exactly like
  // EINPROGRESS and poll for the outcome rather than surfacing a spurious
  // error. On a blocking socket (connect_timeout_ms == 0) the poll below
  // simply waits without a deadline.
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && (errno == EINPROGRESS || errno == EINTR)) {
    pollfd pfd{fd, POLLOUT, 0};
    const int poll_ms =
        options_.connect_timeout_ms > 0 ? options_.connect_timeout_ms : -1;
    do {
      rc = ::poll(&pfd, 1, poll_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      ::close(fd);
      return Status::IOError("connect " + host + ":" + std::to_string(port) +
                             ": timed out after " +
                             std::to_string(options_.connect_timeout_ms) +
                             "ms");
    }
    int err = 0;
    socklen_t err_len = sizeof err;
    if (rc < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      if (err != 0) errno = err;
      ::close(fd);
      return Status::IOError("connect " + host + ":" + std::to_string(port) +
                             ": " + std::strerror(errno));
    }
  } else if (rc != 0) {
    ::close(fd);
    return Status::IOError("connect " + host + ":" + std::to_string(port) +
                           ": " + std::strerror(errno));
  }
  if (options_.connect_timeout_ms > 0) ::fcntl(fd, F_SETFL, flags);
  if (options_.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  return Status::OK();
}

Status Client::Call(const Request& req, Reply* reply) {
  GLINT_RETURN_IF_ERROR(CheckUsable());
  if (pending() > 0) {
    return Status::FailedPrecondition(
        "Call with " + std::to_string(pending()) +
        " pipelined requests in flight; drain with Recv first");
  }
  GLINT_RETURN_IF_ERROR(Send(req));
  Status st = Recv(reply);
  // A failed exchange leaves nothing in flight: the next Call starts a
  // fresh one (a poisoned pipeline still refuses it until Connect).
  if (!st.ok()) pending_.clear();
  return st;
}

Status Client::CallRetrying(const Request& req, Reply* reply) {
  Status st;
  for (int attempt = 0;; ++attempt) {
    st = Call(req, reply);
    if (!st.ok()) return st;
    if (reply->code != static_cast<int32_t>(StatusCode::kOverloaded) ||
        attempt >= options_.max_retries) {
      return st;
    }
    // Shed by the server: honor its hint, floored by our jittered backoff
    // so hintless sheds still spread out.
    const int wait_ms =
        std::max(static_cast<int>(reply->retry_after_ms), BackoffMs(attempt));
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
}

Status Client::Send(const Request& req) {
  GLINT_RETURN_IF_ERROR(CheckUsable());
  if (pending() >= options_.max_window) {
    return Status::FailedPrecondition(
        "pipeline window full (" + std::to_string(options_.max_window) +
        " in flight); drain with Recv first");
  }
  std::vector<char> payload = EncodeRequest(req);
  Status st = SendFrame(fd_, payload);
  for (int attempt = 0;
       !st.ok() && options_.auto_reconnect && attempt < options_.max_retries;
       ++attempt) {
    // A failed send is never a timeout (no SO_SNDTIMEO): reconnect,
    // replay the window, then retry this frame.
    Status rc = ReconnectAndReplay();
    if (!rc.ok()) return rc;
    st = SendFrame(fd_, payload);
  }
  if (!st.ok()) return st;
  pending_.push_back({req.type, std::move(payload)});
  return Status::OK();
}

Status Client::Recv(Reply* reply, MsgType* for_request) {
  GLINT_RETURN_IF_ERROR(CheckUsable());
  if (pending() == 0) {
    return Status::FailedPrecondition("no pipelined request in flight");
  }
  // The server serves each connection's frames strictly in order, so the
  // next reply frame answers the oldest in-flight request.
  const MsgType req_type = pending_.front().type;
  std::vector<char> payload;
  bool timed_out = false;
  Status st = RecvFrame(fd_, &payload, nullptr, &timed_out);
  for (int attempt = 0;
       !st.ok() && !timed_out && options_.auto_reconnect &&
       attempt < options_.max_retries;
       ++attempt) {
    // Mid-pipeline transport loss: reconnect re-establishes the window by
    // replaying every unanswered frame, then we read replies afresh.
    Status rc = ReconnectAndReplay();
    if (!rc.ok()) return rc;
    st = RecvFrame(fd_, &payload, nullptr, &timed_out);
  }
  if (!st.ok()) {
    if (timed_out) {
      Poison("recv timed out after " +
             std::to_string(options_.recv_timeout_ms) +
             "ms with " + std::to_string(pending()) + " in flight");
    }
    return st;
  }
  st = DecodeReply(payload, reply);
  if (!st.ok()) {
    Poison("reply decode failed: " + st.message());
    return st;
  }
  if (!ReplyMatchesRequest(req_type, reply->type)) {
    st = Status::IOError(std::string("wire: reply ") +
                         MsgTypeName(reply->type) + " does not answer " +
                         MsgTypeName(req_type));
    Poison(st.message());
    return st;
  }
  if (for_request != nullptr) *for_request = req_type;
  pending_.pop_front();
  return Status::OK();
}

}  // namespace glint::fleet::wire
