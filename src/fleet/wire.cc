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

Status DecodeFrame(util::ByteReader* r, std::vector<char>* payload) {
  uint32_t len = 0, crc = 0;
  if (!r->U32(&len) || !r->U32(&crc)) {
    return Status::InvalidArgument("wire: truncated frame header");
  }
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("wire: oversized frame (" +
                                   std::to_string(len) + " bytes)");
  }
  if (len > r->remaining()) {
    return Status::InvalidArgument("wire: truncated frame payload");
  }
  payload->resize(len);
  if (len > 0 && !r->Raw(payload->data(), len)) {
    return Status::InvalidArgument("wire: truncated frame payload");
  }
  const uint32_t actual = util::Crc32c(payload->data(), payload->size());
  if (actual != crc) {
    return Status::InvalidArgument("wire: frame checksum mismatch");
  }
  return Status::OK();
}

// ---- Message codecs -----------------------------------------------------

std::vector<char> EncodeRequest(const Request& req) {
  util::ByteWriter w;
  w.U8(static_cast<uint8_t>(req.type));
  switch (req.type) {
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kStatsJson:
    case MsgType::kHealth:
      break;
    case MsgType::kAddHome:
      w.U32(req.deadline_ms);
      w.Str(req.home);
      w.U32(static_cast<uint32_t>(req.rules.size()));
      for (const auto& rule : req.rules) rules::WriteRule(&w, rule);
      break;
    case MsgType::kAddRule:
      w.U32(req.deadline_ms);
      w.Str(req.home);
      rules::WriteRule(&w, req.rule);
      break;
    case MsgType::kRemoveRule:
      w.U32(req.deadline_ms);
      w.Str(req.home);
      w.I32(req.rule_id);
      break;
    case MsgType::kEventBatch:
      GLINT_CHECK(!req.events.empty() &&
                  req.events.size() <= kMaxBatchEvents);
      w.U32(req.deadline_ms);
      w.U64(req.seq);
      w.Str(req.home);
      w.U32(static_cast<uint32_t>(req.events.size()));
      for (const auto& e : req.events) graph::WriteEvent(&w, e);
      break;
    case MsgType::kInspect:
      w.U32(req.deadline_ms);
      w.Str(req.home);
      w.F64(req.now_hours);
      break;
    default:
      GLINT_CHECK(false && "EncodeRequest: not a request type");
  }
  return w.TakeBuffer();
}

Status DecodeRequest(const std::vector<char>& payload, Request* req) {
  util::ByteReader r(payload);
  uint8_t type = 0;
  if (!r.U8(&type)) {
    return Status::InvalidArgument("wire request: missing type");
  }
  *req = Request();
  req->type = static_cast<MsgType>(type);
  switch (req->type) {
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kStatsJson:
    case MsgType::kHealth:
      break;
    case MsgType::kAddHome: {
      uint32_t n = 0;
      if (!r.U32(&req->deadline_ms) || !r.Str(&req->home) || !r.U32(&n) ||
          n > r.remaining()) {
        return Status::InvalidArgument("wire AddHome: truncated body");
      }
      req->rules.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!rules::ReadRule(&r, &req->rules[i])) {
          return Status::InvalidArgument("wire AddHome: truncated rule");
        }
      }
      break;
    }
    case MsgType::kAddRule:
      if (!r.U32(&req->deadline_ms) || !r.Str(&req->home) ||
          !rules::ReadRule(&r, &req->rule)) {
        return Status::InvalidArgument("wire AddRule: truncated body");
      }
      break;
    case MsgType::kRemoveRule:
      if (!r.U32(&req->deadline_ms) || !r.Str(&req->home) ||
          !r.I32(&req->rule_id)) {
        return Status::InvalidArgument("wire RemoveRule: truncated body");
      }
      break;
    case MsgType::kEventBatch: {
      uint32_t n = 0;
      if (!r.U32(&req->deadline_ms) || !r.U64(&req->seq) ||
          !r.Str(&req->home) || !r.U32(&n)) {
        return Status::InvalidArgument("wire EventBatch: truncated body");
      }
      if (n == 0) {
        return Status::InvalidArgument("wire EventBatch: empty batch");
      }
      if (n > kMaxBatchEvents) {
        return Status::InvalidArgument(
            "wire EventBatch: " + std::to_string(n) + " events exceeds max " +
            std::to_string(kMaxBatchEvents));
      }
      // The seq range first_seq..first_seq+n-1 must not wrap: a wrapped
      // high-water mark would disable the home's dedup.
      if (req->seq > UINT64_MAX - (n - 1)) {
        return Status::InvalidArgument("wire EventBatch: seq range wraps");
      }
      // An Event is at least 28 bytes (f64 + 4×i32 + empty Str); a count
      // the remaining payload cannot hold is malformed, never allocated.
      if (n > r.remaining() / 28) {
        return Status::InvalidArgument(
            "wire EventBatch: event count exceeds payload");
      }
      req->events.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!graph::ReadEvent(&r, &req->events[i])) {
          return Status::InvalidArgument("wire EventBatch: truncated event");
        }
      }
      break;
    }
    case MsgType::kInspect:
      if (!r.U32(&req->deadline_ms) || !r.Str(&req->home) ||
          !r.F64(&req->now_hours)) {
        return Status::InvalidArgument("wire Inspect: truncated body");
      }
      break;
    default:
      return Status::InvalidArgument("wire request: unknown type " +
                                     std::to_string(type));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("wire request: trailing bytes");
  }
  return Status::OK();
}

namespace {

// kStatsReply and kStatsJsonReply share the per-server counter block.
void WriteServerCounters(util::ByteWriter* w, const Reply& reply) {
  w->U64(reply.server_connections);
  w->U64(reply.server_requests);
  w->U64(reply.server_bad_frames);
  w->U64(reply.server_bad_requests);
  w->U64(reply.server_accept_backoffs);
  w->U64(reply.server_overloaded);
}

bool ReadServerCounters(util::ByteReader* r, Reply* reply) {
  return r->U64(&reply->server_connections) &&
         r->U64(&reply->server_requests) &&
         r->U64(&reply->server_bad_frames) &&
         r->U64(&reply->server_bad_requests) &&
         r->U64(&reply->server_accept_backoffs) &&
         r->U64(&reply->server_overloaded);
}

}  // namespace

std::vector<char> EncodeReply(const Reply& reply) {
  util::ByteWriter w;
  w.U8(static_cast<uint8_t>(reply.type));
  switch (reply.type) {
    case MsgType::kPong:
      break;
    case MsgType::kAck:
      w.I32(reply.code);
      w.Str(reply.message);
      w.U32(reply.retry_after_ms);
      break;
    case MsgType::kBatchAck:
      w.I32(reply.code);
      w.Str(reply.message);
      w.U32(reply.batch_events);
      w.U32(reply.retry_after_ms);
      break;
    case MsgType::kWarning:
      w.I32(reply.code);
      w.Str(reply.message);
      w.U32(reply.retry_after_ms);
      w.U8(reply.threat ? 1 : 0);
      w.U8(reply.drifting ? 1 : 0);
      w.U8(reply.degraded ? 1 : 0);
      w.F64(reply.confidence);
      w.Str(reply.rendered);
      break;
    case MsgType::kHealthReply:
      w.U8(reply.fleet_health);
      w.U32(reply.retry_after_ms);
      w.U32(static_cast<uint32_t>(reply.shard_health.size()));
      for (const auto& h : reply.shard_health) {
        w.U8(h.state);
        w.U64(h.queue_depth);
        w.U64(h.overload_shed);
        w.U64(h.deadline_shed);
        w.U64(h.restarts);
      }
      break;
    case MsgType::kStatsReply:
      w.U64(reply.homes);
      w.U64(reply.rules);
      w.U64(reply.events);
      w.U64(reply.inspects);
      w.U64(reply.bus_rejected);
      w.U64(reply.bus_apply_errors);
      WriteServerCounters(&w, reply);
      break;
    case MsgType::kStatsJsonReply: {
      w.Str(reply.stats_json);
      w.Str(reply.series_json);
      w.U32(static_cast<uint32_t>(reply.shard_stats.size()));
      for (const auto& s : reply.shard_stats) {
        w.U64(s.homes);
        w.U64(s.rules);
        w.U64(s.events);
        w.U64(s.inspects);
        w.U64(s.queue_depth);
        w.U64(s.queue_high_water);
        w.U64(s.applied);
        w.F64(s.events_per_sec);
        w.F64(s.queue_wait_p50_ms);
        w.F64(s.queue_wait_p99_ms);
        w.F64(s.apply_p50_ms);
        w.F64(s.apply_p99_ms);
        w.F64(s.inspect_p50_ms);
        w.F64(s.inspect_p99_ms);
        w.U8(s.health);
        w.U64(s.overload_shed);
        w.U64(s.deadline_shed);
        w.U64(s.restarts);
      }
      w.U64(reply.bus_rejected);
      w.U64(reply.bus_apply_errors);
      WriteServerCounters(&w, reply);
      w.U32(static_cast<uint32_t>(reply.slow_traces.size()));
      for (const auto& t : reply.slow_traces) {
        w.U64(t.id);
        w.I32(t.shard);
        w.U8(t.msg_type);
        w.U32(t.events);
        w.U64(t.total_us);
        for (int i = 0; i < obs::kNumTraceStages; ++i) w.U64(t.stage_us[i]);
      }
      break;
    }
    default:
      GLINT_CHECK(false && "EncodeReply: not a reply type");
  }
  return w.TakeBuffer();
}

Status DecodeReply(const std::vector<char>& payload, Reply* reply) {
  util::ByteReader r(payload);
  uint8_t type = 0;
  if (!r.U8(&type)) {
    return Status::InvalidArgument("wire reply: missing type");
  }
  *reply = Reply();
  reply->type = static_cast<MsgType>(type);
  uint8_t threat = 0, drifting = 0;
  switch (reply->type) {
    case MsgType::kPong:
      break;
    case MsgType::kAck:
      if (!r.I32(&reply->code) || !r.Str(&reply->message) ||
          !r.U32(&reply->retry_after_ms)) {
        return Status::InvalidArgument("wire Ack: truncated body");
      }
      break;
    case MsgType::kBatchAck:
      if (!r.I32(&reply->code) || !r.Str(&reply->message) ||
          !r.U32(&reply->batch_events) || !r.U32(&reply->retry_after_ms)) {
        return Status::InvalidArgument("wire BatchAck: truncated body");
      }
      break;
    case MsgType::kWarning: {
      uint8_t degraded = 0;
      if (!r.I32(&reply->code) || !r.Str(&reply->message) ||
          !r.U32(&reply->retry_after_ms) || !r.U8(&threat) ||
          !r.U8(&drifting) || !r.U8(&degraded) ||
          !r.F64(&reply->confidence) || !r.Str(&reply->rendered)) {
        return Status::InvalidArgument("wire Warning: truncated body");
      }
      reply->threat = threat != 0;
      reply->drifting = drifting != 0;
      reply->degraded = degraded != 0;
      break;
    }
    case MsgType::kHealthReply: {
      uint32_t n = 0;
      if (!r.U8(&reply->fleet_health) || !r.U32(&reply->retry_after_ms) ||
          !r.U32(&n)) {
        return Status::InvalidArgument("wire HealthReply: truncated body");
      }
      // Each shard block is 1 + 4×8 = 33 bytes; a count the remaining
      // payload cannot hold is malformed, never allocated.
      if (n > r.remaining() / 33) {
        return Status::InvalidArgument(
            "wire HealthReply: shard count exceeds payload");
      }
      reply->shard_health.resize(n);
      for (auto& h : reply->shard_health) {
        if (!r.U8(&h.state) || !r.U64(&h.queue_depth) ||
            !r.U64(&h.overload_shed) || !r.U64(&h.deadline_shed) ||
            !r.U64(&h.restarts)) {
          return Status::InvalidArgument(
              "wire HealthReply: truncated shard block");
        }
      }
      break;
    }
    case MsgType::kStatsReply:
      if (!r.U64(&reply->homes) || !r.U64(&reply->rules) ||
          !r.U64(&reply->events) || !r.U64(&reply->inspects) ||
          !r.U64(&reply->bus_rejected) || !r.U64(&reply->bus_apply_errors) ||
          !ReadServerCounters(&r, reply)) {
        return Status::InvalidArgument("wire StatsReply: truncated body");
      }
      break;
    case MsgType::kStatsJsonReply: {
      uint32_t nshards = 0;
      if (!r.Str(&reply->stats_json) || !r.Str(&reply->series_json) ||
          !r.U32(&nshards)) {
        return Status::InvalidArgument("wire StatsJsonReply: truncated body");
      }
      // Each ShardStat is 7 u64 + 7 f64 + u8 + 3 u64 = 137 bytes; a count
      // the remaining payload cannot hold is malformed, never allocated.
      if (nshards > r.remaining() / 137) {
        return Status::InvalidArgument(
            "wire StatsJsonReply: shard count exceeds payload");
      }
      reply->shard_stats.resize(nshards);
      for (auto& s : reply->shard_stats) {
        if (!r.U64(&s.homes) || !r.U64(&s.rules) || !r.U64(&s.events) ||
            !r.U64(&s.inspects) || !r.U64(&s.queue_depth) ||
            !r.U64(&s.queue_high_water) || !r.U64(&s.applied) ||
            !r.F64(&s.events_per_sec) || !r.F64(&s.queue_wait_p50_ms) ||
            !r.F64(&s.queue_wait_p99_ms) || !r.F64(&s.apply_p50_ms) ||
            !r.F64(&s.apply_p99_ms) || !r.F64(&s.inspect_p50_ms) ||
            !r.F64(&s.inspect_p99_ms) || !r.U8(&s.health) ||
            !r.U64(&s.overload_shed) || !r.U64(&s.deadline_shed) ||
            !r.U64(&s.restarts)) {
          return Status::InvalidArgument(
              "wire StatsJsonReply: truncated shard block");
        }
      }
      uint32_t ntraces = 0;
      if (!r.U64(&reply->bus_rejected) || !r.U64(&reply->bus_apply_errors) ||
          !ReadServerCounters(&r, reply) || !r.U32(&ntraces)) {
        return Status::InvalidArgument("wire StatsJsonReply: truncated body");
      }
      // Each SlowTrace is 8+4+1+4+8 + 8*stages bytes = 89.
      if (ntraces > r.remaining() / (25 + 8 * obs::kNumTraceStages)) {
        return Status::InvalidArgument(
            "wire StatsJsonReply: trace count exceeds payload");
      }
      reply->slow_traces.resize(ntraces);
      for (auto& t : reply->slow_traces) {
        if (!r.U64(&t.id) || !r.I32(&t.shard) || !r.U8(&t.msg_type) ||
            !r.U32(&t.events) || !r.U64(&t.total_us)) {
          return Status::InvalidArgument(
              "wire StatsJsonReply: truncated trace");
        }
        for (int i = 0; i < obs::kNumTraceStages; ++i) {
          if (!r.U64(&t.stage_us[i])) {
            return Status::InvalidArgument(
                "wire StatsJsonReply: truncated trace");
          }
        }
      }
      break;
    }
    default:
      return Status::InvalidArgument("wire reply: unknown type " +
                                     std::to_string(type));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("wire reply: trailing bytes");
  }
  return Status::OK();
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
  char header[8];
  bool timed_out = false;
  const size_t got = ReadAll(fd, header, sizeof header, &timed_out);
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
  if (got < sizeof header) {
    if (timed_out && frame_timed_out != nullptr) *frame_timed_out = true;
    return Status::IOError(timed_out ? "wire recv: timed out inside header"
                                     : "wire: EOF inside frame header");
  }
  uint32_t len = 0, crc = 0;
  std::memcpy(&len, header, sizeof len);
  std::memcpy(&crc, header + 4, sizeof crc);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("wire: oversized frame (" +
                                   std::to_string(len) + " bytes)");
  }
  payload->resize(len);
  timed_out = false;
  if (len > 0 && ReadAll(fd, payload->data(), len, &timed_out) < len) {
    if (timed_out && frame_timed_out != nullptr) *frame_timed_out = true;
    return Status::IOError(timed_out ? "wire recv: timed out inside payload"
                                     : "wire: EOF inside frame payload");
  }
  if (util::Crc32c(payload->data(), payload->size()) != crc) {
    return Status::InvalidArgument("wire: frame checksum mismatch");
  }
  return Status::OK();
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
  const std::vector<char> payload = EncodeRequest(req);
  Status st;
  for (int attempt = 0;; ++attempt) {
    st = fd_ >= 0 ? Status::OK() : RawConnect();
    if (st.ok()) st = SendFrame(fd_, payload);
    bool timed_out = false;
    std::vector<char> in;
    if (st.ok()) st = RecvFrame(fd_, &in, nullptr, &timed_out);
    if (st.ok()) {
      st = DecodeReply(in, reply);
      if (!st.ok()) {
        // Undecodable bytes mean the stream position is unknowable.
        Poison("reply decode failed: " + st.message());
        return st;
      }
      if (!ReplyMatchesRequest(req.type, reply->type)) {
        st = Status::IOError(std::string("wire: reply ") +
                             MsgTypeName(reply->type) + " does not answer " +
                             MsgTypeName(req.type));
        Poison(st.message());
        return st;
      }
      return Status::OK();
    }
    if (timed_out) {
      // The request may still be served late; a reconnect-and-resend here
      // could double-apply and a later reply would mis-pair. Poison.
      Poison("recv timed out after " +
             std::to_string(options_.recv_timeout_ms) + "ms");
      return st;
    }
    // Transport failure (reset/EOF/send error): reconnect and retry the
    // whole exchange, bounded.
    if (!options_.auto_reconnect || attempt >= options_.max_retries) {
      return st;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs(attempt)));
  }
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
