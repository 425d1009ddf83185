#pragma once

// Binary wire protocol for fleet event ingestion — the network-facing
// system boundary. Length-prefixed, CRC32C-framed (the WAL's framing
// discipline applied to a socket stream). Integers are little-endian —
// by construction, not conversion: the codec writes host memory order and
// util/binio.h static_asserts a little-endian host, so a big-endian port
// fails at compile time rather than emitting frames peers cannot parse:
//
//   frame:   u32 payload_len | u32 crc32c(payload) | payload
//   payload: u8 MsgType | message body (rules/events reuse the rule_io /
//            event_log layouts — one serialization per type, everywhere)
//
// Each message body below is written once, as one field list in wire.cc
// that EncodeX and DecodeX both run (util/binio.h), so the two directions
// agree by construction and a valid decode re-encodes to the same bytes.
// Every element count goes through one list helper: on decode it is
// bounded by the element's smallest encoding (76 bytes a rule, 48 a
// condition, 16 an action, 28 an event, 33 a health block, 137 a shard
// stat, 25 + 8 × stages a slow trace), so a frame cannot make the decoder
// allocate much more than the frame itself; on encode it enforces the
// per-list maximums (kEventBatch: 1..kMaxBatchEvents).
//
// Requests (client → server). Every home-addressed request leads with a
// u32 deadline_ms (0 = none): the client's patience budget. Only kInspect
// honours it — an inspect still queued when it expires is shed at dequeue
// with kOverloaded (DESIGN.md §16). Mutations are acked on enqueue and
// never shed by deadline; their deadline field is carried but unused.
//   kPing                          liveness probe
//   kHealth                        lightweight health probe (no shard hop)
//   kAddHome    u32 deadline | Str id | u32 n | n rules
//   kAddRule    u32 deadline | Str id | rule
//   kRemoveRule u32 deadline | Str id | i32 rule_id
//   kEventBatch u32 deadline | u64 first_seq | Str id | u32 n | n events
//               (one home, 1 ≤ n ≤ kMaxBatchEvents, in per-home FIFO
//               order — a single event is a batch of one; events carry
//               seqs first_seq..first_seq+n-1, a range that must not wrap
//               u64; first_seq 0 = unsequenced. Seqs are monotonic per
//               home and let the server dedup at-least-once retransmits —
//               exactly-once apply over an at-least-once transport. The
//               server enqueues the whole batch as ONE bus message, so
//               framing, CRC, queue-lock, and trace cost amortize over n)
//   kInspect    u32 deadline | Str id | f64 now_hours
//   kStats                         fleet aggregate counters
//   kStatsJson                     full observability export (see below)
//
// Replies (server → client). Acks and warnings carry a u32 retry_after_ms
// hint, nonzero only with code kOverloaded: back off that long, then retry.
//   kPong
//   kAck        i32 status_code | Str message | u32 retry_after_ms
//               (mutations: accepted = enqueued on the shard bus, not yet
//               applied — see server.h)
//   kBatchAck   i32 status_code | Str message | u32 events |
//               u32 retry_after_ms
//               (kEventBatch: all-or-nothing acceptance of the batch)
//   kWarning    i32 status_code | Str message | u32 retry_after_ms |
//               u8 threat | u8 drifting | u8 degraded | f64 confidence |
//               Str rendered                      (fields valid when code==0;
//               degraded = served from an overloaded shard: verdict-cache
//               or explainer-free, so no culprit attribution)
//   kHealthReply
//               u8 fleet_health | u32 retry_after_ms | u32 num_shards |
//               num_shards × (u8 state | u64 queue_depth |
//               u64 overload_shed | u64 deadline_shed | u64 restarts)
//               — fleet_health is the worst shard state (ShardHealth)
//   kStatsReply u64 homes | u64 rules | u64 events | u64 inspects |
//               u64 bus_rejected | u64 bus_apply_errors |
//               u64 server_connections | u64 server_requests |
//               u64 server_bad_frames | u64 server_bad_requests |
//               u64 server_accept_backoffs | u64 server_overloaded
//               (per-server, not global)
//   kStatsJsonReply
//               Str stats_json | Str series_json | u32 num_shards |
//               num_shards ShardStat blocks | u64 bus_rejected |
//               u64 bus_apply_errors | 6 per-server u64 counters |
//               u32 num_traces | num_traces SlowTrace blocks
//               — the fleet-top payload: full STATS_JSON + time-series
//               JSON, per-shard counters and stage quantiles in binary
//               (so the dashboard needs no JSON parser), and the most
//               recent slow traces (DESIGN.md §14)
//
// Robustness contract (tests/wire_test.cc): no byte sequence a peer can
// send — truncated header, truncated payload, flipped CRC bits, an
// oversized length prefix, garbage message bodies — ever aborts the
// process. Decoders return Status; the server answers with an error kAck
// where it still can and drops the connection (a corrupt stream cannot be
// resynchronized).

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/serving.h"
#include "core/warning.h"
#include "fleet/health.h"
#include "graph/event_log.h"
#include "obs/trace.h"
#include "rules/rule.h"
#include "util/binio.h"
#include "util/status.h"

namespace glint::fleet::wire {

/// Upper bound on a frame payload; a length prefix beyond this is
/// malformed (never allocated), bounding what a bad peer can make the
/// server buffer.
constexpr uint32_t kMaxFramePayload = 1u << 20;

/// Upper bound on events per kEventBatch frame. Caps what one frame can
/// pin in a shard queue slot (per-home FIFO means a batch occupies one
/// message) and keeps worst-case batch decode allocation small.
constexpr uint32_t kMaxBatchEvents = 512;

enum class MsgType : uint8_t {
  kPing = 1,
  kAddHome = 2,
  kAddRule = 3,
  kRemoveRule = 4,
  // 5 is retired (the former single-event request); never reuse it.
  kInspect = 6,
  kStats = 7,
  kStatsJson = 8,
  kEventBatch = 9,
  kHealth = 10,
  // Replies.
  kPong = 64,
  kAck = 65,
  kWarning = 66,
  kStatsReply = 67,
  kStatsJsonReply = 68,
  kBatchAck = 69,
  kHealthReply = 70,
};

/// Human-readable request/reply type name ("kEventBatch", ...) for dashboards
/// and logs; "?" for bytes that are not a MsgType.
const char* MsgTypeName(MsgType t);

/// Per-shard stats block of a kStatsJsonReply: serving counters read on
/// the shard's consumer thread, bus queue state, and stage-latency
/// quantiles from the shard's trace histograms (milliseconds).
struct ShardStat {
  uint64_t homes = 0;
  uint64_t rules = 0;
  uint64_t events = 0;
  uint64_t inspects = 0;
  uint64_t queue_depth = 0;
  uint64_t queue_high_water = 0;
  uint64_t applied = 0;  ///< bus messages applied by this shard, ever
  double events_per_sec = 0;  ///< from the server sampler; 0 if sampler off
  double queue_wait_p50_ms = 0;
  double queue_wait_p99_ms = 0;
  double apply_p50_ms = 0;
  double apply_p99_ms = 0;
  double inspect_p50_ms = 0;
  double inspect_p99_ms = 0;
  // Survivability (DESIGN.md §16):
  uint8_t health = 0;           ///< ShardHealth
  uint64_t overload_shed = 0;   ///< requests shed: degraded/down shard
  uint64_t deadline_shed = 0;   ///< requests shed: deadline expired queued
  uint64_t restarts = 0;        ///< consumer restarts (supervision)
};

/// One shard's block in a kHealthReply — the cheap probe subset of
/// ShardStat (no shard hop; read from atomics on the dispatch thread).
struct ShardHealthStat {
  uint8_t state = 0;  ///< ShardHealth
  uint64_t queue_depth = 0;
  uint64_t overload_shed = 0;
  uint64_t deadline_shed = 0;
  uint64_t restarts = 0;
};

/// One slow-request capture of a kStatsJsonReply (microseconds; stage
/// order is obs::TraceStage).
struct SlowTrace {
  uint64_t id = 0;
  int32_t shard = -1;
  uint8_t msg_type = 0;
  /// Events the trace spans (a kEventBatch's size, 1 for any other
  /// request). Per-event stage cost is stage_us[s] / events — the batch
  /// amortization made measurable.
  uint32_t events = 1;
  uint64_t total_us = 0;
  uint64_t stage_us[obs::kNumTraceStages] = {};
};

struct Request {
  MsgType type = MsgType::kPing;
  core::HomeId home;
  /// Patience budget in ms; 0 = none. Only kInspect honours it: an
  /// inspect still queued past this is shed with kOverloaded at dequeue.
  uint32_t deadline_ms = 0;
  /// kEventBatch: the FIRST event's monotonic per-home sequence number,
  /// the rest are consecutive. 0 = unsequenced. The server skips
  /// already-applied seqs, making reconnect replays safe.
  uint64_t seq = 0;
  std::vector<rules::Rule> rules;     ///< kAddHome
  rules::Rule rule;                   ///< kAddRule
  int32_t rule_id = 0;                ///< kRemoveRule
  std::vector<graph::Event> events;   ///< kEventBatch (per-home FIFO order)
  double now_hours = 0;               ///< kInspect
};

struct Reply {
  MsgType type = MsgType::kAck;
  int32_t code = 0;     ///< StatusCode as i32; 0 = OK
  std::string message;  ///< error detail when code != 0
  /// Backoff hint in ms; nonzero only with code kOverloaded (kAck /
  /// kBatchAck / kWarning / kHealthReply).
  uint32_t retry_after_ms = 0;
  /// kBatchAck payload: events covered by the acknowledgement.
  uint32_t batch_events = 0;
  // kWarning payload (valid when code == 0):
  bool threat = false;
  bool drifting = false;
  /// Served from a degraded shard: verdict-cache or explainer-free, no
  /// culprit attribution in `rendered`.
  bool degraded = false;
  double confidence = 0;
  std::string rendered;
  // kHealthReply payload:
  uint8_t fleet_health = 0;  ///< worst shard's ShardHealth
  std::vector<ShardHealthStat> shard_health;
  // kStatsReply payload:
  uint64_t homes = 0;
  uint64_t rules = 0;
  uint64_t events = 0;
  uint64_t inspects = 0;
  // kStatsReply + kStatsJsonReply payload:
  uint64_t bus_rejected = 0;
  uint64_t bus_apply_errors = 0;
  /// Per-server counters (this server instance, not the process-global
  /// obs counters — two servers in one process do not alias these).
  uint64_t server_connections = 0;
  uint64_t server_requests = 0;
  uint64_t server_bad_frames = 0;
  uint64_t server_bad_requests = 0;
  uint64_t server_accept_backoffs = 0;
  uint64_t server_overloaded = 0;  ///< kOverloaded replies sent (sheds)
  // kStatsJsonReply payload:
  std::string stats_json;   ///< Registry::Snapshot::RenderJson()
  std::string series_json;  ///< TimeSeriesSet::RenderJson()
  std::vector<ShardStat> shard_stats;
  std::vector<SlowTrace> slow_traces;  ///< newest first
};

// ---- Framing ------------------------------------------------------------

constexpr size_t kFrameHeaderBytes = 8;

/// A frame header and the one place its checks live: the length bound
/// before any payload is buffered, then the CRC32C of the payload.
/// DecodeFrame, RecvFrame and the server's frame parser all run both.
struct FrameHeader {
  uint32_t len = 0;
  uint32_t crc = 0;

  /// Reads the header from its kFrameHeaderBytes bytes.
  static FrameHeader Parse(const char* bytes);
  /// InvalidArgument ("wire: oversized frame ...") past kMaxFramePayload.
  Status CheckLength() const;
  /// InvalidArgument ("wire: frame checksum mismatch") unless the `len`
  /// bytes at `payload` match `crc`.
  Status CheckPayload(const char* payload) const;
};

/// Appends one frame (header + payload) to `out`.
void AppendFrame(std::vector<char>* out, const std::vector<char>& payload);

/// Decodes one frame from the front of `r`. InvalidArgument on a
/// truncated header/payload, an oversized length prefix, or a checksum
/// mismatch; on OK, `*payload` holds the verified payload bytes and `r`
/// is advanced past the frame.
Status DecodeFrame(util::ByteReader* r, std::vector<char>* payload);

// ---- Message codecs -----------------------------------------------------

std::vector<char> EncodeRequest(const Request& req);
/// Strict decode: unknown type, truncated body, or trailing bytes are
/// InvalidArgument.
Status DecodeRequest(const std::vector<char>& payload, Request* req);

std::vector<char> EncodeReply(const Reply& reply);
Status DecodeReply(const std::vector<char>& payload, Reply* reply);

/// Builds the standard error/ok acknowledgement for `st`.
Reply AckFor(const Status& st);

// ---- Blocking socket I/O (used by client, server, and bench driver) -----

/// Writes one frame to `fd` (full write; EINTR-safe). IOError on failure.
Status SendFrame(int fd, const std::vector<char>& payload);

/// Reads one frame from `fd`. NotFound on a clean EOF at a frame
/// boundary, IOError on a mid-frame EOF or read failure, InvalidArgument
/// on an oversized length prefix or checksum mismatch. When `arrival_ns`
/// is non-null it receives an obs::NowNs() stamp taken right after the
/// frame header arrived — the request's birth for tracing, excluding
/// however long the connection sat idle waiting for a frame to start.
/// `timed_out`, when non-null, is set when the failure was a receive
/// timeout (SO_RCVTIMEO) rather than a dead peer — the distinction that
/// decides reconnect-and-replay vs. poisoning the pipeline.
Status RecvFrame(int fd, std::vector<char>* payload,
                 uint64_t* arrival_ns = nullptr, bool* timed_out = nullptr);

/// Blocking client with an optional pipelined send window.
///
/// Two usage modes over one connection:
///   lockstep   Call(req, &reply) — one exchange, like a function call.
///   pipelined  Send(req) up to `max_window` times, then Recv(&reply) —
///              N requests ride the socket before the first reply is
///              read, hiding per-frame RTT. The server processes each
///              connection's frames strictly in order, so replies come
///              back FIFO: Recv matches the oldest in-flight request
///              (and validates the reply type against it — a kWarning
///              for a kEventBatch is a protocol error, not a crash).
///
/// Robustness: connects time out (non-blocking connect + poll), receives
/// time out (SO_RCVTIMEO, never an infinite hang on a dead server), and
/// sends use MSG_NOSIGNAL (a closed peer yields an IOError, never
/// SIGPIPE).
///
/// Resilience (DESIGN.md §16): transport failures — a peer reset, EOF
/// mid-pipeline, a failed send — trigger automatic reconnection with
/// bounded retries (exponential backoff + full jitter) that re-establishes
/// the pipeline window by retransmitting every in-flight request frame
/// (they are retained until their reply arrives). Retransmits make the
/// transport at-least-once; per-home event sequence numbers (Request::seq)
/// make the apply exactly-once. Receive TIMEOUTS and reply-type/decode
/// mismatches do NOT reconnect: the FIFO request↔reply pairing is lost
/// (a late reply may still be in flight), so the pipeline is POISONED —
/// every further Call/Send/Recv returns FailedPrecondition until a fresh
/// Connect() resets the stream.
class Client {
 public:
  struct Options {
    /// 0 = block forever (not recommended outside tests).
    int connect_timeout_ms = 5000;
    int recv_timeout_ms = 30000;
    /// Max in-flight pipelined requests; Send past this is
    /// FailedPrecondition (drain with Recv first).
    size_t max_window = 64;
    /// Reconnect/retry attempts beyond the first try (0 disables).
    int max_retries = 3;
    /// Backoff before retry k is uniform in [0, min(base << k, max)] —
    /// "full jitter", so a thundering herd of retrying clients spreads
    /// out instead of re-stampeding in sync.
    int backoff_base_ms = 10;
    int backoff_max_ms = 500;
    /// Jitter RNG seed (deterministic per client; pick distinct seeds for
    /// distinct clients in tests).
    uint64_t backoff_seed = 0x9e3779b97f4a7c15ull;
    /// Reconnect + replay in-flight frames after a transport failure.
    bool auto_reconnect = true;
  };

  Client() = default;
  explicit Client(Options options) : options_(options) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One connection attempt (no retries); remembers host:port for later
  /// auto-reconnects and clears any poisoned state.
  Status Connect(const std::string& host, int port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Send then Recv: one exchange, with their reconnect, retry and
  /// poisoning rules. Requires an empty pipeline (pending() == 0) —
  /// mixing Call into a pipelined stream would mis-attribute the replies.
  /// A failed Call leaves nothing in flight.
  Status Call(const Request& req, Reply* reply);

  /// Call, additionally retrying (after the server's retry_after_ms hint,
  /// floored by the jittered backoff) while the server answers
  /// kOverloaded. The polite client loop for shed load. Kept for the
  /// tests, which drive shedding servers with it; no product client
  /// retries yet.
  Status CallRetrying(const Request& req, Reply* reply);

  /// Pipelined send: writes the request frame and returns without
  /// reading a reply. FailedPrecondition when the window is full.
  Status Send(const Request& req);
  /// Receives the reply to the OLDEST in-flight request (FIFO order).
  /// FailedPrecondition when nothing is in flight. `for_request`, when
  /// non-null, receives the request type the reply answers.
  Status Recv(Reply* reply, MsgType* for_request = nullptr);
  /// In-flight pipelined requests (sent, reply not yet received).
  size_t pending() const { return pending_.size(); }

  /// Non-OK once the pipeline is poisoned (recv timeout / reply
  /// mismatch); reset by Connect().
  const Status& poisoned() const { return poison_; }
  /// Successful automatic reconnections, ever. Kept for the tests: it shows
  /// a reconnect happened.
  uint64_t reconnects() const { return reconnects_; }

  const Options& options() const { return options_; }

 private:
  struct InFlight {
    MsgType type;              ///< request type, for FIFO reply matching
    std::vector<char> frame;   ///< encoded payload, retained for replay
  };

  /// OK / not-connected / poisoned gate shared by Call/Send/Recv.
  Status CheckUsable() const;
  /// Marks the pipeline unusable until the next Connect().
  void Poison(const std::string& why);
  /// One raw connect to the remembered host:port (no retry, no state
  /// reset beyond fd_).
  Status RawConnect();
  /// Closes the socket, reconnects (bounded attempts with backoff), and
  /// retransmits every in-flight frame in order.
  Status ReconnectAndReplay();
  /// Uniform [0, min(base << attempt, max)] milliseconds (full jitter).
  int BackoffMs(int attempt);
  uint64_t NextRand();

  int fd_ = -1;
  Options options_;
  std::string host_;  ///< remembered by Connect for auto-reconnect
  int port_ = 0;
  std::deque<InFlight> pending_;  ///< FIFO of in-flight requests
  Status poison_;                 ///< non-OK once poisoned
  uint64_t rng_ = 0;              ///< jitter state, seeded on Connect
  uint64_t reconnects_ = 0;
};

}  // namespace glint::fleet::wire
