// Wire-protocol robustness: every request/reply round-trips bit-exactly,
// and no byte sequence a peer can produce — truncated length prefix,
// flipped CRC byte, oversized frame, garbage bodies, mid-frame EOF — ever
// aborts the process. Decoders return Status; the framing layer is
// exercised both on in-memory buffers (DecodeFrame) and on real sockets
// (SendFrame/RecvFrame over a socketpair).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "codec_fixtures.h"
#include "fleet/wire.h"
#include "util/binio.h"

// Global heap-byte counter: every operator new in this binary adds its
// size, so a measured region's delta is the bytes it asked the heap for
// (the count-amplification cases bound a decode by it).
namespace {
std::atomic<size_t> g_alloc_bytes{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t n) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  return ::operator new(n);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
// Nothrow forms too (libstdc++ temporary buffers use them): with every
// variant funneled through malloc/free, ASan sees matched pairs.
__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
__attribute__((noinline)) void* operator new[](
    std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
__attribute__((noinline)) void operator delete(
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace glint::fleet::wire {
namespace {

rules::Rule TestRule(int id) {
  rules::Rule r;
  r.id = id;
  r.platform = rules::Platform::kIFTTT;
  r.location = rules::Location::kHallway;
  r.text = "If motion is detected, turn on the hallway light.";
  r.trigger.device = rules::DeviceType::kMotionSensor;
  r.trigger.state = "active";
  r.actions.push_back({rules::DeviceType::kLight, rules::Command::kOn, 0});
  return r;
}

graph::Event TestEvent(double t) {
  graph::Event e;
  e.time_hours = t;
  e.device = rules::DeviceType::kMotionSensor;
  e.state = "active";
  return e;
}

// ---- Codec round-trips --------------------------------------------------

TEST(WireCodec, RequestRoundTripsEveryType) {
  std::vector<Request> reqs;
  {
    Request r;
    r.type = MsgType::kPing;
    reqs.push_back(r);
    r = Request();
    r.type = MsgType::kStats;
    reqs.push_back(r);
    r = Request();
    r.type = MsgType::kHealth;
    reqs.push_back(r);
    r = Request();
    r.type = MsgType::kAddHome;
    r.home = "home-a";
    r.deadline_ms = 250;
    r.rules = {TestRule(1), TestRule(2)};
    reqs.push_back(r);
    r = Request();
    r.type = MsgType::kAddRule;
    r.home = "home-b";
    r.rule = TestRule(7);
    reqs.push_back(r);
    r = Request();
    r.type = MsgType::kRemoveRule;
    r.home = "home-c";
    r.rule_id = -3;
    reqs.push_back(r);
    r = Request();
    r.type = MsgType::kEventBatch;  // a single event is a batch of one
    r.home = "home-d";
    r.deadline_ms = 100;
    r.seq = 0xdeadbeefcafeull;
    r.events = {TestEvent(12.25)};
    reqs.push_back(r);
    r = Request();
    r.type = MsgType::kInspect;
    r.home = "home-e";
    r.deadline_ms = 50;
    r.now_hours = 3.875;
    reqs.push_back(r);
  }
  for (const auto& req : reqs) {
    const auto payload = EncodeRequest(req);
    Request back;
    ASSERT_TRUE(DecodeRequest(payload, &back).ok())
        << static_cast<int>(req.type);
    EXPECT_EQ(back.type, req.type);
    EXPECT_EQ(back.home, req.home);
    EXPECT_EQ(back.deadline_ms, req.deadline_ms);
    EXPECT_EQ(back.seq, req.seq);
    EXPECT_EQ(back.rules.size(), req.rules.size());
    EXPECT_EQ(back.rule.id, req.rule.id);
    EXPECT_EQ(back.rule_id, req.rule_id);
    ASSERT_EQ(back.events.size(), req.events.size());
    for (size_t i = 0; i < req.events.size(); ++i) {
      EXPECT_EQ(back.events[i].time_hours, req.events[i].time_hours);
    }
    EXPECT_EQ(back.now_hours, req.now_hours);
  }
}

TEST(WireCodec, ReplyRoundTripsEveryType) {
  {
    Reply r;
    r.type = MsgType::kPong;
    Reply back;
    ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
    EXPECT_EQ(back.type, MsgType::kPong);
  }
  {
    Reply r;
    r.type = MsgType::kAck;
    r.code = 3;
    r.message = "no home with id 'x'";
    Reply back;
    ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
    EXPECT_EQ(back.code, 3);
    EXPECT_EQ(back.message, r.message);
    EXPECT_EQ(back.retry_after_ms, 0u);
  }
  {
    // An overload shed ack: the retry-after hint must survive the wire.
    Reply r;
    r.type = MsgType::kAck;
    r.code = static_cast<int32_t>(StatusCode::kOverloaded);
    r.message = "shard 2 is degraded";
    r.retry_after_ms = 75;
    Reply back;
    ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
    EXPECT_EQ(back.code, r.code);
    EXPECT_EQ(back.retry_after_ms, 75u);
  }
  {
    Reply r;
    r.type = MsgType::kWarning;
    r.threat = true;
    r.drifting = false;
    r.degraded = true;
    r.retry_after_ms = 40;
    r.confidence = 0.8125;
    r.rendered = "THREAT WARNING\nchain: #1 -> #2";
    Reply back;
    ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
    EXPECT_TRUE(back.threat);
    EXPECT_FALSE(back.drifting);
    EXPECT_TRUE(back.degraded);
    EXPECT_EQ(back.retry_after_ms, 40u);
    EXPECT_EQ(back.confidence, r.confidence);
    EXPECT_EQ(back.rendered, r.rendered);
  }
  {
    Reply r;
    r.type = MsgType::kStatsReply;
    r.homes = 10000;
    r.rules = 30000;
    r.events = 1u << 20;
    r.inspects = 77;
    r.bus_rejected = 5;
    r.bus_apply_errors = 1;
    r.server_connections = 12;
    r.server_requests = 999;
    r.server_bad_frames = 2;
    r.server_bad_requests = 3;
    r.server_accept_backoffs = 4;
    r.server_overloaded = 11;
    Reply back;
    ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
    EXPECT_EQ(back.homes, r.homes);
    EXPECT_EQ(back.rules, r.rules);
    EXPECT_EQ(back.events, r.events);
    EXPECT_EQ(back.bus_rejected, r.bus_rejected);
    EXPECT_EQ(back.bus_apply_errors, r.bus_apply_errors);
    EXPECT_EQ(back.server_connections, r.server_connections);
    EXPECT_EQ(back.server_requests, r.server_requests);
    EXPECT_EQ(back.server_bad_frames, r.server_bad_frames);
    EXPECT_EQ(back.server_bad_requests, r.server_bad_requests);
    EXPECT_EQ(back.server_accept_backoffs, r.server_accept_backoffs);
    EXPECT_EQ(back.server_overloaded, r.server_overloaded);
  }
}

TEST(WireCodec, HealthProbeRoundTrips) {
  {
    Request r;
    r.type = MsgType::kHealth;
    Request back;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(r), &back).ok());
    EXPECT_EQ(back.type, MsgType::kHealth);
  }
  Reply r;
  r.type = MsgType::kHealthReply;
  r.fleet_health = static_cast<uint8_t>(ShardHealth::kDegraded);
  r.retry_after_ms = 125;
  for (int k = 0; k < 3; ++k) {
    ShardHealthStat h;
    h.state = static_cast<uint8_t>(k == 1 ? ShardHealth::kDegraded
                                          : ShardHealth::kHealthy);
    h.queue_depth = 10u + static_cast<uint64_t>(k);
    h.overload_shed = 20u + static_cast<uint64_t>(k);
    h.deadline_shed = 30u + static_cast<uint64_t>(k);
    h.restarts = static_cast<uint64_t>(k);
    r.shard_health.push_back(h);
  }
  Reply back;
  ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
  EXPECT_EQ(back.type, MsgType::kHealthReply);
  EXPECT_EQ(back.fleet_health, r.fleet_health);
  EXPECT_EQ(back.retry_after_ms, 125u);
  ASSERT_EQ(back.shard_health.size(), r.shard_health.size());
  for (size_t k = 0; k < r.shard_health.size(); ++k) {
    EXPECT_EQ(back.shard_health[k].state, r.shard_health[k].state);
    EXPECT_EQ(back.shard_health[k].queue_depth,
              r.shard_health[k].queue_depth);
    EXPECT_EQ(back.shard_health[k].overload_shed,
              r.shard_health[k].overload_shed);
    EXPECT_EQ(back.shard_health[k].deadline_shed,
              r.shard_health[k].deadline_shed);
    EXPECT_EQ(back.shard_health[k].restarts, r.shard_health[k].restarts);
  }
}

TEST(WireCodec, HealthReplyMalformedCountIsInvalidArgument) {
  Reply reply;
  util::ByteWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kHealthReply));
  w.U8(0);         // fleet_health
  w.U32(0);        // retry_after_ms
  w.U32(1000000);  // nshards, but no blocks follow
  EXPECT_EQ(DecodeReply(w.TakeBuffer(), &reply).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodec, StatsJsonRequestRoundTrips) {
  Request r;
  r.type = MsgType::kStatsJson;
  Request back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(r), &back).ok());
  EXPECT_EQ(back.type, MsgType::kStatsJson);
}

TEST(WireCodec, StatsJsonReplyRoundTripsEveryField) {
  Reply r;
  r.type = MsgType::kStatsJsonReply;
  r.stats_json = R"({"counters":{"a":1}})";
  r.series_json = R"({"s":[[1.0,2.0]]})";
  r.bus_rejected = 9;
  r.bus_apply_errors = 8;
  r.server_connections = 7;
  r.server_requests = 6;
  r.server_bad_frames = 5;
  r.server_bad_requests = 4;
  r.server_accept_backoffs = 3;
  r.server_overloaded = 2;
  for (int k = 0; k < 3; ++k) {
    ShardStat s;
    s.homes = 100u + static_cast<uint64_t>(k);
    s.rules = 200u + static_cast<uint64_t>(k);
    s.events = 300u + static_cast<uint64_t>(k);
    s.inspects = 400u + static_cast<uint64_t>(k);
    s.queue_depth = 5u + static_cast<uint64_t>(k);
    s.queue_high_water = 60u + static_cast<uint64_t>(k);
    s.applied = 700u + static_cast<uint64_t>(k);
    s.events_per_sec = 1000.25 + k;
    s.queue_wait_p50_ms = 0.125 + k;
    s.queue_wait_p99_ms = 1.5 + k;
    s.apply_p50_ms = 0.25 + k;
    s.apply_p99_ms = 2.75 + k;
    s.inspect_p50_ms = 3.5 + k;
    s.inspect_p99_ms = 9.0 + k;
    s.health = static_cast<uint8_t>(k % 4);
    s.overload_shed = 40u + static_cast<uint64_t>(k);
    s.deadline_shed = 50u + static_cast<uint64_t>(k);
    s.restarts = static_cast<uint64_t>(k);
    r.shard_stats.push_back(s);
  }
  for (uint64_t i = 0; i < 2; ++i) {
    SlowTrace t;
    t.id = 1000 + i;
    t.shard = static_cast<int32_t>(i);
    t.msg_type = static_cast<uint8_t>(MsgType::kInspect);
    t.total_us = 5000 + i;
    for (int s = 0; s < obs::kNumTraceStages; ++s) {
      t.stage_us[s] = i * 100 + static_cast<uint64_t>(s);
    }
    r.slow_traces.push_back(t);
  }
  Reply back;
  ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
  EXPECT_EQ(back.type, MsgType::kStatsJsonReply);
  EXPECT_EQ(back.stats_json, r.stats_json);
  EXPECT_EQ(back.series_json, r.series_json);
  EXPECT_EQ(back.bus_rejected, r.bus_rejected);
  EXPECT_EQ(back.bus_apply_errors, r.bus_apply_errors);
  EXPECT_EQ(back.server_connections, r.server_connections);
  EXPECT_EQ(back.server_accept_backoffs, r.server_accept_backoffs);
  EXPECT_EQ(back.server_overloaded, r.server_overloaded);
  ASSERT_EQ(back.shard_stats.size(), r.shard_stats.size());
  for (size_t k = 0; k < r.shard_stats.size(); ++k) {
    const ShardStat& a = r.shard_stats[k];
    const ShardStat& b = back.shard_stats[k];
    EXPECT_EQ(b.homes, a.homes);
    EXPECT_EQ(b.rules, a.rules);
    EXPECT_EQ(b.events, a.events);
    EXPECT_EQ(b.inspects, a.inspects);
    EXPECT_EQ(b.queue_depth, a.queue_depth);
    EXPECT_EQ(b.queue_high_water, a.queue_high_water);
    EXPECT_EQ(b.applied, a.applied);
    EXPECT_EQ(b.events_per_sec, a.events_per_sec);
    EXPECT_EQ(b.queue_wait_p50_ms, a.queue_wait_p50_ms);
    EXPECT_EQ(b.queue_wait_p99_ms, a.queue_wait_p99_ms);
    EXPECT_EQ(b.apply_p50_ms, a.apply_p50_ms);
    EXPECT_EQ(b.apply_p99_ms, a.apply_p99_ms);
    EXPECT_EQ(b.inspect_p50_ms, a.inspect_p50_ms);
    EXPECT_EQ(b.inspect_p99_ms, a.inspect_p99_ms);
    EXPECT_EQ(b.health, a.health);
    EXPECT_EQ(b.overload_shed, a.overload_shed);
    EXPECT_EQ(b.deadline_shed, a.deadline_shed);
    EXPECT_EQ(b.restarts, a.restarts);
  }
  ASSERT_EQ(back.slow_traces.size(), r.slow_traces.size());
  for (size_t i = 0; i < r.slow_traces.size(); ++i) {
    EXPECT_EQ(back.slow_traces[i].id, r.slow_traces[i].id);
    EXPECT_EQ(back.slow_traces[i].shard, r.slow_traces[i].shard);
    EXPECT_EQ(back.slow_traces[i].msg_type, r.slow_traces[i].msg_type);
    EXPECT_EQ(back.slow_traces[i].total_us, r.slow_traces[i].total_us);
    for (int s = 0; s < obs::kNumTraceStages; ++s) {
      EXPECT_EQ(back.slow_traces[i].stage_us[s],
                r.slow_traces[i].stage_us[s]);
    }
  }
}

TEST(WireCodec, StatsJsonReplyMalformedCountsAreInvalidArgument) {
  Reply reply;
  // A shard count the remaining payload cannot possibly hold.
  {
    util::ByteWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kStatsJsonReply));
    w.Str("{}");
    w.Str("{}");
    w.U32(1000000);  // nshards, but no blocks follow
    EXPECT_EQ(DecodeReply(w.TakeBuffer(), &reply).code(),
              StatusCode::kInvalidArgument);
  }
  // A trace count the remaining payload cannot possibly hold.
  {
    util::ByteWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kStatsJsonReply));
    w.Str("{}");
    w.Str("{}");
    w.U32(0);  // no shards
    for (int i = 0; i < 8; ++i) w.U64(0);  // bus + server counters
    w.U32(1000000);  // ntraces, but no blocks follow
    EXPECT_EQ(DecodeReply(w.TakeBuffer(), &reply).code(),
              StatusCode::kInvalidArgument);
  }
  // Truncation at every byte of a well-formed reply must error, not read
  // out of bounds (the ASan leg of tools/check.sh runs this).
  {
    Reply full;
    full.type = MsgType::kStatsJsonReply;
    full.stats_json = "{}";
    full.shard_stats.resize(2);
    full.slow_traces.resize(1);
    const auto payload = EncodeReply(full);
    for (size_t keep = 0; keep + 1 < payload.size(); ++keep) {
      std::vector<char> cut(payload.begin(),
                            payload.begin() + static_cast<long>(keep));
      EXPECT_EQ(DecodeReply(cut, &reply).code(),
                StatusCode::kInvalidArgument)
          << "keep=" << keep;
    }
  }
}

TEST(WireCodec, MalformedRequestBodiesAreInvalidArgument) {
  Request req;
  // Unknown type byte.
  {
    std::vector<char> payload = {char(0x33)};
    Status st = DecodeRequest(payload, &req);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // Type byte 5 (the retired single-event request) is unknown too, even
  // when followed by what used to be a well-formed body.
  {
    util::ByteWriter w;
    w.U8(5);
    w.U32(0);  // deadline_ms
    w.U64(1);  // seq
    w.Str("home-a");
    graph::WriteEvent(&w, TestEvent(1.0));
    Status st = DecodeRequest(w.TakeBuffer(), &req);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("unknown type"), std::string::npos)
        << st.message();
  }
  // Empty payload: no type at all.
  {
    std::vector<char> payload;
    EXPECT_EQ(DecodeRequest(payload, &req).code(),
              StatusCode::kInvalidArgument);
  }
  // Truncated body: an Inspect with its f64 cut off.
  {
    Request full;
    full.type = MsgType::kInspect;
    full.home = "home-a";
    full.now_hours = 1.5;
    auto payload = EncodeRequest(full);
    payload.resize(payload.size() - 3);
    EXPECT_EQ(DecodeRequest(payload, &req).code(),
              StatusCode::kInvalidArgument);
  }
  // Trailing bytes after a valid body.
  {
    Request full;
    full.type = MsgType::kPing;
    auto payload = EncodeRequest(full);
    payload.push_back('x');
    EXPECT_EQ(DecodeRequest(payload, &req).code(),
              StatusCode::kInvalidArgument);
  }
  // AddHome claiming more rules than the payload can hold.
  {
    util::ByteWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kAddHome));
    w.U32(0);  // deadline_ms
    w.Str("home-a");
    w.U32(1000000);  // n rules, but no rule bytes follow
    EXPECT_EQ(DecodeRequest(w.TakeBuffer(), &req).code(),
              StatusCode::kInvalidArgument);
  }
}

// ---- Event batches ------------------------------------------------------

Request BatchOf(size_t n, const std::string& home = "home-batch") {
  Request r;
  r.type = MsgType::kEventBatch;
  r.home = home;
  r.deadline_ms = 200;
  r.seq = 1001;  // first event's seq; the rest are consecutive
  r.events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    graph::Event e = TestEvent(0.25 * static_cast<double>(i));
    e.device = static_cast<rules::DeviceType>(i % 7);
    e.source_rule_id = static_cast<int>(i);
    r.events.push_back(e);
  }
  return r;
}

TEST(WireCodec, EventBatchRoundTripsFieldExact) {
  const Request req = BatchOf(5);
  Request back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(req), &back).ok());
  EXPECT_EQ(back.type, MsgType::kEventBatch);
  EXPECT_EQ(back.home, req.home);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.seq, req.seq);
  ASSERT_EQ(back.events.size(), req.events.size());
  for (size_t i = 0; i < req.events.size(); ++i) {
    EXPECT_EQ(back.events[i].time_hours, req.events[i].time_hours);
    EXPECT_EQ(back.events[i].device, req.events[i].device);
    EXPECT_EQ(back.events[i].state, req.events[i].state);
    EXPECT_EQ(back.events[i].source_rule_id, req.events[i].source_rule_id);
  }
}

TEST(WireCodec, MaxBatchRoundTripsAndFitsTheFrameCap) {
  Request req = BatchOf(kMaxBatchEvents);
  // Worst-case realistic states: the frame cap must still hold, or
  // SendFrame could never ship a legal batch.
  for (auto& e : req.events) e.state = std::string(64, 's');
  const auto payload = EncodeRequest(req);
  EXPECT_LE(payload.size(), kMaxFramePayload);
  Request back;
  ASSERT_TRUE(DecodeRequest(payload, &back).ok());
  ASSERT_EQ(back.events.size(), kMaxBatchEvents);
  EXPECT_EQ(back.events.back().state, req.events.back().state);
  EXPECT_EQ(back.events.back().time_hours, req.events.back().time_hours);
}

TEST(WireCodec, BatchAckRoundTrips) {
  Reply r;
  r.type = MsgType::kBatchAck;
  r.code = static_cast<int32_t>(StatusCode::kFailedPrecondition);
  r.message = "bus is stopping";
  r.batch_events = 77;
  Reply back;
  ASSERT_TRUE(DecodeReply(EncodeReply(r), &back).ok());
  EXPECT_EQ(back.type, MsgType::kBatchAck);
  EXPECT_EQ(back.code, r.code);
  EXPECT_EQ(back.message, r.message);
  EXPECT_EQ(back.batch_events, r.batch_events);
}

TEST(WireCodec, EventBatchMalformedBodiesAreInvalidArgument) {
  Request req;
  // Empty batch: a count of zero is not a legal frame.
  {
    util::ByteWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kEventBatch));
    w.U32(0);  // deadline_ms
    w.U64(0);  // first seq
    w.Str("home-a");
    w.U32(0);
    Status st = DecodeRequest(w.TakeBuffer(), &req);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("empty"), std::string::npos);
  }
  // A count past the protocol cap is refused even if bytes follow.
  {
    util::ByteWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kEventBatch));
    w.U32(0);  // deadline_ms
    w.U64(0);  // first seq
    w.Str("home-a");
    w.U32(kMaxBatchEvents + 1);
    Status st = DecodeRequest(w.TakeBuffer(), &req);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("exceeds max"), std::string::npos);
  }
  // A count the remaining payload cannot hold must be rejected before
  // any allocation sized by it.
  {
    util::ByteWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kEventBatch));
    w.U32(0);  // deadline_ms
    w.U64(0);  // first seq
    w.Str("home-a");
    w.U32(100);
    graph::WriteEvent(&w, TestEvent(1.0));  // only one event follows
    EXPECT_EQ(DecodeRequest(w.TakeBuffer(), &req).code(),
              StatusCode::kInvalidArgument);
  }
  // Truncated mid-event: cut a legal batch inside its last event.
  {
    auto payload = EncodeRequest(BatchOf(4));
    payload.resize(payload.size() - 5);
    EXPECT_EQ(DecodeRequest(payload, &req).code(),
              StatusCode::kInvalidArgument);
  }
  // Trailing bytes after a complete batch.
  {
    auto payload = EncodeRequest(BatchOf(2));
    payload.push_back('x');
    EXPECT_EQ(DecodeRequest(payload, &req).code(),
              StatusCode::kInvalidArgument);
  }
  // Per-byte truncation sweep: every prefix errors, never reads OOB (the
  // ASan leg of tools/check.sh runs this).
  {
    const auto payload = EncodeRequest(BatchOf(3));
    for (size_t keep = 0; keep + 1 < payload.size(); ++keep) {
      std::vector<char> cut(payload.begin(),
                            payload.begin() + static_cast<long>(keep));
      EXPECT_EQ(DecodeRequest(cut, &req).code(),
                StatusCode::kInvalidArgument)
          << "keep=" << keep;
    }
  }
}

// A seq range first_seq..first_seq+n-1 that wraps u64 is refused: the bus
// would store a wrapped high-water mark and stop deduping the home.
TEST(WireCodec, EventBatchSeqRangeMustNotWrap) {
  Request req;
  Request wrap = BatchOf(2);
  wrap.seq = UINT64_MAX;  // events UINT64_MAX and UINT64_MAX+1 (= 0)
  Status st = DecodeRequest(EncodeRequest(wrap), &req);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("wraps"), std::string::npos) << st.message();
  // The last seq a batch can legally end on is UINT64_MAX itself.
  wrap.seq = UINT64_MAX - 1;
  EXPECT_TRUE(DecodeRequest(EncodeRequest(wrap), &req).ok());
  wrap = BatchOf(kMaxBatchEvents);
  wrap.seq = UINT64_MAX - kMaxBatchEvents + 2;
  EXPECT_EQ(DecodeRequest(EncodeRequest(wrap), &req).code(),
            StatusCode::kInvalidArgument);
  // Unsequenced batches (seq 0) stay legal at any size.
  wrap.seq = 0;
  EXPECT_TRUE(DecodeRequest(EncodeRequest(wrap), &req).ok());
}

// ---- Golden encodings ---------------------------------------------------

// One fixture per request and reply type. Their encodings were recorded as
// hex (below) before the codecs became one field list per message; the
// tests require the same bytes, a byte-exact re-encode of every decode,
// and InvalidArgument (never an abort) for every strict prefix.
std::vector<Request> GoldenRequests() {
  std::vector<Request> out;
  Request r;
  r.type = MsgType::kPing;
  out.push_back(r);
  r = Request();
  r.type = MsgType::kAddHome;
  r.deadline_ms = 1500;
  r.home = "home-golden";
  r.rules = {fixtures::Rule(11), fixtures::Rule(-12)};
  r.rules[1].conditions.clear();
  r.rules[1].text.clear();
  out.push_back(r);
  r = Request();
  r.type = MsgType::kAddRule;
  r.deadline_ms = 7;
  r.home = "home-golden";
  r.rule = fixtures::Rule(13);
  out.push_back(r);
  r = Request();
  r.type = MsgType::kRemoveRule;
  r.deadline_ms = 9;
  r.home = "home-golden";
  r.rule_id = -13;
  out.push_back(r);
  r = Request();
  r.type = MsgType::kInspect;
  r.deadline_ms = 250;
  r.home = "home-golden";
  r.now_hours = 41.625;
  out.push_back(r);
  r = Request();
  r.type = MsgType::kStats;
  out.push_back(r);
  r = Request();
  r.type = MsgType::kStatsJson;
  out.push_back(r);
  r = Request();
  r.type = MsgType::kEventBatch;
  r.deadline_ms = 100;
  r.seq = 0x0102030405060708ull;
  r.home = "home-golden";
  r.events = {fixtures::Event(40.5, 11), fixtures::Event(40.75, 0),
              fixtures::Event(41.0, -3)};
  r.events[1].state = "";
  out.push_back(r);
  r = Request();
  r.type = MsgType::kHealth;
  out.push_back(r);
  return out;
}

std::vector<Reply> GoldenReplies() {
  std::vector<Reply> out;
  Reply r;
  r.type = MsgType::kPong;
  out.push_back(r);
  r = Reply();
  r.type = MsgType::kAck;
  r.code = static_cast<int32_t>(StatusCode::kOverloaded);
  r.message = "shard 1 is degraded";
  r.retry_after_ms = 75;
  out.push_back(r);
  r = Reply();
  r.type = MsgType::kWarning;
  r.code = 0;
  r.message = "";
  r.retry_after_ms = 40;
  r.threat = true;
  r.drifting = false;
  r.degraded = true;
  r.confidence = 0.8125;
  r.rendered = "THREAT WARNING\nchain: #11 -> #13";
  out.push_back(r);
  r = Reply();
  r.type = MsgType::kStatsReply;
  r.homes = 10000;
  r.rules = 30000;
  r.events = 1u << 20;
  r.inspects = 77;
  r.bus_rejected = 5;
  r.bus_apply_errors = 1;
  r.server_connections = 12;
  r.server_requests = 999;
  r.server_bad_frames = 2;
  r.server_bad_requests = 3;
  r.server_accept_backoffs = 4;
  r.server_overloaded = 11;
  out.push_back(r);
  r = Reply();
  r.type = MsgType::kStatsJsonReply;
  r.stats_json = R"({"counters":{"a":1}})";
  r.series_json = R"({"s":[[1.0,2.0]]})";
  for (int k = 0; k < 2; ++k) {
    ShardStat s;
    const uint64_t base = 100u * static_cast<uint64_t>(k + 1);
    s.homes = base + 1;
    s.rules = base + 2;
    s.events = base + 3;
    s.inspects = base + 4;
    s.queue_depth = base + 5;
    s.queue_high_water = base + 6;
    s.applied = base + 7;
    s.events_per_sec = 1.5 * static_cast<double>(base);
    s.queue_wait_p50_ms = 0.125;
    s.queue_wait_p99_ms = 0.25;
    s.apply_p50_ms = 0.5;
    s.apply_p99_ms = 1.0;
    s.inspect_p50_ms = 2.0;
    s.inspect_p99_ms = 4.0;
    s.health = static_cast<uint8_t>(k);
    s.overload_shed = base + 8;
    s.deadline_shed = base + 9;
    s.restarts = base + 10;
    r.shard_stats.push_back(s);
  }
  r.bus_rejected = 9;
  r.bus_apply_errors = 8;
  r.server_connections = 7;
  r.server_requests = 6;
  r.server_bad_frames = 5;
  r.server_bad_requests = 4;
  r.server_accept_backoffs = 3;
  r.server_overloaded = 2;
  for (int k = 0; k < 2; ++k) {
    SlowTrace t;
    t.id = 1000u + static_cast<uint64_t>(k);
    t.shard = k - 1;
    t.msg_type = static_cast<uint8_t>(MsgType::kEventBatch);
    t.events = 64u + static_cast<uint32_t>(k);
    t.total_us = 5000u + static_cast<uint64_t>(k);
    for (int s = 0; s < obs::kNumTraceStages; ++s) {
      t.stage_us[s] = static_cast<uint64_t>(10 * s + k);
    }
    r.slow_traces.push_back(t);
  }
  out.push_back(r);
  r = Reply();
  r.type = MsgType::kBatchAck;
  r.code = static_cast<int32_t>(StatusCode::kInvalidArgument);
  r.message = "wire EventBatch: seq range wraps";
  r.batch_events = 3;
  r.retry_after_ms = 0;
  out.push_back(r);
  r = Reply();
  r.type = MsgType::kHealthReply;
  r.fleet_health = static_cast<uint8_t>(ShardHealth::kDegraded);
  r.retry_after_ms = 125;
  for (int k = 0; k < 3; ++k) {
    ShardHealthStat h;
    h.state = static_cast<uint8_t>(k == 1 ? ShardHealth::kDegraded
                                          : ShardHealth::kHealthy);
    h.queue_depth = 10u + static_cast<uint64_t>(k);
    h.overload_shed = 20u + static_cast<uint64_t>(k);
    h.deadline_shed = 30u + static_cast<uint64_t>(k);
    h.restarts = static_cast<uint64_t>(k);
    r.shard_health.push_back(h);
  }
  out.push_back(r);
  return out;
}

// GoldenRequests()[i] encoded by the codecs as they were before the rewrite.
const char* const kGoldenRequestHex[] = {
    "01",
    "02dc0500000b000000686f6d652d676f6c64656e020000000b00000004000000"
    "030000000100000006000000010000000000000000803a40000000000000f4bf"
    "03000000686f74ffffffff010000000700000015000000020000000900000014"
    "00000004000000000000000000f03f000000000000000004000000686f6d6500"
    "0000000100000012000000170000000200000014000000030000000000000000"
    "003e400000000000404e40000000000000000000000000000000001800000002"
    "0000000700000000000000000000000000000000000000060000000000000000"
    "00d83f3a0000005768656e20746865206b69746368656e20697320686f742061"
    "6e6420736f6d656f6e6520697320686f6d652c20636f6f6c20697420646f776e"
    "2e01000000f4ffffff0400000003000000010000000600000001000000000000"
    "0000803a40000000000000f4bf03000000686f74ffffffff0100000007000000"
    "1500000000000000020000000700000000000000000000000000000000000000"
    "06000000000000000000d83f0000000001000000",
    "03070000000b000000686f6d652d676f6c64656e0d0000000400000003000000"
    "0100000006000000010000000000000000803a40000000000000f4bf03000000"
    "686f74ffffffff01000000070000001500000002000000090000001400000004"
    "000000000000000000f03f000000000000000004000000686f6d650000000001"
    "00000012000000170000000200000014000000030000000000000000003e4000"
    "00000000404e4000000000000000000000000000000000180000000200000007"
    "0000000000000000000000000000000000000006000000000000000000d83f3a"
    "0000005768656e20746865206b69746368656e20697320686f7420616e642073"
    "6f6d656f6e6520697320686f6d652c20636f6f6c20697420646f776e2e010000"
    "00",
    "04090000000b000000686f6d652d676f6c64656ef3ffffff",
    "06fa0000000b000000686f6d652d676f6c64656e0000000000d04440",
    "07",
    "08",
    "096400000008070605040302010b000000686f6d652d676f6c64656e03000000"
    "00000000004044400200000002000000040000006f70656e020000000b000000"
    "0000000000604440020000000200000000000000020000000000000000000000"
    "008044400200000002000000040000006f70656e02000000fdffffff",
    "0a",
};

// GoldenReplies()[i] encoded by the codecs as they were before the rewrite.
const char* const kGoldenReplyHex[] = {
    "40",
    "410600000013000000736861726420312069732064656772616465644b000000",
    "42000000000000000028000000010001000000000000ea3f2000000054485245"
    "4154205741524e494e470a636861696e3a20233131202d3e20233133",
    "431027000000000000307500000000000000001000000000004d000000000000"
    "00050000000000000001000000000000000c00000000000000e7030000000000"
    "000200000000000000030000000000000004000000000000000b000000000000"
    "00",
    "44140000007b22636f756e74657273223a7b2261223a317d7d110000007b2273"
    "223a5b5b312e302c322e305d5d7d020000006500000000000000660000000000"
    "00006700000000000000680000000000000069000000000000006a0000000000"
    "00006b000000000000000000000000c06240000000000000c03f000000000000"
    "d03f000000000000e03f000000000000f03f0000000000000040000000000000"
    "1040006c000000000000006d000000000000006e00000000000000c900000000"
    "000000ca00000000000000cb00000000000000cc00000000000000cd00000000"
    "000000ce00000000000000cf000000000000000000000000c072400000000000"
    "00c03f000000000000d03f000000000000e03f000000000000f03f0000000000"
    "000040000000000000104001d000000000000000d100000000000000d2000000"
    "0000000009000000000000000800000000000000070000000000000006000000"
    "0000000005000000000000000400000000000000030000000000000002000000"
    "0000000002000000e803000000000000ffffffff094000000088130000000000"
    "0000000000000000000a0000000000000014000000000000001e000000000000"
    "00280000000000000032000000000000003c0000000000000046000000000000"
    "00e9030000000000000000000009410000008913000000000000010000000000"
    "00000b0000000000000015000000000000001f00000000000000290000000000"
    "000033000000000000003d000000000000004700000000000000",
    "45010000002000000077697265204576656e7442617463683a20736571207261"
    "6e67652077726170730300000000000000",
    "46017d00000003000000000a0000000000000014000000000000001e00000000"
    "0000000000000000000000010b0000000000000015000000000000001f000000"
    "000000000100000000000000000c000000000000001600000000000000200000"
    "00000000000200000000000000",
};

std::vector<char> Unhex(const std::string& hex) {
  std::vector<char> out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

TEST(WireGolden, RequestsKeepTheirRecordedBytes) {
  const std::vector<Request> reqs = GoldenRequests();
  ASSERT_EQ(reqs.size(), std::size(kGoldenRequestHex));
  for (size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(MsgTypeName(reqs[i].type));
    EXPECT_EQ(fixtures::Hex(EncodeRequest(reqs[i])), kGoldenRequestHex[i]);
    // Decode then re-encode: the same bytes.
    const std::vector<char> golden = Unhex(kGoldenRequestHex[i]);
    Request back;
    ASSERT_TRUE(DecodeRequest(golden, &back).ok());
    EXPECT_EQ(EncodeRequest(back), golden);
  }
}

TEST(WireGolden, RepliesKeepTheirRecordedBytes) {
  const std::vector<Reply> replies = GoldenReplies();
  ASSERT_EQ(replies.size(), std::size(kGoldenReplyHex));
  for (size_t i = 0; i < replies.size(); ++i) {
    SCOPED_TRACE(MsgTypeName(replies[i].type));
    EXPECT_EQ(fixtures::Hex(EncodeReply(replies[i])), kGoldenReplyHex[i]);
    const std::vector<char> golden = Unhex(kGoldenReplyHex[i]);
    Reply back;
    ASSERT_TRUE(DecodeReply(golden, &back).ok());
    EXPECT_EQ(EncodeReply(back), golden);
  }
}

TEST(WireGolden, EveryStrictPrefixIsInvalidArgument) {
  for (const char* hex : kGoldenRequestHex) {
    const std::vector<char> golden = Unhex(hex);
    for (size_t keep = 0; keep < golden.size(); ++keep) {
      const std::vector<char> cut(golden.begin(),
                                  golden.begin() + static_cast<long>(keep));
      Request req;
      EXPECT_EQ(DecodeRequest(cut, &req).code(), StatusCode::kInvalidArgument)
          << hex << " cut to " << keep;
    }
  }
  for (const char* hex : kGoldenReplyHex) {
    const std::vector<char> golden = Unhex(hex);
    for (size_t keep = 0; keep < golden.size(); ++keep) {
      const std::vector<char> cut(golden.begin(),
                                  golden.begin() + static_cast<long>(keep));
      Reply reply;
      EXPECT_EQ(DecodeReply(cut, &reply).code(), StatusCode::kInvalidArgument)
          << hex << " cut to " << keep;
    }
  }
}

// ---- Count amplification ------------------------------------------------

// A count is bounded by the smallest encoding of its element, so a frame
// can never make the decoder allocate much more than the frame itself.
// Each case is a full-size (kMaxFramePayload) payload whose count claims
// one element per remaining byte — the most a bare `n > remaining` check
// lets through — followed by zero bytes (which decode as minimal rules,
// conditions or actions, so the decoder would get deep into the list).

/// Pads `w` with zero bytes up to kMaxFramePayload.
std::vector<char> PadToFrameCap(util::ByteWriter* w) {
  std::vector<char> payload = w->TakeBuffer();
  payload.resize(kMaxFramePayload, 0);
  return payload;
}

/// Decodes `payload`, expecting InvalidArgument within 4x its size in
/// heap bytes.
void ExpectRejectedWithinBudget(const std::vector<char>& payload) {
  Request req;
  const size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  const Status st = DecodeRequest(payload, &req);
  const size_t allocated =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_LE(allocated, 4 * payload.size())
      << "decode allocated " << allocated << " bytes for a "
      << payload.size() << "-byte payload";
}

TEST(WireCountBounds, AddHomeRuleCountCannotAmplify) {
  util::ByteWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kAddHome));
  w.U32(0);  // deadline_ms
  w.Str("home-a");
  w.U32(static_cast<uint32_t>(kMaxFramePayload - w.size() - 4));
  ExpectRejectedWithinBudget(PadToFrameCap(&w));
}

/// An AddRule body up to and including its trigger: id, platform,
/// location, then the 48-byte trigger (all zero).
util::ByteWriter AddRuleUpToTrigger() {
  util::ByteWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kAddRule));
  w.U32(0);  // deadline_ms
  w.Str("home-a");
  for (int i = 0; i < 3; ++i) w.I32(0);
  const std::vector<char> trigger(48, 0);
  w.Raw(trigger.data(), trigger.size());
  return w;
}

TEST(WireCountBounds, RuleConditionCountCannotAmplify) {
  util::ByteWriter w = AddRuleUpToTrigger();
  w.U32(static_cast<uint32_t>(kMaxFramePayload - w.size() - 4));
  ExpectRejectedWithinBudget(PadToFrameCap(&w));
}

TEST(WireCountBounds, RuleActionCountCannotAmplify) {
  util::ByteWriter w = AddRuleUpToTrigger();
  w.U32(0);  // no conditions
  w.U32(static_cast<uint32_t>(kMaxFramePayload - w.size() - 4));
  ExpectRejectedWithinBudget(PadToFrameCap(&w));
}

// ---- Buffer-level framing ----------------------------------------------

std::vector<char> FrameOf(const std::vector<char>& payload) {
  std::vector<char> out;
  AppendFrame(&out, payload);
  return out;
}

TEST(WireFraming, FrameRoundTrip) {
  const std::vector<char> payload = {'h', 'e', 'l', 'l', 'o'};
  auto frame = FrameOf(payload);
  ASSERT_EQ(frame.size(), payload.size() + 8);
  util::ByteReader r(frame);
  std::vector<char> back;
  ASSERT_TRUE(DecodeFrame(&r, &back).ok());
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(WireFraming, TruncatedLengthPrefixIsError) {
  auto frame = FrameOf({'a', 'b', 'c'});
  for (size_t keep = 0; keep < 8; ++keep) {
    std::vector<char> cut(frame.begin(),
                          frame.begin() + static_cast<long>(keep));
    util::ByteReader r(cut);
    std::vector<char> payload;
    Status st = DecodeFrame(&r, &payload);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "keep=" << keep;
  }
}

TEST(WireFraming, TruncatedPayloadIsError) {
  auto frame = FrameOf({'a', 'b', 'c', 'd'});
  std::vector<char> cut(frame.begin(), frame.end() - 2);
  util::ByteReader r(cut);
  std::vector<char> payload;
  EXPECT_EQ(DecodeFrame(&r, &payload).code(), StatusCode::kInvalidArgument);
}

TEST(WireFraming, FlippedCrcByteIsError) {
  auto frame = FrameOf({'a', 'b', 'c', 'd'});
  frame[5] = static_cast<char>(frame[5] ^ 0x10);  // inside the crc field
  util::ByteReader r(frame);
  std::vector<char> payload;
  Status st = DecodeFrame(&r, &payload);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
}

TEST(WireFraming, FlippedPayloadByteIsError) {
  auto frame = FrameOf({'a', 'b', 'c', 'd'});
  frame.back() = static_cast<char>(frame.back() ^ 0x01);
  util::ByteReader r(frame);
  std::vector<char> payload;
  EXPECT_EQ(DecodeFrame(&r, &payload).code(), StatusCode::kInvalidArgument);
}

TEST(WireFraming, OversizedLengthPrefixIsRejectedNotAllocated) {
  // A length prefix of ~4 GiB must be refused outright (bounded buffering),
  // not trusted and allocated.
  std::vector<char> frame(8, 0);
  const uint32_t len = 0xfffffff0u;
  std::memcpy(frame.data(), &len, sizeof len);
  util::ByteReader r(frame);
  std::vector<char> payload;
  Status st = DecodeFrame(&r, &payload);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("oversized"), std::string::npos);
}

TEST(WireFraming, BackToBackFramesDecodeInOrder) {
  std::vector<char> stream;
  AppendFrame(&stream, {'1'});
  AppendFrame(&stream, {'2', '2'});
  AppendFrame(&stream, {});
  util::ByteReader r(stream);
  std::vector<char> payload;
  ASSERT_TRUE(DecodeFrame(&r, &payload).ok());
  EXPECT_EQ(payload, std::vector<char>({'1'}));
  ASSERT_TRUE(DecodeFrame(&r, &payload).ok());
  EXPECT_EQ(payload, std::vector<char>({'2', '2'}));
  ASSERT_TRUE(DecodeFrame(&r, &payload).ok());
  EXPECT_TRUE(payload.empty());
  EXPECT_TRUE(r.exhausted());
}

// ---- Socket-level framing ----------------------------------------------

class WireSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void CloseWriter() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }
  int fds_[2] = {-1, -1};
};

TEST_F(WireSocketTest, SendRecvRoundTrip) {
  const std::vector<char> payload = {'p', 'i', 'n', 'g'};
  ASSERT_TRUE(SendFrame(fds_[0], payload).ok());
  std::vector<char> back;
  ASSERT_TRUE(RecvFrame(fds_[1], &back).ok());
  EXPECT_EQ(back, payload);
}

TEST_F(WireSocketTest, CleanEofIsNotFound) {
  CloseWriter();
  std::vector<char> payload;
  Status st = RecvFrame(fds_[1], &payload);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST_F(WireSocketTest, EofInsideHeaderIsIOError) {
  // 3 of the 8 header bytes, then EOF: a torn frame, not a clean close.
  ASSERT_EQ(::send(fds_[0], "abc", 3, 0), 3);
  CloseWriter();
  std::vector<char> payload;
  EXPECT_EQ(RecvFrame(fds_[1], &payload).code(), StatusCode::kIOError);
}

TEST_F(WireSocketTest, EofInsidePayloadIsIOError) {
  std::vector<char> frame;
  AppendFrame(&frame, {'a', 'b', 'c', 'd'});
  // Send everything but the last 2 payload bytes.
  ASSERT_EQ(::send(fds_[0], frame.data(), frame.size() - 2, 0),
            static_cast<ssize_t>(frame.size() - 2));
  CloseWriter();
  std::vector<char> payload;
  EXPECT_EQ(RecvFrame(fds_[1], &payload).code(), StatusCode::kIOError);
}

TEST_F(WireSocketTest, FlippedCrcOnTheWireIsInvalidArgument) {
  std::vector<char> frame;
  AppendFrame(&frame, {'a', 'b', 'c', 'd'});
  frame[4] = static_cast<char>(frame[4] ^ 0x80);
  ASSERT_EQ(::send(fds_[0], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::vector<char> payload;
  EXPECT_EQ(RecvFrame(fds_[1], &payload).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WireSocketTest, OversizedPrefixOnTheWireIsInvalidArgument) {
  char header[8] = {0};
  const uint32_t len = kMaxFramePayload + 1;
  std::memcpy(header, &len, sizeof len);
  ASSERT_EQ(::send(fds_[0], header, sizeof header, 0),
            static_cast<ssize_t>(sizeof header));
  std::vector<char> payload;
  EXPECT_EQ(RecvFrame(fds_[1], &payload).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WireSocketTest, GarbageBytesNeverAbort) {
  // 64 frames of deterministic pseudo-random garbage: every outcome must
  // be a Status, never a crash. (A garbage header is overwhelmingly either
  // oversized or a checksum mismatch.)
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 64; ++i) {
    char junk[32];
    for (char& c : junk) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    ASSERT_EQ(::send(fds_[0], junk, sizeof junk, 0),
              static_cast<ssize_t>(sizeof junk));
    std::vector<char> payload;
    Status st = RecvFrame(fds_[1], &payload);
    // Drain whatever the failed parse left behind so the next iteration
    // starts at a fresh "header".
    char drain[256];
    while (::recv(fds_[1], drain, sizeof drain, MSG_DONTWAIT) > 0) {
    }
    EXPECT_FALSE(st.ok()) << "iteration " << i;
  }
}

TEST_F(WireSocketTest, BatchFrameFlippedCrcOnTheWireIsInvalidArgument) {
  std::vector<char> frame;
  AppendFrame(&frame, EncodeRequest(BatchOf(8)));
  frame[6] = static_cast<char>(frame[6] ^ 0x40);  // inside the crc field
  ASSERT_EQ(::send(fds_[0], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::vector<char> payload;
  EXPECT_EQ(RecvFrame(fds_[1], &payload).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WireSocketTest, BatchFrameTornMidEventIsIOError) {
  std::vector<char> frame;
  AppendFrame(&frame, EncodeRequest(BatchOf(8)));
  // EOF lands inside the payload — mid-event from the decoder's view.
  ASSERT_EQ(::send(fds_[0], frame.data(), frame.size() - 11, 0),
            static_cast<ssize_t>(frame.size() - 11));
  CloseWriter();
  std::vector<char> payload;
  EXPECT_EQ(RecvFrame(fds_[1], &payload).code(), StatusCode::kIOError);
}

// ---- Client (pipelining, timeouts) --------------------------------------

/// A real loopback listener the Client can connect to; the test plays
/// the server by accept()ing and speaking frames on the accepted fd.
class WireClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  void TearDown() override {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  int Accept() {
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    return conn_fd_;
  }
  /// Serves `n` frames on the accepted fd: decode request, answer pong.
  void ServePongs(int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<char> payload;
      ASSERT_TRUE(RecvFrame(conn_fd_, &payload).ok()) << "frame " << i;
      Request req;
      ASSERT_TRUE(DecodeRequest(payload, &req).ok());
      ASSERT_EQ(req.type, MsgType::kPing);
      Reply pong;
      pong.type = MsgType::kPong;
      ASSERT_TRUE(SendFrame(conn_fd_, EncodeReply(pong)).ok());
    }
  }
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  int port_ = 0;
};

TEST_F(WireClientTest, PipelinedWindowFillsDrainsAndRefills) {
  Client::Options opt;
  opt.max_window = 4;
  opt.recv_timeout_ms = 5000;
  Client client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_GE(Accept(), 0);

  Request ping;
  ping.type = MsgType::kPing;
  for (size_t i = 0; i < opt.max_window; ++i) {
    ASSERT_TRUE(client.Send(ping).ok()) << i;
  }
  EXPECT_EQ(client.pending(), opt.max_window);
  // Window full: the 5th Send must be refused, not queued or blocked.
  EXPECT_EQ(client.Send(ping).code(), StatusCode::kFailedPrecondition);
  // Call into a non-empty pipeline would mis-attribute replies.
  Reply reply;
  EXPECT_EQ(client.Call(ping, &reply).code(),
            StatusCode::kFailedPrecondition);

  ServePongs(static_cast<int>(opt.max_window));
  // Partial drain re-opens the window (pending() must not count the
  // already-received prefix of the FIFO).
  MsgType for_req = MsgType::kAck;
  ASSERT_TRUE(client.Recv(&reply, &for_req).ok());
  EXPECT_EQ(reply.type, MsgType::kPong);
  EXPECT_EQ(for_req, MsgType::kPing);
  EXPECT_EQ(client.pending(), opt.max_window - 1);
  ASSERT_TRUE(client.Send(ping).ok());
  EXPECT_EQ(client.pending(), opt.max_window);
  ServePongs(1);
  while (client.pending() > 0) {
    ASSERT_TRUE(client.Recv(&reply).ok());
    EXPECT_EQ(reply.type, MsgType::kPong);
  }
  // Empty pipeline: nothing to receive.
  EXPECT_EQ(client.Recv(&reply).code(), StatusCode::kFailedPrecondition);
}

TEST_F(WireClientTest, RecvTimesOutInsteadOfHangingOnASilentServer) {
  Client::Options opt;
  opt.recv_timeout_ms = 100;
  Client client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_GE(Accept(), 0);  // accepted, but the "server" never replies
  Request ping;
  ping.type = MsgType::kPing;
  Reply reply;
  Status st = client.Call(ping, &reply);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("timed out"), std::string::npos);
}

TEST_F(WireClientTest, ConnectToDeadPortFailsInsteadOfHanging) {
  // Close the listener and connect to its (now dead) port: the connect
  // must resolve to an error within the timeout, not hang.
  const int dead_port = port_;
  ::close(listen_fd_);
  listen_fd_ = -1;
  Client::Options opt;
  opt.connect_timeout_ms = 2000;
  Client client(opt);
  EXPECT_FALSE(client.Connect("127.0.0.1", dead_port).ok());
  EXPECT_FALSE(client.connected());
}

// ---- Client resilience (DESIGN.md §16) ----------------------------------

TEST_F(WireClientTest, RecvTimeoutPoisonsThePipelineUntilReconnect) {
  Client::Options opt;
  opt.recv_timeout_ms = 100;
  Client client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_GE(Accept(), 0);

  Request ping;
  ping.type = MsgType::kPing;
  ASSERT_TRUE(client.Send(ping).ok());
  ASSERT_TRUE(client.Send(ping).ok());
  ServePongs(1);  // answer only the first; the second reply never comes

  Reply reply;
  ASSERT_TRUE(client.Recv(&reply).ok());
  Status st = client.Recv(&reply);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("timed out"), std::string::npos);

  // The FIFO request<->reply pairing is lost: a late reply may still be in
  // flight, so every further use must refuse until a fresh Connect().
  EXPECT_EQ(client.poisoned().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(client.poisoned().message().find("poisoned"), std::string::npos);
  EXPECT_EQ(client.Send(ping).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Recv(&reply).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Call(ping, &reply).code(),
            StatusCode::kFailedPrecondition);

  // A fresh Connect() resets the stream: poison cleared, window empty.
  ::close(conn_fd_);
  conn_fd_ = -1;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  EXPECT_TRUE(client.poisoned().ok());
  EXPECT_EQ(client.pending(), 0u);
  ASSERT_GE(Accept(), 0);
  std::thread server([this] { ServePongs(1); });
  EXPECT_TRUE(client.Call(ping, &reply).ok());
  server.join();
}

TEST_F(WireClientTest, MismatchedReplyTypePoisonsThePipeline) {
  Client::Options opt;
  opt.recv_timeout_ms = 5000;
  Client client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_GE(Accept(), 0);

  std::thread server([this] {
    std::vector<char> payload;
    ASSERT_TRUE(RecvFrame(conn_fd_, &payload).ok());
    Reply wrong;
    wrong.type = MsgType::kWarning;  // does not answer kPing
    ASSERT_TRUE(SendFrame(conn_fd_, EncodeReply(wrong)).ok());
  });
  Request ping;
  ping.type = MsgType::kPing;
  Reply reply;
  Status st = client.Call(ping, &reply);
  server.join();
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("does not answer"), std::string::npos);
  EXPECT_EQ(client.poisoned().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Send(ping).code(), StatusCode::kFailedPrecondition);
}

TEST_F(WireClientTest, RecvReconnectsAndReplaysTheInFlightWindow) {
  Client::Options opt;
  opt.recv_timeout_ms = 5000;
  opt.backoff_base_ms = 1;  // keep the retry sleep negligible
  opt.backoff_max_ms = 5;
  Client client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_GE(Accept(), 0);

  Request ping;
  ping.type = MsgType::kPing;
  ASSERT_TRUE(client.Send(ping).ok());
  // The server reads the request, then dies without answering: the reply
  // is owed but the transport is gone.
  std::vector<char> payload;
  ASSERT_TRUE(RecvFrame(conn_fd_, &payload).ok());
  ::close(conn_fd_);
  conn_fd_ = -1;

  // Reconnect re-establishes the window by retransmitting the in-flight
  // frame; the revived server finally answers it.
  std::thread server([this] {
    ASSERT_GE(Accept(), 0);
    ServePongs(1);
  });
  Reply reply;
  Status st = client.Recv(&reply);
  server.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(reply.type, MsgType::kPong);
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_TRUE(client.poisoned().ok());
}

TEST_F(WireClientTest, CallReconnectsAfterAPeerClose) {
  Client::Options opt;
  opt.recv_timeout_ms = 5000;
  opt.backoff_base_ms = 1;
  opt.backoff_max_ms = 5;
  Client client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_GE(Accept(), 0);
  // Kill the accepted connection before the client speaks: its next Call
  // hits a dead transport and must retry on a fresh connection.
  ::close(conn_fd_);
  conn_fd_ = -1;
  std::thread server([this] {
    ASSERT_GE(Accept(), 0);
    ServePongs(1);
  });
  Request ping;
  ping.type = MsgType::kPing;
  Reply reply;
  Status st = client.Call(ping, &reply);
  server.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(reply.type, MsgType::kPong);
}

TEST_F(WireClientTest, CallRetryingHonorsTheOverloadedRetryAfterHint) {
  Client::Options opt;
  opt.recv_timeout_ms = 5000;
  opt.backoff_base_ms = 1;
  opt.backoff_max_ms = 5;
  Client client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_GE(Accept(), 0);

  std::thread server([this] {
    // First answer: shed with a retry-after hint. Second: success.
    std::vector<char> payload;
    ASSERT_TRUE(RecvFrame(conn_fd_, &payload).ok());
    Reply shed;
    shed.type = MsgType::kAck;
    shed.code = static_cast<int32_t>(StatusCode::kOverloaded);
    shed.message = "shard 0 is degraded";
    shed.retry_after_ms = 10;
    ASSERT_TRUE(SendFrame(conn_fd_, EncodeReply(shed)).ok());
    ASSERT_TRUE(RecvFrame(conn_fd_, &payload).ok());
    Reply ok;
    ok.type = MsgType::kAck;
    ASSERT_TRUE(SendFrame(conn_fd_, EncodeReply(ok)).ok());
  });
  Request ping;
  ping.type = MsgType::kPing;
  Reply reply;
  Status st = client.CallRetrying(ping, &reply);
  server.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(reply.code, 0);
}

}  // namespace
}  // namespace glint::fleet::wire
