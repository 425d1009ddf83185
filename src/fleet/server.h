#pragma once

// FleetServer — the network front end of a ShardedFleet: a TCP listener
// (loopback by default) speaking the wire protocol, feeding mutations
// through an EventBus onto the shards.
//
// Layering: sockets/framing here, queueing/backpressure in EventBus,
// routing/durability in ShardedFleet, per-home serving in ServingEngine.
//
// Connection multiplexing (DESIGN.md §15): a small FIXED pool of I/O
// workers multiplexes every connection through one epoll instance —
// thread count is a configuration constant, not a function of connection
// count, so 10,000 idle connections cost file descriptors and buffer
// bytes, never threads. Each connection is non-blocking with explicit
// read/write buffers:
//
//   read side    each recv() lands in the worker's reused read buffer
//                and only the bytes received are appended to the
//                connection's input buffer; complete frames are peeled
//                off its front (partial-frame reassembly — a frame may
//                arrive across many reads, or many frames in one),
//                decoded where they sit, and dispatched in arrival order.
//   write side   replies append to an output buffer flushed as far as
//                the socket accepts; the remainder waits for EPOLLOUT.
//                A service round is one read, parse-and-dispatch of
//                every complete frame, then ONE send of all the round's
//                replies — except that the replies already owed are sent
//                before a request that waits on a shard consumer
//                (kInspect, kStats, kStatsJson), so earlier acks never
//                wait behind a queue drain or an inspect.
//                When a slow reader's output buffer passes
//                kMaxWriteBuffer, the server stops PARSING that
//                connection (and stops reading once the input buffer is
//                also full) until the backlog drains — backpressure
//                reaches the peer as TCP flow control, and one slow
//                consumer can never balloon server memory.
//
// EPOLLONESHOT keeps each connection on at most one worker at a time
// (requests on one connection stay strictly ordered — the pipelining
// contract); re-arming after each service round restores readiness.
// Workers service connections to completion, including the blocking
// RunOnShard hop for reads, so a worker pool of W serves at most W
// concurrent shard reads; mutations only block on bus backpressure.
//
// Semantics per request:
//   mutations (AddHome/AddRule/RemoveRule/Event)
//       enqueued on the owning shard's bus queue and acknowledged as
//       *accepted* (kAck OK) — apply is asynchronous, at-most-once; apply
//       errors are counted and surfaced via kStats, not the ack. A full
//       queue under the kReject policy is an error ack (backpressure made
//       visible to the producer); under kBlock the ack itself applies the
//       backpressure by arriving late.
//   kEventBatch
//       the whole batch becomes ONE bus message (EventBus::PostBatch):
//       framing, CRC, queue lock, and trace context amortize over up to
//       wire::kMaxBatchEvents events, and per-home FIFO holds because the
//       batch occupies a single queue slot. Acknowledged kBatchAck on
//       acceptance of the whole batch.
//   kInspect
//       runs on the owning shard's bus consumer thread, behind everything
//       that shard has already accepted (EventBus::RunOnShard) — so the
//       verdict covers every event this connection, or any other, already
//       had accepted, and the engine is only ever touched by its one
//       consumer thread even while other clients keep posting.
//   kStats
//       per-shard counters read the same way (one RunOnShard per shard),
//       then aggregated; kPing is liveness.
//
// A malformed frame (bad checksum, oversized length, truncated body) gets
// an error kAck where the stream still permits one and the connection is
// closed — a corrupt byte stream cannot be resynchronized — but the
// server itself never aborts, and other connections are unaffected.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/event_bus.h"
#include "fleet/sharding.h"
#include "fleet/wire.h"
#include "obs/timeseries.h"

namespace glint::fleet {

class FleetServer {
 public:
  /// listen(2) backlog of the bound socket.
  static constexpr int kListenBacklog = 64;
  /// Per-connection output-buffer high water (bytes). Past this the
  /// connection's frames stop being parsed until the peer drains its
  /// replies — bounded memory per slow reader.
  static constexpr size_t kMaxWriteBuffer = 4u << 20;
  /// Samples retained per time series (bounded memory per server).
  static constexpr size_t kSeriesCapacity = 128;

  struct Config {
    /// TCP port to bind on 127.0.0.1; 0 = ephemeral (read back via port()).
    int port = 0;
    /// Fixed epoll worker-pool size. The ONLY per-server thread knob:
    /// connection count never adds threads. Each worker can be parked on
    /// one blocking RunOnShard read at a time, so size this to the
    /// tolerable number of concurrent inspect/stats requests.
    int io_workers = 2;
    EventBus::Config bus;
    /// Request tracing (DESIGN.md §14): slow threshold + ring capacity.
    /// prefix/num_shards are overwritten at Start from the fleet shape.
    obs::TraceRecorder::Config trace;
    /// Time-series sampling cadence for queue depth / event rates /
    /// stage quantiles; 0 disables the sampler thread.
    int sample_interval_ms = 1000;
  };

  /// Per-server counter snapshot (kStats / kStatsJson replies). Distinct
  /// from the process-global obs counters: two servers in one process
  /// never alias these.
  struct Counters {
    uint64_t connections = 0;  ///< accepted, ever
    uint64_t requests = 0;
    uint64_t bad_frames = 0;
    uint64_t bad_requests = 0;
    uint64_t accept_backoffs = 0;
    uint64_t batch_frames = 0;  ///< kEventBatch frames served
    uint64_t batch_events = 0;  ///< events those frames carried
    /// kOverloaded replies sent (health shed, deadline shed, full kReject
    /// queue, task timeout) — the "work turned away, retry later" count,
    /// disjoint from bad_requests (kBadRequest = never retry).
    uint64_t overloaded = 0;
  };

  /// The fleet must outlive the server.
  FleetServer(ShardedFleet* fleet, Config config);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Binds, listens, and starts the worker pool + bus consumers.
  Status Start();
  /// The bound port (valid after Start).
  int port() const { return port_; }

  /// Stops accepting, shuts every live connection, drains the bus, joins
  /// all threads. Idempotent; the destructor calls it.
  void Stop();

  /// Graceful drain (SIGTERM path, DESIGN.md §16): stop accepting new
  /// connections, serve what live connections already sent, flush every
  /// owed reply, and close connections as they quiesce. Once every
  /// connection is gone — or `deadline_ms` elapses, whichever is first —
  /// Stop() runs (draining everything the bus accepted; an acked event is
  /// never lost) and every durable shard is snapshotted. Returns the
  /// snapshot status. FailedPrecondition if already draining.
  Status Drain(int deadline_ms);

  /// The ingestion bus (bench/test introspection: queue high-water,
  /// reject/apply-error counters).
  EventBus& bus() { return *bus_; }
  ShardedFleet& fleet() { return *fleet_; }
  /// The request-trace sink (valid after Start; tests read completed
  /// counts and slow rings through it).
  obs::TraceRecorder* recorder() { return recorder_.get(); }
  /// Periodic telemetry snapshots (valid after Start; empty when the
  /// sampler is disabled).
  obs::TimeSeriesSet* series() { return series_.get(); }
  Counters counters() const;
  /// Currently open connections (idle ones cost no threads — the C10k
  /// assertion surface).
  size_t open_connections() const;
  /// The fixed I/O worker-pool size actually running.
  int io_workers() const { return static_cast<int>(workers_.size()); }

 private:
  /// One multiplexed connection. Owned by conns_; only one worker
  /// touches a Conn at a time (EPOLLONESHOT), so the buffers need no
  /// lock — the epoll re-arm is the handoff edge.
  struct Conn {
    int fd = -1;
    std::vector<char> in;   ///< received bytes; [in_off, size) unparsed
    size_t in_off = 0;
    std::vector<char> out;  ///< reply bytes; [out_off, size) unsent
    size_t out_off = 0;
    /// Active traces whose replies were appended to `out` this round;
    /// FlushRound marks their reply stage and finishes them after the
    /// send that carries the replies. Empty between rounds.
    std::vector<obs::TraceContext> replied;
    /// Close once `out` drains (EOF seen, or a fatal frame error was
    /// answered); no further reads or parses.
    bool close_after_flush = false;
    /// Stamp of the read() that most recently delivered bytes — the
    /// birth of every frame that read completed (idle time between
    /// frames is nobody's latency). 0 while tracing is disabled.
    uint64_t last_read_ns = 0;
    /// Worker-to-worker handoff fence. EPOLLONESHOT already serializes
    /// ownership in real time (one event delivery per arm), but the
    /// epoll_ctl → epoll_wait edge is invisible to the memory model (and
    /// to TSAN): the releasing store before each arm, paired with the
    /// acquire load at HandleConn entry, makes the previous owner's
    /// plain-field writes visible to the next.
    std::atomic<uint64_t> handoff{0};
  };

  void WorkerLoop();
  /// Accepts until EAGAIN, then re-arms the listener.
  void AcceptReady();
  /// One service round: flush replies left from the last round, read
  /// into `read_buf` (the worker's kReadChunk bytes) until the socket is
  /// drained, parse/dispatch every complete frame, send the round's
  /// replies in one FlushRound, then close or re-arm.
  void HandleConn(Conn* c, char* read_buf);
  /// Peels complete frames off c->in, decodes each in place and serves
  /// them in order, appending every reply to c->out without sending it.
  /// Sends early only before a request that waits on a shard consumer,
  /// or when the owed replies reach kMaxWriteBuffer.
  void ParseFrames(Conn* c);
  /// FlushOut, then ends the reply stage of every trace in c->replied
  /// and finishes it. False on a dead socket.
  bool FlushRound(Conn* c);
  /// Writes c->out as far as the socket accepts. False on a dead socket.
  bool FlushOut(Conn* c);
  bool Backpressured(const Conn* c) const {
    return c->out.size() - c->out_off >= kMaxWriteBuffer;
  }
  /// Re-arms epoll interest from the conn's buffer state, or closes it
  /// when nothing remains to do.
  void RearmOrClose(Conn* c);
  void CloseConn(Conn* c);

  wire::Reply Dispatch(wire::Request& req, obs::TraceContext* ctx);
  wire::Reply BuildStatsJsonReply();
  wire::Reply BuildHealthReply();
  void SamplerLoop();
  /// One sampler tick: per-shard queue depth, event rates (vs. the last
  /// tick), reject count, and stage p50/p99 into the series rings.
  void SampleOnce();

  ShardedFleet* fleet_;
  Config config_;
  std::unique_ptr<EventBus> bus_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
  std::unique_ptr<obs::TimeSeriesSet> series_;
  std::thread sampler_;
  /// Sampler state: last tick's stamp and per-shard applied-event
  /// counts, for events/sec deltas. Touched only by the sampler thread.
  uint64_t last_sample_ns_ = 0;
  std::vector<uint64_t> last_applied_events_;

  /// Per-server counters (see Counters).
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> accept_backoffs_{0};
  std::atomic<uint64_t> batch_frames_{0};
  std::atomic<uint64_t> batch_events_{0};
  /// Graceful-drain mode: accepts are off, served connections close after
  /// their owed replies flush (see Drain).
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> overloaded_{0};
  /// Atomic: Stop() retires the fd while workers read it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  int epoll_fd_ = -1;
  /// eventfd in the epoll set; Stop() writes it and never drains it, so
  /// every worker reaching epoll_wait sees it and exits.
  int wake_fd_ = -1;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};

  /// Live connections, fd → state. Insert/erase under conns_mu_; the
  /// pointed-to Conn is only ever touched by the one worker holding its
  /// ONESHOT readiness (or by Stop after the workers are joined).
  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
};

}  // namespace glint::fleet
