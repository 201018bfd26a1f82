// WireServer: the ingestion front door of the fleet engine, in the
// mold of Akumuli's akumulid server tier sitting in front of the
// storage engine — rearchitected from one poll() loop to a multi-loop
// epoll tier.
//
// Topology: N decoder loops (WireServerOptions::num_event_loops), each
// a thread owning one epoll EventLoop with a persistent interest list.
// Loop 0 owns the listeners (TCP and UDS alike): it accepts and hands
// each new socket to a loop round-robin (itself included) through
// that loop's mailbox + eventfd wake. Collectors hold long-lived
// connections, so one acceptor is never the bottleneck. A connection
// then lives and dies on its loop: its FrameDecoder is touched by that
// loop's thread only, so decoding stays lock-free. Each loop drains
// readable sockets edge-triggered into one reused RecordBatch and
// enqueues it once per loop turn (per-loop decode batching) into a
// bounded queue that PollOnce — still pumped by the engine's producer
// thread via NetMultiSource — drains. A full queue blocks the loops,
// which stops their reads, which backpressures collectors through
// TCP; the engine-side overflow policies (block / drop-newest /
// conflate) apply downstream at the shard queues, unchanged.
//
// Ordering: one connection = one loop = one decoder, batches enter the
// queue in decode order, and the queue is FIFO — so each connection's
// records reach the engine in wire order no matter how many loops run,
// which is the property determinism parity rests on.
//
// Low marks: a timed connection (0xA7 frames, three-token text lines)
// should send non-decreasing timestamps, so its newest decoded
// timestamp is a *low mark*: nothing older follows on it. The decoder
// checks that promise record by record; a connection that breaks it
// (or sends a server-stamped record) has no mark from then on, which
// leaves release to the horizon again. Its records older than what
// its earlier mark already released are late. Each loop stamps every
// batch it flushes with the minimum over its open connections (none
// while one of them has no mark), and PollOnce turns
// the marks of the batches it has fully handed out into the server's
// low_mark(): the minimum over loops, none until every accepted
// connection is covered. NetMultiSource carries it in-band to the
// engine, whose sequencers release everything older at once instead
// of waiting out their horizon. Server-stamped records never set a
// mark, so untimed collectors leave release to the horizon.
//
// Malformed input is a per-connection affair: bad text lines are
// counted and skipped; a corrupt binary frame drops (and counts) that
// one connection. The server itself never dies on input.

#ifndef ASAP_NET_WIRE_SERVER_H_
#define ASAP_NET_WIRE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "stream/catalog.h"
#include "stream/record.h"
#include "telemetry/metrics.h"

namespace asap {
namespace net {

struct WireServerOptions {
  /// Listen on TCP at tcp_host:tcp_port. Port 0 binds an ephemeral
  /// port; read the real one back with WireServer::tcp_port().
  bool enable_tcp = true;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;

  /// Also (or instead) listen on this Unix-domain socket path; empty
  /// disables UDS. At least one listener must be enabled.
  std::string uds_path;

  /// Decoder event-loop threads. Each loop owns an epoll instance and
  /// the connections loop 0 handed it; loop 0 also owns the
  /// listeners. 1 reproduces the old single-loop topology on epoll.
  size_t num_event_loops = 1;

  /// Connections beyond this (across all loops) are accepted and
  /// immediately closed (counted in stats().rejected_connections).
  size_t max_connections = 64;

  /// Frame bound handed to each connection's FrameDecoder.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Server-stamp clock installed on every connection's decoder:
  /// records arriving without a wire timestamp (two-token text lines,
  /// 0xA5 frames) get Record::ts = stamp_clock(stamp_ctx) at decode
  /// time. Timestamped wire input (three-token lines, 0xA7 frames) is
  /// never re-stamped. Null (the default) stamps 0 — fully
  /// deterministic, and what the pre-timestamp tests assume. Called
  /// from event-loop threads; must be thread-safe.
  FrameDecoder::StampClock stamp_clock = nullptr;
  void* stamp_ctx = nullptr;

  int listen_backlog = 128;

  /// Registry the server's asap_wire_* instruments register in. Null
  /// (the default) gives the server a private registry — exact
  /// per-instance counts, reachable via metrics(). Inject the engine's
  /// (ShardedEngine::metrics()) to scrape wire + shard + query
  /// instruments from one surface. Must outlive the server.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Per-event-loop counters (one entry per loop in
/// WireServerStats::per_loop). Backed by asap_wire_* registry
/// instruments (per-thread-sharded relaxed atomics, labelled
/// loop="i"); stats() folds them lock-free. The same numbers are
/// scrapeable via telemetry::RenderPrometheus(*server.metrics()).
struct WireLoopStats {
  /// epoll_wait returns that delivered at least one event or a wake.
  uint64_t wakeups = 0;
  /// Readiness events handled (events / wakeups is the batching
  /// ratio the connection-scaling bench reports).
  uint64_t events = 0;
  /// Decoded batches enqueued to the output queue.
  uint64_t batches = 0;
  /// Records across those batches.
  uint64_t batch_records = 0;
  /// Connections this loop owns/owned: its round-robin share of
  /// loop 0's accepts.
  uint64_t accepted = 0;
  /// Of those, connections adopted via the fd-handoff mailbox (all of
  /// them on loops != 0; 0 on loop 0, which keeps its share directly).
  uint64_t handoffs = 0;
};

/// Lifetime ingest counters (aggregated over closed connections too).
struct WireServerStats {
  /// Connections accepted (lifetime).
  uint64_t accepted = 0;
  /// Connections currently open.
  size_t active = 0;
  /// Connections accepted but immediately closed: over max_connections
  /// or a failed non-blocking setup.
  uint64_t rejected_connections = 0;
  /// accept() calls that failed with a hard error (e.g. EMFILE); each
  /// also makes the accepting loop back off briefly instead of
  /// spinning on the still-readable listener.
  uint64_t accept_failures = 0;
  /// Connections dropped for corrupt binary framing.
  uint64_t poisoned_connections = 0;
  /// Wire bytes consumed.
  uint64_t bytes = 0;
  /// Records decoded (text + binary).
  uint64_t records = 0;
  uint64_t text_records = 0;
  uint64_t binary_records = 0;
  /// Name registrations applied across all connections (0xA6 frames).
  uint64_t name_registrations = 0;
  /// Malformed text lines skipped across all connections.
  uint64_t malformed_lines = 0;
  /// Malformed binary frames (each also poisons its connection).
  uint64_t malformed_frames = 0;
  /// 0xA6 frames skipped for an invalid name payload.
  uint64_t malformed_registrations = 0;
  /// Binary records skipped for referencing an unregistered wire id.
  uint64_t unknown_series_records = 0;

  /// Sums of the per-loop counters below.
  uint64_t wakeups = 0;
  uint64_t events = 0;
  uint64_t batches = 0;

  /// One entry per event loop, index == loop id.
  std::vector<WireLoopStats> per_loop;
};

/// The multi-loop epoll ingestion server. Listeners are bound at Create
/// (collectors can connect immediately; the backlog holds them); the
/// loop threads start at Start(), or lazily on the first PollOnce.
///
/// Thread contract: PollOnce / Start / Stop / pending_records /
/// low_mark belong to one consumer thread (the engine's producer, via
/// NetMultiSource).
/// Wake(), stats(), active_connections(), ever_accepted() and
/// tcp_port() are safe from any thread.
class WireServer {
 public:
  /// `catalog` is the fleet's name table (normally the engine's,
  /// via ShardedEngine::catalog()): every connection's decoder interns
  /// incoming series names through it, so decoded records carry
  /// catalog ids. Borrowed; must outlive the server. The catalog's own
  /// locking makes concurrent interning from N loops safe.
  static Result<WireServer> Create(const WireServerOptions& options,
                                   stream::SeriesCatalog* catalog);
  /// Stops and joins the loops (final-drain semantics, see Stop()).
  ~WireServer();

  WireServer(WireServer&&) noexcept;
  WireServer& operator=(WireServer&&) noexcept;

  /// The bound TCP port (resolves an ephemeral request), 0 if TCP is
  /// disabled.
  uint16_t tcp_port() const;
  const std::string& uds_path() const;

  /// Spawns the event-loop threads. Idempotent; PollOnce calls it
  /// lazily, so explicit Start is only for callers that want accepts
  /// flowing before their first poll.
  void Start();

  /// One consumer turn: delivers up to `max_records` already-decoded
  /// records into *out, waiting up to `timeout_ms` for the loops to
  /// produce some if none are queued (returning immediately when
  /// records are pending, on Wake(), or once the server is stopped
  /// and drained). Returns the number appended. 0 means an idle (or
  /// woken, or stopped-and-drained) turn — it never means
  /// end-of-stream; connection state is exposed separately so the
  /// caller owns the shutdown policy.
  size_t PollOnce(int timeout_ms, size_t max_records,
                  stream::RecordBatch* out);

  /// The server's low mark as of the last PollOnce: no record older
  /// than it will be handed out later by any connection open now or
  /// accepted so far. stream::kNoLowMark while a connection has not
  /// sent a timed record yet, while a freshly accepted connection is
  /// not covered by its loop's mark, or while none is open. A
  /// collector that connects later with older timestamps is the one
  /// exception the mark cannot see.
  int64_t low_mark() const;

  /// Stops the loops and joins them. Shutdown drains: loop 0 accepts
  /// whatever the listener backlogs already hold, every loop reads each
  /// of its connections to EAGAIN/EOF, decodes, and enqueues — so all
  /// bytes the server had received are deliverable through PollOnce
  /// after Stop returns (the drain-on-shutdown guarantee). Idempotent.
  void Stop();

  /// Wakes a PollOnce blocked in its idle wait (it returns 0 early).
  /// The cross-thread shutdown nudge NetMultiSource::Stop uses — no
  /// stop-flag-vs-poll race: the wakeup is an event, not a flag read.
  void Wake();

  /// True once any connection has ever been accepted.
  bool ever_accepted() const;
  size_t active_connections() const;
  /// Decoded records not yet handed out via PollOnce (queued batches
  /// plus the consumer's partially delivered one).
  size_t pending_records() const;

  /// Aggregate counters: per-loop registry instruments folded
  /// lock-free, plus retired connections' totals. Note the counters
  /// freeze while telemetry::SetTelemetryEnabled(false) is in effect.
  WireServerStats stats() const;

  /// The registry holding this server's asap_wire_* instruments: the
  /// injected WireServerOptions::metrics, or the server-private one.
  telemetry::MetricsRegistry* metrics() const;

  /// Asks loop 0 to close the listeners (existing connections keep
  /// draining); takes effect on its next turn.
  void CloseListeners();

 private:
  struct Core;

  explicit WireServer(std::unique_ptr<Core> core);

  std::unique_ptr<Core> core_;
};

}  // namespace net
}  // namespace asap

#endif  // ASAP_NET_WIRE_SERVER_H_
