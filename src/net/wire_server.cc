#include "net/wire_server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "net/event_loop.h"

namespace asap {
namespace net {

namespace {

// Interest-list tags: listeners get fixed small tags, connections get
// a per-loop monotonically increasing tag starting past them.
constexpr uint64_t kTcpListenerTag = 1;
constexpr uint64_t kUdsListenerTag = 2;
constexpr uint64_t kFirstConnectionTag = 16;

// Per-loop decode-batch cap: a loop flushes its batch to the output
// queue at the end of every loop turn, or mid-turn once the batch
// holds this many records (bounds loop-local memory while a firehose
// connection is drained to EAGAIN).
constexpr size_t kLoopBatchRecords = 8192;

// Depth (in batches) of the decoded-output queue between the loops
// and PollOnce. A full queue blocks the loops — TCP backpressure to
// collectors — until the consumer drains.
constexpr size_t kQueueBatches = 32;

// recv() size per ready connection per read step.
constexpr size_t kReadChunkBytes = 64 * 1024;

// A loop mark over no open connection: no constraint on the minimum.
constexpr int64_t kNoConstraint = std::numeric_limits<int64_t>::max();

}  // namespace

struct WireServer::Core {
  // ---- one accepted connection, owned by exactly one loop ----------
  struct Connection {
    Connection(Socket s, stream::SeriesCatalog* catalog,
               const WireServerOptions& options)
        : sock(std::move(s)), decoder(catalog, options.max_frame_bytes) {
      decoder.set_stamp_clock(options.stamp_clock, options.stamp_ctx);
    }

    Socket sock;
    FrameDecoder decoder;
    /// Decoder counters already folded into the loop's atomics; the
    /// next fold adds only the delta. Lets stats() read atomics only —
    /// never a decoder a loop thread is concurrently mutating.
    DecoderStats folded;
    /// The connection's low mark as of its last Feed: the decoder's
    /// newest wire timestamp while the stream keeps its order
    /// (kNoLowMark while it has none), or kNoConstraint once the
    /// stream ended and no longer holds the loop's mark back.
    int64_t mark = stream::kNoLowMark;
  };

  /// A loop's low mark as of one flushed batch: the minimum mark over
  /// its open connections (kNoLowMark if one has none yet,
  /// kNoConstraint if none is open), and how many connections the loop
  /// had adopted in its lifetime when it took it.
  struct LoopMark {
    int64_t mark = kNoConstraint;
    uint64_t adopted = 0;
    bool operator==(const LoopMark& o) const {
      return mark == o.mark && adopted == o.adopted;
    }
  };

  /// One element of the output queue: a flushed batch and the mark of
  /// the loop that flushed it (loop == kNoLoop for a shutdown stray).
  static constexpr size_t kNoLoop = std::numeric_limits<size_t>::max();
  struct Published {
    std::unique_ptr<stream::RecordBatch> batch;
    size_t loop = kNoLoop;
    LoopMark mark;
  };

  // ---- per-loop instruments: asap_wire_*{loop="i"} -----------------
  // What used to be a private struct of relaxed atomics is now the
  // same relaxed-atomic writes on registry-owned instruments, so the
  // counters feed stats(), Prometheus exposition, and SelfScrapeSource
  // from one source of truth. Writes stay loop-thread-local and
  // batch-granular (FlushBatch / DrainConnection / accept path — never
  // per record).
  struct LoopCounters {
    std::shared_ptr<telemetry::Counter> wakeups;
    std::shared_ptr<telemetry::Counter> events;
    std::shared_ptr<telemetry::Counter> batches;
    std::shared_ptr<telemetry::Counter> batch_records;
    std::shared_ptr<telemetry::Counter> accepted;
    std::shared_ptr<telemetry::Counter> handoffs;
    /// Records every flushed batch's size (asap_wire_batch_size).
    std::shared_ptr<telemetry::LatencyHistogram> batch_size;
    /// Per-connection drain-to-EAGAIN decode latency.
    std::shared_ptr<telemetry::LatencyHistogram> decode_nanos;
    // Decode counters (deltas folded from connection decoders).
    std::shared_ptr<telemetry::Counter> bytes;
    std::shared_ptr<telemetry::Counter> records;
    std::shared_ptr<telemetry::Counter> text_records;
    std::shared_ptr<telemetry::Counter> binary_records;
    std::shared_ptr<telemetry::Counter> name_registrations;
    std::shared_ptr<telemetry::Counter> malformed_lines;
    std::shared_ptr<telemetry::Counter> malformed_frames;
    std::shared_ptr<telemetry::Counter> malformed_registrations;
    std::shared_ptr<telemetry::Counter> unknown_series_records;

    void Register(telemetry::MetricsRegistry* reg, size_t loop_id) {
      using Labels = std::vector<std::pair<std::string, std::string>>;
      const Labels labels = {{"loop", std::to_string(loop_id)}};
      wakeups = reg->GetCounter(
          {"asap_wire_wakeups_total",
           "epoll waits that delivered events or a wake", labels});
      events = reg->GetCounter(
          {"asap_wire_events_total", "Readiness events handled", labels});
      batches = reg->GetCounter(
          {"asap_wire_batches_total", "Decoded batches enqueued", labels});
      batch_records = reg->GetCounter(
          {"asap_wire_batch_records_total", "Records across those batches",
           labels});
      accepted = reg->GetCounter(
          {"asap_wire_accepted_total", "Connections this loop adopted",
           labels});
      handoffs = reg->GetCounter(
          {"asap_wire_handoffs_total",
           "Connections adopted via the fd-handoff mailbox", labels});
      batch_size = reg->GetHistogram(
          {"asap_wire_batch_size", "Records per flushed batch", labels});
      decode_nanos = reg->GetHistogram(
          {"asap_wire_decode_seconds",
           "Per-connection drain+decode latency", labels, 1e-9});
      bytes = reg->GetCounter(
          {"asap_wire_bytes_total", "Wire bytes consumed", labels});
      records = reg->GetCounter(
          {"asap_wire_records_total", "Records decoded (text + binary)",
           labels});
      text_records = reg->GetCounter(
          {"asap_wire_text_records_total", "Text records decoded", labels});
      binary_records = reg->GetCounter(
          {"asap_wire_binary_records_total", "Binary records decoded",
           labels});
      name_registrations = reg->GetCounter(
          {"asap_wire_name_registrations_total",
           "0xA6 name registrations applied", labels});
      malformed_lines = reg->GetCounter(
          {"asap_wire_malformed_lines_total", "Malformed text lines skipped",
           labels});
      malformed_frames = reg->GetCounter(
          {"asap_wire_malformed_frames_total",
           "Malformed binary frames (each poisons its connection)", labels});
      malformed_registrations = reg->GetCounter(
          {"asap_wire_malformed_registrations_total",
           "0xA6 frames skipped for an invalid name payload", labels});
      unknown_series_records = reg->GetCounter(
          {"asap_wire_unknown_series_total",
           "Binary records referencing an unregistered wire id", labels});
    }
  };

  struct Loop {
    explicit Loop(EventLoop e) : ev(std::move(e)) {}

    size_t id = 0;
    EventLoop ev;
    /// The listeners: valid on loop 0 only, which accepts for all.
    Socket tcp_listener;
    Socket uds_listener;
    /// Loop 0's round-robin cursor over loops for accepted sockets.
    size_t next_handoff = 0;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    uint64_t next_tag = kFirstConnectionTag;
    std::vector<char> read_buffer;
    /// The loop's fill batch, flushed to the output queue each turn
    /// (or mid-turn at kLoopBatchRecords).
    std::unique_ptr<stream::RecordBatch> batch;
    /// Tags of connections that hit EOF/error/poison this turn;
    /// retired only *after* the turn's flush so the consumer never
    /// observes active == 0 with their records still loop-local.
    std::vector<uint64_t> dead;
    LoopCounters counters;
    /// Connections ever handed to AdoptConnection (loop thread only).
    uint64_t adopted = 0;
    /// Open connections whose mark is none (loop thread only): while
    /// any exists the loop's mark is none, found in O(1).
    size_t unmarked = 0;
    /// The minimum mark over the loop's marked connections, valid
    /// unless `min_stale` (loop thread only). Marks only rise, so it
    /// goes stale only when the connection holding it moves on.
    int64_t min_mark = kNoConstraint;
    bool min_stale = false;
    /// The mark this loop last published (loop thread only).
    LoopMark published;
    /// Guarded by queue_mu: the mark of this loop's newest flush, its
    /// batches queued or partly handed out, and the mark that holds for
    /// what PollOnce has fully handed out (`latest` once `queued` is 0).
    LoopMark latest;
    size_t queued = 0;
    LoopMark delivered;

    /// fd-handoff mailbox: loop 0 pushes accepted sockets here, this
    /// loop adopts them at the top of its next turn (ev.Wake()-driven).
    std::mutex mail_mu;
    std::vector<Socket> mailbox;

    std::thread thread;
  };

  // ------------------------------------------------------------------
  WireServerOptions options;
  stream::SeriesCatalog* catalog = nullptr;
  uint16_t tcp_port = 0;
  std::vector<std::unique_ptr<Loop>> loops;

  /// Owns the private registry when options.metrics was null.
  std::shared_ptr<telemetry::MetricsRegistry> owned_metrics;
  telemetry::MetricsRegistry* metrics = nullptr;

  std::once_flag start_once;
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  std::atomic<bool> close_listeners{false};
  /// Only a path this server actually bound may be unlinked — a
  /// failed Create (e.g. the path exists and is not a socket) must
  /// leave the caller's file alone.
  bool uds_bound = false;
  std::atomic<bool> uds_unlinked{false};

  // Global connection accounting. `accepted` and `active` stay plain
  // atomics — they are control flow (the CAS connection cap,
  // ever_accepted()'s shutdown signal), so they must keep counting
  // even with the telemetry kill switch off. The rest are pure
  // observability and live as server-level registry instruments.
  std::atomic<uint64_t> accepted{0};
  std::atomic<size_t> active{0};
  std::shared_ptr<telemetry::Counter> rejected;
  std::shared_ptr<telemetry::Counter> accept_failures;
  std::shared_ptr<telemetry::Counter> poisoned;
  std::shared_ptr<telemetry::Gauge> active_gauge;

  // ---- decoded-output queue: loops produce, PollOnce consumes ------
  std::mutex queue_mu;
  std::condition_variable queue_not_empty;  // consumer side
  std::condition_variable queue_not_full;   // producer side
  std::deque<Published> queue;
  std::vector<std::unique_ptr<stream::RecordBatch>> free_batches;
  size_t queued_records = 0;
  bool consumer_wake = false;
  /// Loops joined; the queue holds the final drain and only shrinks.
  bool queue_stopped = false;
  /// Consumer-local partially delivered batch (guarded by queue_mu so
  /// pending_records() stays callable from anywhere).
  std::unique_ptr<stream::RecordBatch> delivering;
  size_t delivering_pos = 0;
  size_t delivering_loop = kNoLoop;
  LoopMark delivering_mark;
  /// The server's low mark as of the last PollOnce (consumer thread).
  int64_t low_mark = stream::kNoLowMark;

  // ------------------------------------------------------------------

  ~Core() { UnlinkUds(); }

  void UnlinkUds() {
    if (uds_bound && !uds_unlinked.exchange(true)) {
      ::unlink(options.uds_path.c_str());
    }
  }

  bool ReserveSlot() {
    size_t cur = active.load(std::memory_order_relaxed);
    while (cur < options.max_connections) {
      if (active.compare_exchange_weak(cur, cur + 1)) {
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<stream::RecordBatch> TakeFreeBatchLocked() {
    if (!free_batches.empty()) {
      auto batch = std::move(free_batches.back());
      free_batches.pop_back();
      return batch;
    }
    return std::make_unique<stream::RecordBatch>();
  }

  void RecycleBatchLocked(std::unique_ptr<stream::RecordBatch> batch) {
    batch->clear();
    if (free_batches.size() < kQueueBatches + loops.size()) {
      free_batches.push_back(std::move(batch));
    }
  }

  /// Adds decode counters accumulated since `before` into `lc`.
  static void FoldStats(const DecoderStats& s, const DecoderStats& before,
                        LoopCounters* lc) {
    const auto add = [](telemetry::Counter& c, uint64_t now, uint64_t prev) {
      if (now != prev) {
        c.Add(now - prev);
      }
    };
    add(*lc->bytes, s.bytes, before.bytes);
    add(*lc->records, s.records, before.records);
    add(*lc->text_records, s.text_records, before.text_records);
    add(*lc->binary_records, s.binary_records, before.binary_records);
    add(*lc->name_registrations, s.name_registrations,
        before.name_registrations);
    add(*lc->malformed_lines, s.malformed_lines, before.malformed_lines);
    add(*lc->malformed_frames, s.malformed_frames, before.malformed_frames);
    add(*lc->malformed_registrations, s.malformed_registrations,
        before.malformed_registrations);
    add(*lc->unknown_series_records, s.unknown_series_records,
        before.unknown_series_records);
  }

  /// Folds the delta since the last fold of `conn`'s decoder counters
  /// into `lc`. Must run on the loop thread that owns `conn`.
  static void FoldDelta(Connection* conn, LoopCounters* lc) {
    FoldStats(conn->decoder.stats(), conn->folded, lc);
    conn->folded = conn->decoder.stats();
  }

  /// Moves a connection's mark to `m`, keeping the loop's unmarked
  /// count and cached minimum in step.
  static void SetMark(Loop* l, Connection* conn, int64_t m) {
    const int64_t old = conn->mark;
    if (m == old) {
      return;
    }
    if (old == stream::kNoLowMark) {
      l->unmarked -= 1;
    }
    if (m == stream::kNoLowMark) {
      l->unmarked += 1;
    }
    if (old == l->min_mark) {
      l->min_stale = true;
    } else if (m != stream::kNoLowMark) {
      l->min_mark = std::min(l->min_mark, m);
    }
    conn->mark = m;
  }

  /// The loop's mark now: every record its connections decoded so far
  /// is in the batch being flushed or an earlier one, and none they
  /// decode later is older than this. O(1) unless the connection
  /// holding the minimum moved since the last call.
  static LoopMark CurrentMark(Loop* l) {
    LoopMark m;
    m.adopted = l->adopted;
    if (l->unmarked > 0) {
      m.mark = stream::kNoLowMark;
      return m;
    }
    if (l->min_stale) {
      l->min_mark = kNoConstraint;
      for (const auto& entry : l->conns) {
        l->min_mark = std::min(l->min_mark, entry.second->mark);
      }
      l->min_stale = false;
    }
    m.mark = l->min_mark;
    return m;
  }

  /// Hands the loop's batch, stamped with the loop's mark, to the
  /// output queue (FIFO — the ordering determinism parity rests on)
  /// and replaces it with a recycled one. A turn with no records but a
  /// moved mark (a connection was adopted or closed) only records the
  /// mark: it never takes a queue slot, so accepting connections can
  /// never block on a consumer that has not started polling. Blocks
  /// on a full queue: that stalls this loop's reads, which is TCP
  /// backpressure; during shutdown the cap is waived so the final
  /// drain can never deadlock against a sated consumer.
  void FlushBatch(Loop* l) {
    const LoopMark mark = CurrentMark(l);
    if (l->batch->empty()) {
      if (!(mark == l->published)) {
        l->published = mark;
        std::lock_guard<std::mutex> lk(queue_mu);
        l->latest = mark;
        if (l->queued == 0) {
          l->delivered = mark;
        }
      }
      return;
    }
    l->published = mark;
    const size_t n = l->batch->size();
    l->counters.batches->Increment();
    l->counters.batch_records->Add(n);
    l->counters.batch_size->Record(n);
    std::unique_lock<std::mutex> lk(queue_mu);
    queue_not_full.wait(lk, [&] {
      return queue.size() < kQueueBatches ||
             stopping.load(std::memory_order_acquire);
    });
    queue.push_back(Published{std::move(l->batch), l->id, mark});
    l->latest = mark;
    l->queued += 1;
    queued_records += n;
    l->batch = TakeFreeBatchLocked();
    queue_not_empty.notify_one();
  }

  /// Registers an accepted (slot-reserved) socket with this loop.
  void AdoptConnection(Loop* l, Socket sock, bool via_handoff) {
    l->adopted += 1;  // counted even if rejected below: it was accepted
    auto conn = std::make_unique<Connection>(std::move(sock), catalog,
                                             options);
    const uint64_t tag = l->next_tag++;
    if (!l->ev.Add(conn->sock.fd(), tag, /*edge_triggered=*/true).ok()) {
      rejected->Increment();
      active_gauge->Set(static_cast<double>(active.fetch_sub(1) - 1));
      return;
    }
    l->unmarked += 1;
    l->counters.accepted->Increment();
    if (via_handoff) {
      l->counters.handoffs->Increment();
    }
    active_gauge->Set(static_cast<double>(active.load(std::memory_order_relaxed)));
    l->conns.emplace(tag, std::move(conn));
    // Bytes that raced in before the epoll ADD are not lost: ADD
    // reports an initial readiness edge for an already-readable fd.
  }

  /// Accepts everything a listener's backlog holds right now (loop 0
  /// only) and round-robins the new sockets across the loops.
  void AcceptAll(Loop* l, const Socket& listener, bool is_tcp) {
    for (;;) {
      Socket sock;
      switch (AcceptNonBlocking(listener, &sock)) {
        case AcceptStatus::kRetry:
          continue;
        case AcceptStatus::kWouldBlock:
          return;
        case AcceptStatus::kError:
          accept_failures->Increment();
          // The un-accepted connection keeps the (level-triggered)
          // listener readable; sleep so the loop backs off instead of
          // spinning until fd pressure clears.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return;
        case AcceptStatus::kAccepted:
          break;
      }
      if (!ReserveSlot()) {
        rejected->Increment();
        continue;  // sock closes on scope exit
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
      if (is_tcp) {
        (void)sock.SetTcpNoDelay();  // advisory; never worth a drop
      }
      // Once stopping, peer loops may have exited their final adopt —
      // a mailboxed fd would strand, so the acceptor keeps it.
      size_t target = l->id;
      if (!stopping.load(std::memory_order_acquire)) {
        target = l->next_handoff;
        l->next_handoff = (target + 1) % loops.size();
      }
      if (target == l->id) {
        AdoptConnection(l, std::move(sock), /*via_handoff=*/false);
        continue;
      }
      Loop* t = loops[target].get();
      {
        std::lock_guard<std::mutex> lk(t->mail_mu);
        t->mailbox.push_back(std::move(sock));
      }
      t->ev.Wake();
    }
  }

  void AdoptMailbox(Loop* l) {
    std::vector<Socket> incoming;
    {
      std::lock_guard<std::mutex> lk(l->mail_mu);
      incoming.swap(l->mailbox);
    }
    for (Socket& sock : incoming) {
      AdoptConnection(l, std::move(sock), /*via_handoff=*/true);
    }
  }

  /// Drains one connection to EAGAIN/EOF/error, decoding into the
  /// loop's batch (mid-drain flush at kLoopBatchRecords). Marks the
  /// connection dead (into l->dead) when the stream ended.
  void DrainConnection(Loop* l, uint64_t tag, Connection* conn) {
    telemetry::ScopedTimer decode_timer(l->counters.decode_nanos.get());
    bool dead = false;
    for (;;) {
      if (l->batch->size() >= kLoopBatchRecords) {
        FlushBatch(l);
      }
      size_t n = 0;
      const RecvStatus rs = RecvSome(conn->sock.fd(), l->read_buffer.data(),
                                     l->read_buffer.size(), &n);
      if (rs == RecvStatus::kData) {
        if (!conn->decoder.Feed(l->read_buffer.data(), n, l->batch.get())) {
          poisoned->Increment();
          dead = true;
          break;
        }
        SetMark(l, conn, conn->decoder.low_mark());  // once per Feed
        continue;
      }
      if (rs == RecvStatus::kWouldBlock) {
        break;  // edge drained; epoll re-arms on new bytes
      }
      if (rs == RecvStatus::kEof) {
        // Orderly close: a complete trailing text line still counts.
        conn->decoder.FinishEof(l->batch.get());
      } else {
        // Reset mid-stream: a buffered partial line could parse as a
        // valid-but-wrong record — discard as malformed instead.
        conn->decoder.AbandonEof();
      }
      dead = true;
      break;
    }
    FoldDelta(conn, &l->counters);
    if (dead) {
      // It sends nothing more, so it no longer holds the mark back.
      SetMark(l, conn, kNoConstraint);
      l->dead.push_back(tag);
    }
  }

  /// Erases this turn's dead connections. Runs after FlushBatch: their
  /// records are already published to the queue, so active never drops
  /// to 0 ahead of the bytes that connection delivered.
  void RetireDead(Loop* l) {
    for (const uint64_t tag : l->dead) {
      auto it = l->conns.find(tag);
      if (it == l->conns.end()) {
        continue;
      }
      (void)l->ev.Remove(it->second->sock.fd());
      l->conns.erase(it);
      active_gauge->Set(static_cast<double>(active.fetch_sub(1) - 1));
    }
    l->dead.clear();
  }

  void CloseOwnListeners(Loop* l) {
    if (l->tcp_listener.valid()) {
      (void)l->ev.Remove(l->tcp_listener.fd());
      l->tcp_listener.Close();
    }
    if (l->uds_listener.valid()) {
      (void)l->ev.Remove(l->uds_listener.fd());
      l->uds_listener.Close();
      UnlinkUds();
    }
  }

  /// The shutdown pass: adopt any last handoffs, accept what the
  /// backlogs already hold, read every connection to EAGAIN/EOF and
  /// flush — the drain-on-shutdown guarantee — then release
  /// everything this loop owns.
  void FinalDrain(Loop* l) {
    AdoptMailbox(l);
    if (l->tcp_listener.valid()) {
      AcceptAll(l, l->tcp_listener, /*is_tcp=*/true);
    }
    if (l->uds_listener.valid()) {
      AcceptAll(l, l->uds_listener, /*is_tcp=*/false);
    }
    for (auto& entry : l->conns) {
      DrainConnection(l, entry.first, entry.second.get());
    }
    FlushBatch(l);
    RetireDead(l);
    // Connections still open just lose their peer; any buffered
    // partial frame is abandoned (counted malformed), never parsed.
    for (auto& entry : l->conns) {
      entry.second->decoder.AbandonEof();
      FoldDelta(entry.second.get(), &l->counters);
      active_gauge->Set(static_cast<double>(active.fetch_sub(1) - 1));
    }
    l->conns.clear();
    CloseOwnListeners(l);
  }

  void RunLoop(Loop* l) {
    std::vector<EventLoop::Event> events;
    for (;;) {
      const bool stop_now = stopping.load(std::memory_order_acquire);
      bool woken = false;
      const size_t n = l->ev.Wait(stop_now ? 0 : -1, &events, &woken);
      if (n > 0 || woken) {
        l->counters.wakeups->Increment();
        l->counters.events->Add(n);
      }
      AdoptMailbox(l);
      if (close_listeners.load(std::memory_order_acquire)) {
        CloseOwnListeners(l);
      }
      for (const EventLoop::Event& ev : events) {
        if (ev.tag == kTcpListenerTag) {
          if (l->tcp_listener.valid()) {
            AcceptAll(l, l->tcp_listener, /*is_tcp=*/true);
          }
        } else if (ev.tag == kUdsListenerTag) {
          if (l->uds_listener.valid()) {
            AcceptAll(l, l->uds_listener, /*is_tcp=*/false);
          }
        } else {
          auto it = l->conns.find(ev.tag);
          if (it != l->conns.end()) {
            DrainConnection(l, it->first, it->second.get());
          }
        }
      }
      // Turn order matters: flush (publish records), then retire
      // (decrement active) — the consumer-side drain check reads them
      // in the opposite order and must never see both empty early.
      FlushBatch(l);
      RetireDead(l);
      if (stop_now) {
        FinalDrain(l);
        return;
      }
    }
  }

  void Start() {
    std::call_once(start_once, [this] {
      for (auto& loop : loops) {
        Loop* l = loop.get();
        l->thread = std::thread([this, l] { RunLoop(l); });
      }
      started.store(true, std::memory_order_release);
    });
  }

  /// Reads a socket that was mailboxed to a loop that had already
  /// passed its final adopt (the one shutdown race fd handoff has);
  /// runs on the Stop() thread after every loop has joined.
  void DrainStray(Socket sock) {
    FrameDecoder decoder(catalog, options.max_frame_bytes);
    decoder.set_stamp_clock(options.stamp_clock, options.stamp_ctx);
    stream::RecordBatch batch;
    std::vector<char> buf(kReadChunkBytes);
    for (;;) {
      size_t n = 0;
      const RecvStatus rs = RecvSome(sock.fd(), buf.data(), buf.size(), &n);
      if (rs == RecvStatus::kData) {
        if (!decoder.Feed(buf.data(), n, &batch)) {
          poisoned->Increment();
          break;
        }
        continue;
      }
      if (rs == RecvStatus::kEof) {
        decoder.FinishEof(&batch);
      } else {
        decoder.AbandonEof();
      }
      break;
    }
    // Fold the stray's counters into loop 0 (its acceptor).
    FoldStats(decoder.stats(), DecoderStats{}, &loops[0]->counters);
    active_gauge->Set(static_cast<double>(active.fetch_sub(1) - 1));
    if (batch.empty()) {
      return;
    }
    std::lock_guard<std::mutex> lk(queue_mu);
    queued_records += batch.size();
    queue.push_back(Published{
        std::make_unique<stream::RecordBatch>(std::move(batch)), kNoLoop, {}});
  }

  /// Records that PollOnce has handed out the whole of a batch: its
  /// loop's mark now holds for everything that loop delivers later,
  /// and the loop's newest mark does once none of its batches is left.
  void DeliveredLocked() {
    if (delivering_loop != kNoLoop) {
      Loop* l = loops[delivering_loop].get();
      l->queued -= 1;
      l->delivered = l->queued == 0 ? l->latest : delivering_mark;
    }
  }

  /// The server mark: the minimum over the loops' delivered marks,
  /// none (kNoLowMark) while some accepted connection is not yet
  /// covered by one — the window between loop 0's accept and the
  /// owning loop's next flush — or while no connection is open.
  void UpdateLowMarkLocked() {
    uint64_t adopted = 0;
    int64_t mark = kNoConstraint;
    for (const auto& l : loops) {
      adopted += l->delivered.adopted;
      mark = std::min(mark, l->delivered.mark);
    }
    low_mark = adopted < accepted.load(std::memory_order_acquire) ||
                       mark == kNoConstraint
                   ? stream::kNoLowMark
                   : mark;
  }

  void Stop() {
    if (stopped.exchange(true)) {
      return;
    }
    if (!started.load(std::memory_order_acquire)) {
      // Never polled: no loops to drain. Release the listeners so the
      // port/path free immediately.
      CloseOwnListeners(loops[0].get());
      std::lock_guard<std::mutex> lk(queue_mu);
      queue_stopped = true;
      queue_not_empty.notify_all();
      return;
    }
    stopping.store(true, std::memory_order_release);
    for (auto& l : loops) {
      l->ev.Wake();
    }
    queue_not_full.notify_all();  // release any loop mid-FlushBatch
    for (auto& l : loops) {
      if (l->thread.joinable()) {
        l->thread.join();
      }
    }
    // Post-join mailbox sweep: adopt-before-exit can race a push.
    for (auto& l : loops) {
      std::vector<Socket> strays;
      {
        std::lock_guard<std::mutex> lk(l->mail_mu);
        strays.swap(l->mailbox);
      }
      for (Socket& sock : strays) {
        DrainStray(std::move(sock));
      }
    }
    UnlinkUds();
    std::lock_guard<std::mutex> lk(queue_mu);
    queue_stopped = true;
    queue_not_empty.notify_all();
  }
};

// ---------------------------------------------------------------------
// WireServer: thin handle over Core.

WireServer::WireServer(std::unique_ptr<Core> core) : core_(std::move(core)) {}

WireServer::~WireServer() {
  if (core_ != nullptr) {
    core_->Stop();
  }
}

WireServer::WireServer(WireServer&&) noexcept = default;

WireServer& WireServer::operator=(WireServer&& other) noexcept {
  if (this != &other) {
    if (core_ != nullptr) {
      core_->Stop();
    }
    core_ = std::move(other.core_);
  }
  return *this;
}

Result<WireServer> WireServer::Create(const WireServerOptions& options,
                                      stream::SeriesCatalog* catalog) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("a series catalog is required");
  }
  if (!options.enable_tcp && options.uds_path.empty()) {
    return Status::InvalidArgument(
        "at least one of TCP and UDS must be enabled");
  }
  if (options.max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.max_frame_bytes < kBinaryHeaderBytes + kBinaryRecordBytes) {
    // Checked here so a bad bound is an InvalidArgument at Create, not
    // a FrameDecoder ASAP_CHECK abort at first accept.
    return Status::InvalidArgument(
        "max_frame_bytes must fit at least one binary record");
  }
  if (options.num_event_loops < 1) {
    return Status::InvalidArgument("num_event_loops must be >= 1");
  }

  auto core = std::make_unique<Core>();
  core->options = options;
  core->catalog = catalog;
  if (options.metrics != nullptr) {
    core->metrics = options.metrics;
  } else {
    core->owned_metrics = std::make_shared<telemetry::MetricsRegistry>();
    core->metrics = core->owned_metrics.get();
  }
  core->rejected = core->metrics->GetCounter(
      {"asap_wire_rejected_total",
       "Connections accepted but immediately closed"});
  core->accept_failures = core->metrics->GetCounter(
      {"asap_wire_accept_failures_total", "accept() hard errors"});
  core->poisoned = core->metrics->GetCounter(
      {"asap_wire_poisoned_total",
       "Connections dropped for corrupt binary framing"});
  core->active_gauge = core->metrics->GetGauge(
      {"asap_wire_connections_active", "Connections currently open"});
  for (size_t i = 0; i < options.num_event_loops; ++i) {
    ASAP_ASSIGN_OR_RETURN(EventLoop ev, EventLoop::Create());
    core->loops.push_back(std::make_unique<Core::Loop>(std::move(ev)));
    Core::Loop* l = core->loops.back().get();
    l->id = i;
    l->read_buffer.resize(kReadChunkBytes);
    l->batch = std::make_unique<stream::RecordBatch>();
    l->counters.Register(core->metrics, i);
  }

  // Loop 0 owns the listeners, registered level-triggered: a backlog
  // one turn could not fully accept (connection cap, fd pressure)
  // re-arms on the next wait.
  Core::Loop* acceptor = core->loops[0].get();
  if (options.enable_tcp) {
    ASAP_ASSIGN_OR_RETURN(
        Socket tcp,
        ListenTcp(options.tcp_host, options.tcp_port, options.listen_backlog));
    ASAP_RETURN_NOT_OK(tcp.SetNonBlocking());
    ASAP_ASSIGN_OR_RETURN(core->tcp_port, LocalPort(tcp));
    ASAP_RETURN_NOT_OK(
        acceptor->ev.Add(tcp.fd(), kTcpListenerTag, /*edge_triggered=*/false));
    acceptor->tcp_listener = std::move(tcp);
  }
  if (!options.uds_path.empty()) {
    ASAP_ASSIGN_OR_RETURN(
        Socket uds, ListenUds(options.uds_path, options.listen_backlog));
    core->uds_bound = true;
    ASAP_RETURN_NOT_OK(uds.SetNonBlocking());
    ASAP_RETURN_NOT_OK(
        acceptor->ev.Add(uds.fd(), kUdsListenerTag, /*edge_triggered=*/false));
    acceptor->uds_listener = std::move(uds);
  }
  return WireServer(std::move(core));
}

uint16_t WireServer::tcp_port() const { return core_->tcp_port; }

const std::string& WireServer::uds_path() const {
  return core_->options.uds_path;
}

void WireServer::Start() { core_->Start(); }

void WireServer::Stop() { core_->Stop(); }

void WireServer::Wake() {
  std::lock_guard<std::mutex> lk(core_->queue_mu);
  core_->consumer_wake = true;
  core_->queue_not_empty.notify_all();
}

bool WireServer::ever_accepted() const {
  return core_->accepted.load(std::memory_order_acquire) > 0;
}

size_t WireServer::active_connections() const {
  return core_->active.load(std::memory_order_acquire);
}

size_t WireServer::pending_records() const {
  std::lock_guard<std::mutex> lk(core_->queue_mu);
  size_t n = core_->queued_records;
  if (core_->delivering != nullptr) {
    n += core_->delivering->size() - core_->delivering_pos;
  }
  return n;
}

void WireServer::CloseListeners() {
  if (!core_->started.load(std::memory_order_acquire)) {
    core_->CloseOwnListeners(core_->loops[0].get());
    return;
  }
  core_->close_listeners.store(true, std::memory_order_release);
  core_->loops[0]->ev.Wake();
}

size_t WireServer::PollOnce(int timeout_ms, size_t max_records,
                            stream::RecordBatch* out) {
  ASAP_CHECK(out != nullptr);
  ASAP_CHECK_GE(max_records, 1u);
  Core* c = core_.get();
  c->Start();
  std::unique_lock<std::mutex> lk(c->queue_mu);
  const auto has_work = [c] {
    return (c->delivering != nullptr &&
            c->delivering_pos < c->delivering->size()) ||
           !c->queue.empty() || c->consumer_wake || c->queue_stopped;
  };
  if (!has_work()) {
    if (timeout_ms < 0) {
      c->queue_not_empty.wait(lk, has_work);
    } else {
      c->queue_not_empty.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                                  has_work);
    }
  }
  c->consumer_wake = false;
  size_t delivered = 0;
  while (delivered < max_records) {
    if (c->delivering == nullptr ||
        c->delivering_pos >= c->delivering->size()) {
      if (c->delivering != nullptr) {
        c->RecycleBatchLocked(std::move(c->delivering));
      }
      if (c->queue.empty()) {
        break;
      }
      Core::Published& front = c->queue.front();
      c->delivering = std::move(front.batch);
      c->delivering_loop = front.loop;
      c->delivering_mark = front.mark;
      c->queue.pop_front();
      c->queued_records -= c->delivering->size();
      c->delivering_pos = 0;
      c->queue_not_full.notify_all();
      // Zero-copy fast path: a consumer that arrives with an empty
      // batch and room for this whole one takes it by swap, so bulk
      // ingest moves each record exactly once end to end. The swapped-
      // in (empty) batch is recycled on the next loop iteration.
      if (out->empty() && c->delivering->size() <= max_records) {
        out->swap(*c->delivering);
        delivered = out->size();
        c->DeliveredLocked();
        continue;
      }
    }
    const size_t take = std::min(max_records - delivered,
                                 c->delivering->size() - c->delivering_pos);
    out->insert(
        out->end(),
        c->delivering->begin() + static_cast<ptrdiff_t>(c->delivering_pos),
        c->delivering->begin() +
            static_cast<ptrdiff_t>(c->delivering_pos + take));
    c->delivering_pos += take;
    delivered += take;
    if (c->delivering_pos == c->delivering->size()) {
      c->DeliveredLocked();
    }
  }
  c->UpdateLowMarkLocked();
  return delivered;
}

int64_t WireServer::low_mark() const {
  // Written only by PollOnce, on this same consumer thread.
  return core_->low_mark;
}

WireServerStats WireServer::stats() const {
  const Core* c = core_.get();
  WireServerStats s;
  s.accepted = c->accepted.load(std::memory_order_relaxed);
  s.active = c->active.load(std::memory_order_relaxed);
  s.rejected_connections = c->rejected->Value();
  s.accept_failures = c->accept_failures->Value();
  s.poisoned_connections = c->poisoned->Value();
  s.per_loop.reserve(c->loops.size());
  for (const auto& l : c->loops) {
    const Core::LoopCounters& lc = l->counters;
    WireLoopStats ls;
    ls.wakeups = lc.wakeups->Value();
    ls.events = lc.events->Value();
    ls.batches = lc.batches->Value();
    ls.batch_records = lc.batch_records->Value();
    ls.accepted = lc.accepted->Value();
    ls.handoffs = lc.handoffs->Value();
    s.wakeups += ls.wakeups;
    s.events += ls.events;
    s.batches += ls.batches;
    s.bytes += lc.bytes->Value();
    s.records += lc.records->Value();
    s.text_records += lc.text_records->Value();
    s.binary_records += lc.binary_records->Value();
    s.name_registrations += lc.name_registrations->Value();
    s.malformed_lines += lc.malformed_lines->Value();
    s.malformed_frames += lc.malformed_frames->Value();
    s.malformed_registrations += lc.malformed_registrations->Value();
    s.unknown_series_records += lc.unknown_series_records->Value();
    s.per_loop.push_back(ls);
  }
  return s;
}

telemetry::MetricsRegistry* WireServer::metrics() const {
  return core_->metrics;
}

}  // namespace net
}  // namespace asap
