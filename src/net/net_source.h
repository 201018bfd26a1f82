// NetMultiSource: adapts a WireServer into the fleet engine's
// MultiSource contract, so ShardedEngine::RunToCompletion/RunForBudget
// can drive a live socket exactly like any in-process source. Each
// NextBatch pumps the server's poll loop — the engine's producer
// thread is the event loop; no intermediate thread or queue sits
// between the socket and the shard queues.
//
// Ordering: TCP/UDS byte streams are ordered and FrameDecoder emits
// records in wire order, so each connection's per-series record order
// is preserved end-to-end — the property determinism parity rests on.
//
// Low marks: whenever the server's low mark (WireServer::low_mark)
// has advanced, NextBatch appends the in-band control record
// {stream::kLowMarkId, 0.0, mark} after the batch's data records, per
// the MultiSource contract; the return value still counts data
// records only. Timed collectors thereby let the engine's sequencers
// release without waiting out the horizon; untimed ones produce no
// mark and cost one comparison per batch.
//
// Naming: the records this source emits carry ids from the catalog
// the WireServer was created against (normally the engine's own, via
// ShardedEngine::catalog()) — build the server against the engine's
// catalog and the wire names resolve through FleetView like any
// in-process series.

#ifndef ASAP_NET_NET_SOURCE_H_
#define ASAP_NET_NET_SOURCE_H_

#include <atomic>

#include "net/wire_server.h"
#include "stream/source.h"

namespace asap {
namespace net {

struct NetMultiSourceOptions {
  /// Upper bound on one idle poll wait; bounds how quickly NextBatch
  /// notices Stop() and connection-drain exhaustion.
  int poll_timeout_ms = 50;

  /// When true (replay/test topology), NextBatch reports exhaustion
  /// once at least one connection has been accepted and all
  /// connections have since closed with no records left to deliver —
  /// "the replay ended". Long-lived servers set false and end runs
  /// with Stop(), idle_timeout_ms, or RunForBudget; note the drain
  /// check cannot tell "all collectors done" from "between two
  /// collectors", so replay topologies should overlap or pre-open
  /// their connections.
  bool exit_when_drained = true;

  /// > 0: NextBatch also reports exhaustion after this much
  /// continuous idle time (no records delivered), regardless of
  /// connection state. 0 waits forever. Set this for RunForBudget
  /// over a socket that may go quiet: the engine checks its budget
  /// only between batches, so an unbounded idle wait inside NextBatch
  /// would otherwise stall the run past its budget indefinitely.
  int idle_timeout_ms = 0;
};

/// MultiSource over a live WireServer. Not thread-safe except Stop().
class NetMultiSource : public stream::MultiSource {
 public:
  /// `server` is borrowed and must outlive this source.
  explicit NetMultiSource(WireServer* server,
                          NetMultiSourceOptions options = {});

  /// Blocks (in poll_timeout_ms turns) until records arrive, Stop()
  /// is called, the drain condition holds, or idle_timeout_ms of
  /// continuous idleness elapses; 0 = exhausted. A mark that advances
  /// rides with the next batch of data records.
  size_t NextBatch(size_t max_records, stream::RecordBatch* out) override;

  /// Unbounded: a socket cannot know its total in advance.
  size_t TotalPoints() const override { return 0; }

  /// Makes the next NextBatch turn return 0 (exhausted). Safe to call
  /// from any thread — this is the one cross-thread entry point. Also
  /// wakes the server's poll wait, so a NextBatch blocked idle returns
  /// promptly instead of after its poll timeout: the wakeup is an
  /// event the wait consumes, not a flag it might check too early.
  void Stop() {
    stop_.store(true, std::memory_order_release);
    server_->Wake();
  }
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  WireServer* server() const { return server_; }

 private:
  WireServer* server_;
  NetMultiSourceOptions options_;
  /// The last low mark appended to a batch.
  int64_t last_mark_ = stream::kNoLowMark;
  std::atomic<bool> stop_{false};
};

}  // namespace net
}  // namespace asap

#endif  // ASAP_NET_NET_SOURCE_H_
