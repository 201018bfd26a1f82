// Per-shard reordering sequencer, in the mold of Akumuli's ingestion
// sequencer: a bounded time-order staging area between the shard
// queue and the streaming operators.
//
// Why it exists: timed pane mode (StreamingOptions::pane_width_ticks)
// stamps panes from record timestamps, and a timestamped
// PaneBuffer::Append closes a pane when a point of a *different* time
// bucket arrives. A collector fleet delivers records only
// approximately in time order — network interleaving and wall-clock
// skew reorder them — and feeding a timed pane buffer out-of-order
// would thrash pane commits (the arrival-order pane-stamping bug
// class this sequencer fixes).
//
// Model: records are staged in sorted runs (a batch is sorted once,
// then appended to a run it extends or opens a new one); a watermark
// tracks the maximum timestamp ever pushed, advanced per record in
// arrival order. The sequencer releases in (ts, arrival) order,
// merged across runs, everything at or below its *released floor*:
//
//   floor = max(watermark - horizon, low_mark - 1)
//
// never decreasing. The horizon term bounds how long any record
// waits: it is the whole rule for sources that promise nothing. The
// low-mark term is an in-band watermark (Akumuli's PAA node flows
// LO/HI margin samples through its pipeline the same way; MillWheel
// calls it a low watermark): a source that knows no record older than
// `low_mark` can still arrive — the wire tier does, because each timed
// connection stamps monotonically and the server takes the minimum
// over its open connections — passes it with a batch, and everything
// older is released at once instead of after the full horizon.
//
// A record is *late* — counted per series and dropped, never emitted
// — iff ts < max(watermark_at_its_arrival - horizon, released floor).
// Without marks this is exactly "more than horizon ticks behind the
// newest timestamp at its own arrival", and a record only raises the
// watermark, so in-order input is never late, whatever its span. With
// marks one cost follows: a collector that first connects, or
// reconnects, with timestamps behind the floor already released loses
// those records as late, in the same accounting bucket. Flush
// releases the remainder at end of stream.
//
// Emission is therefore globally non-decreasing in ts, and it is
// always the accepted records sorted by (ts, arrival): when no record
// is late, the emitted sequence is identical with or without marks —
// only released earlier — and two input orders that are permutations
// of each other within the horizon emit the identical sequence, the
// property determinism-under-skew parity tests pin.
//
// Memory is O(staged records): a run's consumed prefix is compacted
// away once it passes half the run, so steady in-order traffic, which
// keeps extending one run forever, does not keep what it released.
//
// Not thread-safe; each shard worker owns one instance.

#ifndef ASAP_STREAM_SEQUENCER_H_
#define ASAP_STREAM_SEQUENCER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "stream/record.h"

namespace asap {
namespace stream {

class Sequencer {
 public:
  /// `horizon_ticks`: the reordering window, >= 1. A record is
  /// accepted as long as its timestamp is within horizon_ticks of the
  /// newest timestamp seen; older records are dropped as late. There
  /// is no "off" horizon here: a shard with sequencing disabled
  /// (horizon 0) owns no Sequencer and feeds records in arrival order.
  explicit Sequencer(int64_t horizon_ticks);

  /// Stages records, drops late ones, then raises the released floor
  /// to max(watermark - horizon, low_mark - 1) and appends every
  /// staged record at or below it to `out` in (ts, arrival) order.
  /// `low_mark` promises that no record older than it arrives after
  /// this batch (kNoLowMark promises nothing: the horizon alone
  /// governs). Returns the number of records appended.
  size_t Push(const Record* records, size_t n, RecordBatch* out,
              int64_t low_mark = kNoLowMark);

  /// Releases all still-staged records to `out` in (ts, arrival)
  /// order (end of stream). Returns the number appended. The
  /// sequencer remains usable; the watermark and late rule persist.
  size_t Flush(RecordBatch* out);

  /// Records accepted (staged) so far.
  uint64_t records_in() const { return records_in_; }
  /// Records emitted to out so far.
  uint64_t emitted() const { return emitted_; }
  /// Records dropped as late (older than the released floor or
  /// watermark - horizon at their arrival).
  uint64_t late_dropped() const { return late_dropped_; }
  /// Late drops per series (empty until the first drop).
  const std::unordered_map<SeriesId, uint64_t>& late_by_series() const {
    return late_by_series_;
  }
  /// Records currently staged.
  size_t buffered() const { return records_in_ - emitted_; }
  /// Maximum timestamp ever pushed (INT64_MIN before the first).
  int64_t watermark() const { return watermark_; }
  /// Everything at or below this was released; INT64_MIN before the
  /// first record. watermark() - released_floor() is the horizon while
  /// the horizon governs release and about the slowest source's lag
  /// while low marks do.
  int64_t released_floor() const { return floor_; }
  int64_t horizon_ticks() const { return horizon_; }

 private:
  struct Item {
    Record rec;
    uint64_t seq = 0;  // arrival order, the tie-break at equal ts
  };
  /// One sorted run: items[head..) are pending, sorted by (ts, seq).
  struct Run {
    std::vector<Item> items;
    size_t head = 0;
  };

  /// Appends staged items with ts <= floor to out, merged across runs
  /// in (ts, seq) order; consumed runs are dropped and long consumed
  /// prefixes compacted.
  size_t EmitUpTo(int64_t floor, RecordBatch* out);

  /// watermark - horizon without wraparound near INT64_MIN.
  int64_t HorizonFloor() const;

  int64_t horizon_;
  int64_t watermark_;
  int64_t floor_;
  uint64_t next_seq_ = 0;
  uint64_t records_in_ = 0;
  uint64_t emitted_ = 0;
  uint64_t late_dropped_ = 0;
  std::vector<Run> runs_;
  std::vector<Item> scratch_;  // per-Push sort buffer, capacity reused
  std::unordered_map<SeriesId, uint64_t> late_by_series_;
};

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_SEQUENCER_H_
