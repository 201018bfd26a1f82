// Pane-based sliding-window sub-aggregation ("No pane, no gain",
// Li et al., SIGMOD Record 2005), the technique §4.5 adapts.
//
// A sliding window aggregate with window W and slide S is computed by
// first aggregating the stream into disjoint panes of size
// gcd(W, S) and then combining W/gcd panes per window. For
// averages this reduces both memory and per-window work by the pane
// size. Streaming ASAP maintains exactly such a pane list, sized at
// the point-to-pixel ratio.

#ifndef ASAP_WINDOW_PANES_H_
#define ASAP_WINDOW_PANES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asap {
namespace window {

/// Greatest common divisor (size_t; gcd(x, 0) == x).
size_t Gcd(size_t a, size_t b);

/// A pane: a disjoint sub-aggregate of `count` consecutive points.
struct Pane {
  double sum = 0.0;
  size_t count = 0;

  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Splits x into consecutive panes of `pane_size` points (last pane may
/// be partial) carrying sum and count.
std::vector<Pane> BuildPanes(const std::vector<double>& x, size_t pane_size);

/// Time bucket of timestamp `ts` under a pane grid anchored at
/// `epoch` with `width` ticks per pane: floor((ts - epoch) / width),
/// exact for negative deltas too (integer division truncates toward
/// zero; pre-epoch timestamps must map to negative indices, not
/// collapse into buckets 0 and -1). Requires width > 0.
inline int64_t PaneIndexForTs(int64_t ts, int64_t epoch, int64_t width) {
  const int64_t delta = ts - epoch;
  int64_t index = delta / width;
  if (delta % width != 0 && delta < 0) {
    index -= 1;
  }
  return index;
}

/// Computes the sliding-window average of window W / slide S over x via
/// panes of size gcd(W, S). Only full windows are emitted; results are
/// identical to SmaWithSlide(x, W, S) up to rounding.
std::vector<double> PaneSma(const std::vector<double>& x, size_t w,
                            size_t slide);

/// A sequence of doubles held as two contiguous runs, read `first`
/// then `second` (a ring buffer's wrapped contents, oldest first).
struct SplitSpan {
  const double* first = nullptr;
  size_t first_size = 0;
  const double* second = nullptr;
  size_t second_size = 0;

  size_t size() const { return first_size + second_size; }
};

/// Streaming pane builder: accumulates raw points into panes and
/// retains the means of the most recent `max_panes` of them (the
/// visible window of Streaming ASAP) in a fixed-capacity ring, so a
/// commit overwrites the oldest slot and allocates nothing once the
/// ring is full. A pane closes on one of two clocks, chosen per
/// Append call (do not mix them on one buffer): the arrival clock
/// (every `pane_size` points) or the time grid (a bucket of
/// `width_ticks` ticks anchored at `epoch`).
class PaneBuffer {
 public:
  /// Observer fired once per *completed* pane with its mean — the
  /// durable-store hookup (panes, not raw points, are the durable
  /// unit). A plain function pointer + context keeps the common
  /// no-sink case a single branch on the pane-commit path.
  using PaneSink = void (*)(void* ctx, double mean);

  /// pane_size: points per pane on the arrival clock; max_panes:
  /// retained pane count (>= 1; the ring's capacity, reserved up
  /// front); epoch/width_ticks: the time grid timestamped Appends use
  /// (width_ticks 0 = no time grid).
  PaneBuffer(size_t pane_size, size_t max_panes, int64_t epoch = 0,
             int64_t width_ticks = 0);

  /// Appends n raw points in arrival order — the one ingest routine.
  /// ts == nullptr is the arrival clock: a pane holds pane_size points
  /// and commits on its last one. Otherwise point i lands in time
  /// bucket PaneIndexForTs(ts[i], epoch, width_ticks) (requires
  /// width_ticks > 0), and the in-progress pane commits when a point
  /// of a *different* bucket arrives, so a pane holds however many
  /// points fell in its bucket. Either way each pane's points are
  /// summed in one tight loop, in arrival order: the state is bitwise
  /// that of n one-point Appends. Inline because per-point callers
  /// (Push, StreamingAsap::Push) would pay a call per point.
  void Append(const double* xs, const int64_t* ts, size_t n) {
    points_consumed_ += n;
    if (ts == nullptr) {
      // Runs that fill the in-progress pane commit it; the remainder
      // (shorter than a pane) stays in progress.
      while (n >= pane_size_ - current_.count) {
        const size_t run = pane_size_ - current_.count;
        Accumulate(xs, run);
        CommitCurrent();
        xs += run;
        n -= run;
      }
      Accumulate(xs, n);
      return;
    }
    size_t i = 0;
    while (i < n) {
      const int64_t index = PaneIndexForTs(ts[i], epoch_, width_ticks_);
      if (current_.count != 0 && index != current_index_) {
        CommitCurrent();
      }
      current_index_ = index;
      size_t end = i + 1;
      while (end < n &&
             PaneIndexForTs(ts[end], epoch_, width_ticks_) == index) {
        ++end;
      }
      Accumulate(xs + i, end - i);
      i = end;
    }
  }

  /// One point on the arrival clock. Returns true if it completed a
  /// pane (i.e. the preaggregated series grew by one).
  bool Push(double x) {
    Append(&x, nullptr, 1);
    return current_.count == 0;
  }

  /// Installs (or clears, with nullptr) the pane-completion sink.
  void set_pane_sink(PaneSink sink, void* ctx) {
    sink_ = sink;
    sink_ctx_ = ctx;
  }

  /// Restores one previously completed pane (crash recovery): its
  /// mean is retained as an already-complete pane and the point clock
  /// advances by pane_size. The sink is NOT fired — the pane is
  /// already durable. The recorded mean is stored as is, bitwise
  /// (re-multiplying by pane_size and dividing back would round).
  void RestoreCompleted(double mean);

  /// Means of all retained (complete) panes, oldest first, as the
  /// ring's two contiguous runs: no copy, valid until the next commit
  /// or restore. The refresh path reads panes through this.
  SplitSpan Means() const {
    return SplitSpan{ring_.data() + head_, ring_.size() - head_,
                     ring_.data(), head_};
  }

  /// Number of retained complete panes.
  size_t size() const { return ring_.size(); }

  size_t pane_size() const { return pane_size_; }

  /// Total raw points consumed.
  size_t points_consumed() const { return points_consumed_; }

 private:
  /// Adds a run of n points to the in-progress pane in one tight
  /// loop, in arrival order (bitwise the same sum as one at a time).
  void Accumulate(const double* xs, size_t n) {
    double sum = current_.sum;
    for (size_t j = 0; j < n; ++j) {
      sum += xs[j];
    }
    current_.sum = sum;
    current_.count += n;
  }

  /// Retains the completed in-progress pane's mean and starts a new
  /// pane.
  void CommitCurrent();

  /// Appends a mean to the ring, overwriting the oldest once it holds
  /// max_panes.
  void Retain(double mean);

  size_t pane_size_;
  size_t max_panes_;
  int64_t epoch_;
  int64_t width_ticks_;
  /// Means of complete panes. While filling, oldest first from slot 0;
  /// once full (max_panes entries) the oldest sits at head_ and each
  /// commit overwrites it and advances head_.
  std::vector<double> ring_;
  size_t head_ = 0;
  Pane current_;  // in-progress pane
  /// Time bucket current_ belongs to; meaningful only on the time
  /// grid while current_.count > 0.
  int64_t current_index_ = 0;
  size_t points_consumed_ = 0;
  PaneSink sink_ = nullptr;
  void* sink_ctx_ = nullptr;
};

}  // namespace window
}  // namespace asap

#endif  // ASAP_WINDOW_PANES_H_
