// Simple moving average (SMA), the paper's smoothing function (§3.3).
//
// Batch form: SMA(X, w) emits the mean of every length-w window at
// slide 1 (N - w + 1 points). A generalized slide parameter supports
// the sliding-window-aggregate usage in §4.5, and an incremental
// evaluator supports O(1)-per-point streaming updates.

#ifndef ASAP_WINDOW_SMA_H_
#define ASAP_WINDOW_SMA_H_

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

namespace asap {
namespace window {

/// Incremental running-sum updates between full re-summations in the
/// batch/slide/incremental SMA evaluators (bounds floating-point
/// drift). Exposed so the fused evaluator's exact naive-replay path
/// (core/series_context.cc) reproduces the same value sequence.
inline constexpr size_t kRecomputeInterval = 1u << 16;

/// Batch SMA at slide 1. Requires 1 <= w <= x.size(); w == 1 returns a
/// copy of the input. Runs in O(N) using a running sum with periodic
/// re-summation to bound floating-point drift.
std::vector<double> Sma(const std::vector<double>& x, size_t w);

/// The same SMA of x[0..n) written to out[0..n - w + 1), with no
/// allocation.
void Sma(const double* x, size_t n, size_t w, double* out);

/// Batch SMA with an arbitrary slide: windows start at 0, slide,
/// 2*slide, ...; only full windows are emitted.
std::vector<double> SmaWithSlide(const std::vector<double>& x, size_t w,
                                 size_t slide);

/// Incremental SMA evaluator: push points one at a time; every push
/// after warm-up yields the average of the trailing `w` points.
class IncrementalSma {
 public:
  explicit IncrementalSma(size_t w);

  /// Pushes x; returns the new SMA value once w points have been seen,
  /// std::nullopt during warm-up.
  std::optional<double> Push(double x);

  void Reset();

  size_t window() const { return w_; }
  bool warm() const { return buffer_.size() == w_; }

 private:
  size_t w_;
  std::deque<double> buffer_;
  double sum_ = 0.0;
  size_t pushes_since_recompute_ = 0;
};

}  // namespace window
}  // namespace asap

#endif  // ASAP_WINDOW_SMA_H_
