// Streaming (single-pass, mergeable) moment accumulation.
//
// Streaming ASAP needs running moments of unbounded streams without
// storing the data. WelfordAccumulator extends Welford's algorithm to
// the third and fourth central moments (Pébay 2008) and supports
// merging, which is what pane-based sub-aggregation requires.

#ifndef ASAP_STATS_WELFORD_H_
#define ASAP_STATS_WELFORD_H_

#include <cmath>
#include <cstddef>

namespace asap {
namespace stats {

/// Online accumulator for count/mean/M2/M3/M4.
class WelfordAccumulator {
 public:
  WelfordAccumulator() = default;

  /// Folds one observation into the accumulator.
  void Add(double x);

  /// Merges another accumulator (order-independent up to FP rounding).
  void Merge(const WelfordAccumulator& other);

  /// Resets to the empty state.
  void Reset();

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Population variance (divide by N).
  double variance() const;

  /// Population standard deviation.
  double stddev() const;

  /// Third standardized moment; 0 for degenerate input.
  double skewness() const;

  /// Non-excess fourth standardized moment; 0 for degenerate input.
  double kurtosis() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
};

/// Online mean/M2 of a value stream's first differences y - y_prev —
/// Welford's recurrence over the differences and nothing else. This is
/// the difference half of ScoreAccumulator (which embeds it), on its
/// own for callers that need only roughness: Roughness() skips the
/// value-moment update it would discard, with bitwise-identical
/// results.
class DiffAccumulator {
 public:
  /// Folds one value of the series, in series order.
  void Add(double y) {
    if (count_ > 0) {
      const double k = static_cast<double>(count_);  // differences so far
      const double delta = (y - prev_) - mean_;
      const double delta_k = delta / k;
      mean_ += delta_k;
      m2_ += delta * delta_k * (k - 1.0);
    }
    prev_ = y;
    ++count_;
  }

  /// Population variance of the differences; 0 for < 3 values.
  double variance() const {
    return count_ < 3 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }

  /// Population stddev of the differences (= Roughness of the stream).
  double roughness() const { return std::sqrt(variance()); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double prev_ = 0.0;
};

/// WelfordAccumulator generalized to ASAP's candidate-scoring state:
/// one Add(y) folds y into running mean/M2/M3/M4 *and* folds the first
/// difference y - y_prev into a separate running mean/M2, so a single
/// allocation-free pass over a smoothed series yields both of ASAP's
/// quality metrics. This is the *online* form — no mean known up
/// front, values arriving one at a time (streaming sub-aggregation,
/// reference cross-checks). The batch hot path, ScoreWindow in
/// core/series_context.h, tracks the same running state but exploits
/// its O(1) prefix-sum means to accumulate central moments directly,
/// which drops the per-point Welford rescaling divisions:
///
///   kurtosis()  — non-excess kurtosis of the value stream (§3.2)
///   roughness() — population stddev of the difference stream (§3.1)
///
/// Degenerate-input conventions match stats::ComputeMoments and
/// core/metrics.h exactly: kurtosis is 0 for < 2 values or zero
/// variance; roughness is 0 for < 3 values.
class ScoreAccumulator {
 public:
  ScoreAccumulator() = default;

  /// Folds one value of the (smoothed) series, in series order.
  void Add(double y);

  void Reset();

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Population variance of the values.
  double variance() const;

  /// Non-excess kurtosis of the values; 0 for degenerate input.
  double kurtosis() const;

  /// Population variance of the first differences.
  double diff_variance() const;

  /// Population stddev of the first differences (= Roughness of the
  /// value stream).
  double roughness() const;

 private:
  // Value moments (Pébay 2008, as in WelfordAccumulator).
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  DiffAccumulator diff_;
};

}  // namespace stats
}  // namespace asap

#endif  // ASAP_STATS_WELFORD_H_
