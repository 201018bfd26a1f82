// Zero-allocation candidate-window evaluation (the window-search hot
// path).
//
// Every search strategy scores candidate windows w by the roughness and
// kurtosis of SMA(X, w) (§3.4). The naive evaluator materializes the
// smoothed series, its first differences, and runs separate moment
// passes — O(N) heap allocations and several memory sweeps per
// candidate. SeriesContext instead precomputes, once per series:
//
//   * a mean-centered prefix-sum array of X, so any SMA(X, w) value is
//     two loads and a subtract (centering keeps the prefix magnitudes
//     ~ sqrt(N) * sigma instead of N * mean, which preserves ~1e-9
//     agreement with the naive evaluator even on long series);
//   * Roughness(X) and Kurtosis(X) (every strategy needs the kurtosis
//     bound, and both are the exact w == 1 score);
//   * the autocorrelation summary (ComputeAcfInfo: direct sums or
//     FFT), on request, cached per (max_lag, threshold) so batch and
//     streaming searches share it.
//
// ScoreWindow(ctx, w) then fuses smoothing and scoring into a single
// allocation-free pass that tracks the 4th central moment of the
// smoothed values and the variance of their first differences
// simultaneously. Because both stream means are O(1) expressions over
// the precomputed prefix arrays, the kernel accumulates *central*
// moments directly — no per-point Welford rescaling. When values
// arrive one at a time with no precomputed mean (streaming
// sub-aggregation), stats::ScoreAccumulator is the online
// generalization of the same running state. The naive EvaluateWindow
// (core/search.h) is kept as the reference implementation; tests
// assert score parity within 1e-9.

#ifndef ASAP_CORE_SERIES_CONTEXT_H_
#define ASAP_CORE_SERIES_CONTEXT_H_

#include <cstddef>
#include <vector>

#include "common/exec_policy.h"
#include "core/acf_peaks.h"
#include "window/panes.h"

namespace asap {

struct CandidateScore;  // core/search.h

/// Per-series evaluation state shared by all candidate evaluations.
/// Owns a copy of the series, so it has no lifetime coupling to the
/// caller's buffer. Reset() and EnsureAcf() write into buffers the
/// context owns and reuses, so once a context has seen a series of a
/// given length (and an ACF of a given lag count, on the direct path)
/// rebuilding and searching it again allocates nothing — what the
/// streaming refresh path relies on.
class SeriesContext {
 public:
  SeriesContext() = default;
  explicit SeriesContext(const std::vector<double>& x);

  /// Rebinds the context to the series `x.first` then `x.second` (the
  /// pane ring's two runs, so a refresh reads panes in place) and
  /// invalidates the cached ACF. After the copy into x() and the
  /// constancy scan (which stops at the first differing value), the
  /// rebuild is two fused sweeps:
  ///   A: the compensated mean, the ACF's plain mean and the first
  ///      half of the roughness recurrence;
  ///   B: the central moments of kurtosis around that mean, both
  ///      compensated prefix chains and the recurrence's second half.
  /// Each accumulator runs in its own operation order, so every
  /// cached value is bitwise what stats::Mean, Roughness, Kurtosis and
  /// a separate prefix loop give.
  void Reset(const window::SplitSpan& x);
  /// Reset over one contiguous series.
  void Reset(const std::vector<double>& x);

  size_t size() const { return x_.size(); }
  bool empty() const { return x_.empty(); }

  /// The series this context evaluates.
  const std::vector<double>& x() const { return x_; }

  /// Mean of the series (the prefix-sum centering offset).
  double mean() const { return mean_; }

  /// Roughness(x), cached (also the exact w == 1 roughness score).
  double roughness() const { return roughness_; }

  /// Kurtosis(x), cached (the feasibility bound of every search).
  double kurtosis() const { return kurtosis_; }

  /// SMA(x, w)[i] in O(1): two prefix loads and a subtract.
  /// Requires 1 <= w <= size() and i + w <= size().
  double SmaAt(size_t w, size_t i) const;

  /// Autocorrelation summary up to max_lag, computed on first
  /// request and cached per exact (max_lag, threshold) pair, so search
  /// results never depend on what an earlier caller requested. The
  /// policy affects only how fast the ACF is computed, never its
  /// values, so it is deliberately not part of the cache key.
  const AcfInfo& EnsureAcf(size_t max_lag, double peak_threshold,
                           const ExecPolicy& policy = {});

  /// Centered prefix sums: prefix()[i] = sum_{j<i} (x[j] - mean()),
  /// size() + 1 entries. Exposed for fused kernels.
  const double* prefix() const { return prefix_.data(); }

  /// Second-order prefix sums: prefix2()[k] = sum_{j<k} prefix()[j],
  /// size() + 2 entries. They make the mean of any SMA(x, w) an O(1)
  /// expression, which is what lets ScoreWindow run a true central-
  /// moment pass without a separate mean sweep.
  const double* prefix2() const { return prefix2_.data(); }

  /// True iff every value of the series is identical. The naive
  /// evaluator produces exactly {0, 0} scores for such series (its
  /// running sum never changes), and the fused kernel matches that
  /// exactly instead of amplifying prefix rounding dust.
  bool is_constant() const { return is_constant_; }

 private:
  std::vector<double> x_;
  std::vector<double> prefix_;
  std::vector<double> prefix2_;
  /// fft::CenteringMean(x_), summed during Reset's pass A, and the
  /// ACF's centred copy of x_ (direct path scratch).
  double acf_mean_ = 0.0;
  std::vector<double> acf_centered_;
  double mean_ = 0.0;
  double roughness_ = 0.0;
  double kurtosis_ = 0.0;
  bool is_constant_ = false;

  bool acf_valid_ = false;
  size_t acf_max_lag_ = 0;
  double acf_threshold_ = 0.0;
  AcfInfo acf_;
};

/// Fused scoring kernel: roughness and kurtosis of SMA(x, w) in one
/// allocation-free pass over the context's prefix sums. Matches the
/// naive EvaluateWindow within ~1e-9 (exactly, for w == 1).
///
/// The pass runs through the canonical chunked reduction of
/// core/kernels.h, so its result is bitwise-identical for every
/// ExecPolicy — scalar, SIMD, one thread or many. The two-argument
/// form (sequential, auto SIMD) performs zero heap allocations.
CandidateScore ScoreWindow(const SeriesContext& ctx, size_t w);
CandidateScore ScoreWindow(const SeriesContext& ctx, size_t w,
                           const ExecPolicy& policy);

}  // namespace asap

#endif  // ASAP_CORE_SERIES_CONTEXT_H_
