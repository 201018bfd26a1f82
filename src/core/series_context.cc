#include "core/series_context.h"

#include <cmath>

#include "common/macros.h"
#include "common/task_pool.h"
#include "core/kernels.h"
#include "core/search.h"
#include "stats/descriptive.h"
#include "stats/welford.h"
#include "window/sma.h"

namespace asap {

SeriesContext::SeriesContext(const std::vector<double>& x) { Reset(x); }

void SeriesContext::Reset(const std::vector<double>& x) {
  Reset(window::SplitSpan{x.data(), x.size(), nullptr, 0});
}

void SeriesContext::Reset(const window::SplitSpan& x) {
  const size_t n = x.size();
  // assign/insert/resize reuse the vectors' capacity.
  x_.assign(x.first, x.first + x.first_size);
  x_.insert(x_.end(), x.second, x.second + x.second_size);
  prefix_.resize(n + 1);
  prefix2_.resize(n + 2);
  acf_valid_ = false;

  const double* const xs = x_.data();
  is_constant_ = true;  // compared from i = 1: one point is constant
  for (size_t i = 1; i < n; ++i) {
    if (xs[i] != xs[0]) {
      is_constant_ = false;
      break;
    }
  }

  // Every accumulator below is a serial dependency chain, so a sweep
  // costs about the latency of its slowest chain per step. The
  // slowest is Roughness()'s difference recurrence (a divide per
  // point), and it needs no mean, so it runs across both passes at
  // half speed: each step of a pass folds two points into that pass's
  // chains and one point into the recurrence (its first half during
  // pass A, its second during pass B, in series order).
  const size_t half = n / 2;
  stats::DiffAccumulator diff;

  // Pass A: stats::Mean()'s compensated sum and the ACF's plain one
  // (fft::CenteringMean).
  stats::CompensatedSum total;
  double plain = 0.0;
  for (size_t j = 0; j < half; ++j) {
    total.Add(xs[2 * j]);
    plain += xs[2 * j];
    total.Add(xs[2 * j + 1]);
    plain += xs[2 * j + 1];
    diff.Add(xs[j]);
  }
  if (n % 2 != 0) {
    total.Add(xs[n - 1]);
    plain += xs[n - 1];
  }
  mean_ = n != 0 ? total.sum / static_cast<double>(n) : 0.0;
  acf_mean_ = n != 0 ? plain / static_cast<double>(n) : 0.0;

  // Pass B: stats::ComputeMoments' central sums s2, s4 around that
  // mean (kurtosis), and the centered, compensated prefix sums.
  // Centering keeps the stored magnitudes ~ sqrt(N) * sigma (a random
  // walk) instead of N * mean, and the compensation keeps each stored
  // prefix within O(eps) of the exact centered sum, so the O(1) SMA
  // reconstruction stays within ~1e-9 of the naive running sum even
  // for multi-million-point series. The second-order prefix gets the
  // same treatment.
  double s2 = 0.0;
  double s4 = 0.0;
  stats::CompensatedSum p1;
  stats::CompensatedSum p2;
  double* const prefix = prefix_.data();
  double* const prefix2 = prefix2_.data();
  prefix[0] = 0.0;
  prefix2[0] = 0.0;
  prefix2[1] = 0.0;  // prefix[0] contributes nothing
  const auto moments_and_prefixes = [&](size_t i) {
    const double d = xs[i] - mean_;
    const double d2 = d * d;
    s2 += d2;
    s4 += d2 * d2;
    p1.Add(d);
    prefix[i + 1] = p1.sum;
    p2.Add(p1.sum);
    prefix2[i + 2] = p2.sum;
  };
  for (size_t j = 0; j < half; ++j) {
    moments_and_prefixes(2 * j);
    moments_and_prefixes(2 * j + 1);
    diff.Add(xs[half + j]);
  }
  if (n % 2 != 0) {
    moments_and_prefixes(n - 1);
    diff.Add(xs[n - 1]);
  }

  // The batch metrics' degenerate-input conventions: roughness 0 below
  // three points; kurtosis 0 below two points or when the variance is
  // not positive.
  roughness_ = n >= 3 ? diff.roughness() : 0.0;
  kurtosis_ = 0.0;
  if (n >= 2) {
    const double count = static_cast<double>(n);
    const double variance = s2 / count;
    if (!(variance <= 0.0)) {
      kurtosis_ = (s4 / count) / (variance * variance);
    }
  }
}

double SeriesContext::SmaAt(size_t w, size_t i) const {
  ASAP_DCHECK(w >= 1 && i + w <= x_.size());
  return mean_ + (prefix_[i + w] - prefix_[i]) / static_cast<double>(w);
}

const AcfInfo& SeriesContext::EnsureAcf(size_t max_lag, double peak_threshold,
                                        const ExecPolicy& policy) {
  // Exact-parameter caching only: reusing a *broader* cached ACF for a
  // smaller max_lag would change max_acf (and the Eq. 6 pruning) the
  // moment a context is shared across searches with different window
  // ranges, making results depend on call history. The policy is not
  // part of the key: it never changes the computed values.
  if (!acf_valid_ || acf_max_lag_ != max_lag ||
      acf_threshold_ != peak_threshold) {
    ComputeAcfInfo(x_, acf_mean_, max_lag, peak_threshold, policy, &acf_,
                   &acf_centered_);
    acf_valid_ = true;
    acf_max_lag_ = max_lag;
    acf_threshold_ = peak_threshold;
  }
  return acf_;
}

namespace {

// True iff x[i + w] == x[i] for every valid i, i.e. the series is
// exactly w-periodic (a constant series is the period-1 case). This is
// precisely the condition under which window::Sma's running sum never
// changes between re-summations, leaving the naive evaluator's
// smoothed series (near-)exactly constant — the one regime where the
// fused prefix kernel would amplify representation rounding into a
// garbage kurtosis. One comparison for typical data.
bool ExactlyPeriodic(const std::vector<double>& x, size_t w) {
  for (size_t i = 0; i + w < x.size(); ++i) {
    if (x[i + w] != x[i]) {
      return false;
    }
  }
  return true;
}

// Replays window::Sma's exact value sequence (running sum, periodic
// re-summation and all) without materializing it.
template <typename Emit>
void ForEachNaiveSmaValue(const std::vector<double>& x, size_t w,
                          Emit&& emit) {
  const size_t n = x.size();
  const double inv_w = 1.0 / static_cast<double>(w);
  double sum = 0.0;
  for (size_t i = 0; i < w; ++i) {
    sum += x[i];
  }
  emit(sum * inv_w);
  size_t since_resum = 0;
  for (size_t i = 1; i + w <= n; ++i) {
    sum += x[i + w - 1] - x[i - 1];
    if (++since_resum >= window::kRecomputeInterval) {
      sum = 0.0;
      for (size_t j = i; j < i + w; ++j) {
        sum += x[j];
      }
      since_resum = 0;
    }
    emit(sum * inv_w);
  }
}

// Bit-exact, allocation-free replay of the naive evaluator
// (window::Sma + Roughness + Kurtosis): the same floating-point
// operations in the same order, streamed instead of materialized.
// Used for exactly periodic input, where "parity within rounding"
// is not good enough — the true smoothed variance is zero, so any
// dust-level deviation between evaluators becomes an O(1) kurtosis
// difference and can flip the feasibility test.
CandidateScore ReplayNaiveScore(const std::vector<double>& x, size_t w) {
  const size_t m = x.size() - w + 1;
  stats::DiffAccumulator diff_acc;  // Roughness()'s accumulation
  stats::CompensatedSum ysum;       // stats::Mean()'s
  ForEachNaiveSmaValue(x, w, [&](double y) {
    diff_acc.Add(y);
    ysum.Add(y);
  });

  CandidateScore score;
  score.roughness = m >= 3 ? diff_acc.roughness() : 0.0;
  if (m >= 2) {
    // stats::ComputeMoments' central accumulation around the Kahan mean.
    const double mean = ysum.sum / static_cast<double>(m);
    double s2 = 0.0;
    double s4 = 0.0;
    ForEachNaiveSmaValue(x, w, [&](double y) {
      const double d = y - mean;
      const double d2 = d * d;
      s2 += d2;
      s4 += d2 * d2;
    });
    const double variance = s2 / static_cast<double>(m);
    if (variance > 0.0) {
      score.kurtosis =
          (s4 / static_cast<double>(m)) / (variance * variance);
    }
  }
  return score;
}

}  // namespace

CandidateScore ScoreWindow(const SeriesContext& ctx, size_t w) {
  return ScoreWindow(ctx, w, ExecPolicy{});
}

CandidateScore ScoreWindow(const SeriesContext& ctx, size_t w,
                           const ExecPolicy& policy) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_LE(w, ctx.size());
  if (w == 1) {
    // The cached series metrics *are* the w == 1 score (SMA(x, 1) == x),
    // and reusing them makes the identity candidate exact.
    return CandidateScore{ctx.roughness(), ctx.kurtosis()};
  }
  if (ctx.is_constant() || ExactlyPeriodic(ctx.x(), w)) {
    return ReplayNaiveScore(ctx.x(), w);
  }
  const size_t n = ctx.size();
  const size_t m = n - w + 1;  // smoothed length
  const double* prefix = ctx.prefix();
  const double* prefix2 = ctx.prefix2();
  const double inv_w = 1.0 / static_cast<double>(w);
  const double inv_m = 1.0 / static_cast<double>(m);

  // Centered smoothed values u_i = SMA(x, w)[i] - mean(x) are one
  // subtract + multiply away from the prefix array. Their mean is an
  // O(1) second-order-prefix expression
  //   mean(u) = (sum_{j=w}^{n} P[j] - sum_{j=0}^{n-w} P[j]) / (w * m)
  // and the first-difference mean telescopes to
  //   mean(d) = (u_{m-1} - u_0) / (m - 1),
  // so a single pass can accumulate *central* moments directly —
  // Welford's running-mean rescaling (one divide per point) is
  // unnecessary when the mean is known up front, and dropping it is
  // what makes this kernel several times faster than the naive
  // multi-pass evaluation it replaces.
  const double mean_u =
      (prefix2[n + 1] - prefix2[w] - prefix2[m]) * inv_w * inv_m;
  const double u0 = (prefix[w] - prefix[0]) * inv_w;
  const double u_last = (prefix[n] - prefix[m - 1]) * inv_w;
  const double mean_d =
      m >= 2 ? (u_last - u0) / static_cast<double>(m - 1) : 0.0;

  double s2 = 0.0;   // sum (u - mean_u)^2
  double s4 = 0.0;   // sum (u - mean_u)^4
  double sd2 = 0.0;  // sum (diff - mean_d)^2
  {
    const double dy = u0 - mean_u;
    const double dy2 = dy * dy;
    s2 = dy2;
    s4 = dy2 * dy2;
  }
  // Elements i in [1, m) run through the canonical chunked reduction
  // (core/kernels.h): the chunk layout depends only on the element
  // count and partials merge in chunk order, so every ExecPolicy —
  // scalar or SIMD, one thread or many — produces bitwise-identical
  // moments. The loop is data-parallel because u_{i-1} is recomputed
  // from the prefix array with the exact FP expression the sequential
  // loop's carried prev_u held.
  const size_t total = m - 1;
  if (total > 0) {
    const kern::KernelTable& kt = kern::ActiveKernels(policy.simd);
    const size_t chunks = kern::ChunksFor(total);
    kern::MomentPartials parts[kern::kMaxChunks];
    ParallelChunks(policy, chunks, [&](size_t c) {
      parts[c] = kt.score_segment(
          prefix, w, inv_w, mean_u, mean_d,
          1 + kern::ChunkBound(total, chunks, c),
          1 + kern::ChunkBound(total, chunks, c + 1));
    });
    for (size_t c = 0; c < chunks; ++c) {
      s2 += parts[c].s2;
      s4 += parts[c].s4;
      sd2 += parts[c].sd2;
    }
  }

  // Degenerate-input conventions match the naive metrics exactly:
  // roughness is 0 for fewer than 3 smoothed points, kurtosis is 0 for
  // fewer than 2 points or zero variance.
  CandidateScore score;
  score.roughness =
      m >= 3 ? std::sqrt(sd2 / static_cast<double>(m - 1)) : 0.0;
  const double variance = s2 * inv_m;
  score.kurtosis =
      (m >= 2 && variance > 0.0) ? (s4 * inv_m) / (variance * variance) : 0.0;
  return score;
}

}  // namespace asap
