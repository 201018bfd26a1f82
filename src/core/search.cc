#include "core/search.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/task_pool.h"
#include "core/kernels.h"
#include "core/metrics.h"
#include "window/sma.h"

namespace asap {

size_t SearchOptions::ResolveMaxWindow(size_t n) const {
  size_t mw = max_window;
  if (mw == 0) {
    const size_t divisor = max_window_divisor == 0 ? 10 : max_window_divisor;
    mw = n / divisor;
  }
  mw = std::min(mw, n);
  return std::max<size_t>(mw, 1);
}

CandidateScore EvaluateWindow(const std::vector<double>& x, size_t w) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_LE(w, x.size());
  const std::vector<double> y = window::Sma(x, w);
  return CandidateScore{Roughness(y), Kurtosis(y)};
}

namespace {

// Scores one candidate through the configured evaluator and keeps the
// diagnostics honest about which kernel ran.
CandidateScore Score(const SeriesContext& ctx, size_t w,
                     const SearchOptions& options, SearchDiagnostics* diag) {
  diag->candidates_evaluated += 1;
  if (options.use_naive_evaluator) {
    return EvaluateWindow(ctx.x(), w);
  }
  diag->allocation_free_evals += 1;
  return ScoreWindow(ctx, w, options.exec);
}

// The ACF every ASAP search over ctx uses: one extra lag so a period
// that lands exactly on max_window is still detectable as a local
// maximum.
const AcfInfo& SearchAcf(SeriesContext* ctx, const SearchOptions& options) {
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  return ctx->EnsureAcf(/*max_lag=*/max_window + 1, options.acf_threshold,
                        options.exec);
}

// Shared feasibility + bookkeeping: updates `result` if candidate w is
// feasible (kurtosis preserved) and smoother than the incumbent.
void ConsiderCandidate(const SeriesContext& ctx, size_t w,
                       const SearchOptions& options, SearchResult* result) {
  const CandidateScore score = Score(ctx, w, options, &result->diag);
  if (score.kurtosis >= ctx.kurtosis() &&
      score.roughness < result->roughness) {
    result->window = w;
    result->roughness = score.roughness;
    result->kurtosis = score.kurtosis;
  }
}

// Initializes the result with the unsmoothed series (w = 1), which is
// always feasible: kurtosis is trivially preserved. The context caches
// both w = 1 metrics, so this is free.
SearchResult InitWithIdentity(const SeriesContext& ctx) {
  SearchResult result;
  result.window = 1;
  result.roughness = ctx.roughness();
  result.kurtosis = ctx.kurtosis();
  return result;
}

// Bisection sweep over [head, tail]: assumes (per §4.2) that kurtosis
// of the smoothed series decreases in w, so the largest feasible
// window sits at the feasibility boundary. Updates `result` with any
// feasible, smoother candidate it visits.
void BinarySearchRange(const SeriesContext& ctx, size_t head, size_t tail,
                       const SearchOptions& options, SearchResult* result) {
  while (head <= tail) {
    const size_t w = head + (tail - head) / 2;
    const CandidateScore score = Score(ctx, w, options, &result->diag);
    if (score.kurtosis >= ctx.kurtosis()) {
      if (score.roughness < result->roughness) {
        result->window = w;
        result->roughness = score.roughness;
        result->kurtosis = score.kurtosis;
      }
      head = w + 1;  // feasible: try larger (smoother) windows
    } else {
      if (w <= 1) {
        break;  // cannot shrink below the identity window
      }
      tail = w - 1;  // infeasible: shrink
    }
  }
}

// Task-split candidate sweep over windows {first + i * step}, i in
// [0, count): candidates are scored into per-candidate slots across
// threads, then the incumbent walk replays sequentially in candidate
// order. Because ScoreWindow is bitwise-deterministic under every
// policy, the walk sees the exact scores the sequential sweep would
// have, so the chosen window, its score, and the diagnostics are all
// identical at any thread count.
void SweepCandidates(SeriesContext* ctx, size_t first, size_t step,
                     size_t count, const SearchOptions& options,
                     SearchResult* result) {
  const size_t threads = options.exec.ResolveThreads();
  if (threads <= 1 || count < 2) {
    for (size_t i = 0; i < count; ++i) {
      ConsiderCandidate(*ctx, first + i * step, options, result);
    }
    return;
  }
  std::vector<CandidateScore> scores(count);
  // Parallelism is across candidates here; the inner kernel runs
  // sequentially (its result does not depend on the choice).
  ExecPolicy inner = options.exec;
  inner.threads = 1;
  const size_t chunks =
      std::min(count, std::min<size_t>(threads * 4, kern::kMaxChunks));
  ParallelChunks(options.exec, chunks, [&](size_t c) {
    const size_t i0 = kern::ChunkBound(count, chunks, c);
    const size_t i1 = kern::ChunkBound(count, chunks, c + 1);
    for (size_t i = i0; i < i1; ++i) {
      const size_t w = first + i * step;
      scores[i] = options.use_naive_evaluator ? EvaluateWindow(ctx->x(), w)
                                              : ScoreWindow(*ctx, w, inner);
    }
  });
  for (size_t i = 0; i < count; ++i) {
    result->diag.candidates_evaluated += 1;
    if (!options.use_naive_evaluator) {
      result->diag.allocation_free_evals += 1;
    }
    const CandidateScore& score = scores[i];
    if (score.kurtosis >= ctx->kurtosis() &&
        score.roughness < result->roughness) {
      result->window = first + i * step;
      result->roughness = score.roughness;
      result->kurtosis = score.kurtosis;
    }
  }
}

}  // namespace

SearchResult ExhaustiveSearch(SeriesContext* ctx,
                              const SearchOptions& options) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  SearchResult result = InitWithIdentity(*ctx);
  if (max_window >= 2) {
    SweepCandidates(ctx, 2, 1, max_window - 1, options, &result);
  }
  return result;
}

SearchResult ExhaustiveSearch(const std::vector<double>& x,
                              const SearchOptions& options) {
  SeriesContext ctx(x);
  return ExhaustiveSearch(&ctx, options);
}

SearchResult GridSearch(SeriesContext* ctx, const SearchOptions& options) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  ASAP_CHECK_GE(options.grid_step, 1u);
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  SearchResult result = InitWithIdentity(*ctx);
  const size_t first = 1 + options.grid_step;
  if (first <= max_window) {
    const size_t count = (max_window - first) / options.grid_step + 1;
    SweepCandidates(ctx, first, options.grid_step, count, options, &result);
  }
  return result;
}

SearchResult GridSearch(const std::vector<double>& x,
                        const SearchOptions& options) {
  SeriesContext ctx(x);
  return GridSearch(&ctx, options);
}

SearchResult BinarySearch(SeriesContext* ctx, const SearchOptions& options) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  SearchResult result = InitWithIdentity(*ctx);
  if (max_window >= 2) {
    BinarySearchRange(*ctx, 2, max_window, options, &result);
  }
  return result;
}

SearchResult BinarySearch(const std::vector<double>& x,
                          const SearchOptions& options) {
  SeriesContext ctx(x);
  return BinarySearch(&ctx, options);
}

SearchResult AsapSearch(SeriesContext* ctx, const SearchOptions& options,
                        AsapState* seed) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  const AcfInfo& acf = SearchAcf(ctx, options);
  const double kurtosis_x = ctx->kurtosis();
  const size_t max_window = options.ResolveMaxWindow(ctx->size());

  AsapState local;
  AsapState* state = seed != nullptr ? seed : &local;

  SearchResult result = InitWithIdentity(*ctx);
  result.diag.acf_peaks = acf.peaks.size();
  // A warm-started state may carry a smoother incumbent from the
  // previous search; adopt it (CheckLastWindow scored it on the
  // current data).
  if (state->has_feasible && state->window >= 1 &&
      state->window <= max_window && state->roughness < result.roughness) {
    result.window = state->window;
    result.roughness = state->roughness;
    result.kurtosis = state->kurtosis;
  }

  const std::vector<double>& corr = acf.correlations;
  const auto acf_at = [&corr](size_t lag) {
    return lag < corr.size() ? corr[lag] : 0.0;
  };

  // --- Algorithm 1: SearchPeriodic, large to small over ACF peaks. ---
  for (size_t idx = acf.peaks.size(); idx-- > 0;) {
    const size_t w = acf.peaks[idx];
    if (w > max_window) {
      continue;  // outside the admissible range
    }
    if (!options.disable_lower_bound_pruning &&
        static_cast<double>(w) < state->lower_bound) {
      // Everything below the Eq. 6 bound is dominated; peaks are sorted
      // so all remaining candidates are pruned too.
      result.diag.pruned_lower_bound += idx + 1;
      break;
    }
    if (!options.disable_roughness_pruning &&
        EstimatedRougher(w, acf_at(w), result.window,
                         acf_at(result.window))) {
      result.diag.pruned_roughness += 1;
      continue;
    }
    const CandidateScore score = Score(*ctx, w, options, &result.diag);
    if (score.kurtosis >= kurtosis_x) {
      if (score.roughness < result.roughness) {
        result.window = w;
        result.roughness = score.roughness;
        result.kurtosis = score.kurtosis;
      }
      state->has_feasible = true;
      state->lower_bound = std::max(
          state->lower_bound, WindowLowerBound(w, acf_at(w), acf.max_acf));
    }
  }

  // --- Algorithm 2: binary-search the remaining range. The paper's
  // pseudocode for the range endpoints is internally inconsistent (see
  // DESIGN.md §6); following the authors' public implementation we
  // bisect [lower_bound, max_window]. ---
  const size_t head = std::max<size_t>(
      2, static_cast<size_t>(std::lround(std::ceil(state->lower_bound))));
  if (head <= max_window) {
    BinarySearchRange(*ctx, head, max_window, options, &result);
  }

  state->window = result.window;
  state->roughness = result.roughness;
  state->kurtosis = result.kurtosis;
  state->has_feasible = true;  // w = 1 is always feasible
  return result;
}

AsapState CheckLastWindow(SeriesContext* ctx, size_t last_window,
                          const SearchOptions& options,
                          SearchDiagnostics* diag) {
  AsapState state;
  if (last_window < 1 || last_window > ctx->size()) {
    return state;
  }
  const CandidateScore score = Score(*ctx, last_window, options, diag);
  if (score.kurtosis < ctx->kurtosis()) {
    return state;
  }
  const AcfInfo& acf = SearchAcf(ctx, options);
  const double corr = last_window < acf.correlations.size()
                          ? acf.correlations[last_window]
                          : 0.0;
  state.window = last_window;
  state.roughness = score.roughness;
  state.kurtosis = score.kurtosis;
  state.lower_bound =
      std::max(1.0, WindowLowerBound(last_window, corr, acf.max_acf));
  state.has_feasible = true;
  return state;
}

SearchResult AsapSearch(const std::vector<double>& x,
                        const SearchOptions& options, AsapState* seed) {
  SeriesContext ctx(x);
  return AsapSearch(&ctx, options, seed);
}

}  // namespace asap
