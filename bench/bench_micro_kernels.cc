// Google-benchmark microbenches for libasap's hot kernels: FFT,
// autocorrelation (both ACF paths), SMA, rolling moments, candidate
// evaluation, the end-to-end Smooth() operator, the streaming ingest
// and refresh paths, and the reduction baselines.

#include <benchmark/benchmark.h>

#include <vector>

#include "baselines/m4.h"
#include "baselines/paa.h"
#include "baselines/visvalingam.h"
#include "common/exec_policy.h"
#include "common/random.h"
#include "core/kernels.h"
#include "core/search.h"
#include "core/series_context.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "fft/autocorrelation.h"
#include "fft/fft.h"
#include "stats/rolling.h"
#include "ts/generators.h"
#include "window/panes.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace {

std::vector<double> MakeSignal(size_t n) {
  asap::Pcg32 rng(n);
  return asap::gen::Add(asap::gen::Sine(n, 48.0, 1.0),
                        asap::gen::WhiteNoise(&rng, n, 0.4));
}

void BM_FftRadix2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  asap::Pcg32 rng(7);
  std::vector<asap::fft::Complex> data(n);
  for (auto& c : data) {
    c = asap::fft::Complex(rng.Uniform(-1, 1), 0.0);
  }
  for (auto _ : state) {
    std::vector<asap::fft::Complex> copy = data;
    asap::fft::TransformRadix2(&copy, false);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftRadix2)->Range(1 << 10, 1 << 20);

void BM_FftBluestein(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0)) - 1;  // odd size
  asap::Pcg32 rng(7);
  std::vector<asap::fft::Complex> data(n);
  for (auto& c : data) {
    c = asap::fft::Complex(rng.Uniform(-1, 1), 0.0);
  }
  for (auto _ : state) {
    std::vector<asap::fft::Complex> copy = data;
    asap::fft::TransformBluestein(&copy, false);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftBluestein)->Range(1 << 10, 1 << 16);

void BM_AutocorrelationFft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::fft::AutocorrelationFft(x, n / 10));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AutocorrelationFft)->Range(1 << 10, 1 << 20);

// The two ACF paths ComputeAcfInfo chooses between, at L = n/10 + 1
// lags (lags 0..n/10, the search's max_window = n/10): path 0 is the
// FFT, 1 the direct sums on the runtime-selected kernel table, 2
// the direct sums on the scalar table. The crossover calibrates
// kDirectAcfBudget (core/acf_peaks.h), which must suit every table.
void BM_Acf(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int64_t path = state.range(1);
  const std::vector<double> x = MakeSignal(n);
  const size_t max_lag = n / 10;
  asap::ExecPolicy policy;
  policy.threads = 1;
  policy.simd = path == 2 ? asap::SimdMode::kScalar : asap::SimdMode::kAuto;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        path == 0 ? asap::fft::AutocorrelationFft(x, max_lag, policy)
                  : asap::fft::AutocorrelationBruteForce(x, max_lag, policy));
  }
  state.SetLabel(path == 0   ? "fft"
                 : path == 1 ? asap::kern::ActiveKernels(policy.simd).name
                             : "scalar");
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Acf)
    ->ArgNames({"n", "path"})
    ->ArgsProduct({{100, 400, 1600, 3200, 8000}, {0, 1, 2}});

void BM_Sma(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::window::Sma(x, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Sma)->Range(1 << 10, 1 << 20);

void BM_RollingMoments(benchmark::State& state) {
  const size_t n = 1 << 16;
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    asap::stats::RollingMoments roll(256);
    for (double v : x) {
      roll.Push(v);
    }
    benchmark::DoNotOptimize(roll.kurtosis());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RollingMoments);

void BM_EvaluateWindow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::EvaluateWindow(x, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EvaluateWindow)->Range(1 << 10, 1 << 16);

// --- Naive vs fused candidate evaluation -------------------------------------
//
// The pair below measures the SeriesContext re-platform head to head:
// identical window, identical series, one naive materialize+multi-pass
// evaluation vs one fused allocation-free ScoreWindow pass. Context
// construction is excluded (it is amortized over every candidate of a
// search); run with --benchmark_filter='WindowScore' to see the ratio.
void BM_WindowScoreNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::EvaluateWindow(x, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_WindowScoreNaive)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_WindowScoreFused(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SeriesContext ctx(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::ScoreWindow(ctx, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_WindowScoreFused)->Arg(10000)->Arg(100000)->Arg(1000000);

// Same comparison through the full search stack: AsapSearch with the
// fused evaluator vs the same search forced onto the naive evaluator.
// Note both sides pay SeriesContext construction (the public search
// entry points always build one), so this measures the end-to-end
// search as shipped in each mode; the per-candidate kernel ratio is
// the WindowScore pair above.
void BM_AsapSearchNaiveEvaluator(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SearchOptions options;
  options.use_naive_evaluator = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::AsapSearch(x, options));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AsapSearchNaiveEvaluator)->Range(1 << 10, 1 << 13);

void BM_AsapSearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::AsapSearch(x, {}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AsapSearch)->Range(1 << 10, 1 << 13);

void BM_SmoothEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SmoothOptions options;
  options.resolution = 800;
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::Smooth(x, options).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SmoothEndToEnd)->Range(1 << 12, 1 << 20);

void BM_M4Reduce(benchmark::State& state) {
  std::vector<double> x = MakeSignal(1 << 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::baselines::M4Reduce(x, 1200));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_M4Reduce);

void BM_PaaReduce(benchmark::State& state) {
  std::vector<double> x = MakeSignal(1 << 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::baselines::PaaReduce(x, 1200));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_PaaReduce);

void BM_VisvalingamSimplify(benchmark::State& state) {
  std::vector<double> x = MakeSignal(1 << 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::baselines::VisvalingamSimplify(x, 800));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 15));
}
BENCHMARK(BM_VisvalingamSimplify);

// --- Scalar vs SIMD kernel table ---------------------------------------------
//
// Side-by-side pairs for each dispatched kernel: the same work through
// kern::ScalarKernels() and through the runtime-selected SIMD table
// (identical results by contract — see core/kernels.h — so the pair
// isolates the vectorization win). On a host without AVX2/NEON, or
// with ASAP_DISABLE_SIMD set, the Simd variants measure scalar again.
// Run with --benchmark_filter='ScalarVsSimd' for just these.

asap::ExecPolicy SimdOnlyPolicy(asap::SimdMode mode) {
  asap::ExecPolicy policy;
  policy.threads = 1;
  policy.simd = mode;
  return policy;
}

void BM_ScalarVsSimd_ScoreWindow(benchmark::State& state, asap::SimdMode mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SeriesContext ctx(x);
  const asap::ExecPolicy policy = SimdOnlyPolicy(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::ScoreWindow(ctx, n / 20, policy));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
void BM_ScoreWindowScalar(benchmark::State& state) {
  BM_ScalarVsSimd_ScoreWindow(state, asap::SimdMode::kScalar);
}
void BM_ScoreWindowSimd(benchmark::State& state) {
  BM_ScalarVsSimd_ScoreWindow(state, asap::SimdMode::kAuto);
}
BENCHMARK(BM_ScoreWindowScalar)->Arg(100000)->Arg(1000000)->Arg(10000000);
BENCHMARK(BM_ScoreWindowSimd)->Arg(100000)->Arg(1000000)->Arg(10000000);

void BM_ScalarVsSimd_AbsDelta(benchmark::State& state, asap::SimdMode mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> newer = MakeSignal(n);
  const std::vector<double> older = MakeSignal(n + 1);
  std::vector<double> delta(n);
  const asap::kern::KernelTable& kt = asap::kern::ActiveKernels(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kt.abs_delta(newer.data(), older.data(), n, delta.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
void BM_AbsDeltaScalar(benchmark::State& state) {
  BM_ScalarVsSimd_AbsDelta(state, asap::SimdMode::kScalar);
}
void BM_AbsDeltaSimd(benchmark::State& state) {
  BM_ScalarVsSimd_AbsDelta(state, asap::SimdMode::kAuto);
}
BENCHMARK(BM_AbsDeltaScalar)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_AbsDeltaSimd)->Arg(1 << 16)->Arg(1 << 20);

void BM_ScalarVsSimd_ComplexNorm(benchmark::State& state,
                                 asap::SimdMode mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> signal = MakeSignal(2 * n);
  std::vector<double> interleaved = signal;
  const asap::kern::KernelTable& kt = asap::kern::ActiveKernels(mode);
  for (auto _ : state) {
    interleaved.assign(signal.begin(), signal.end());
    kt.complex_norm(interleaved.data(), n);
    benchmark::DoNotOptimize(interleaved.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
void BM_ComplexNormScalar(benchmark::State& state) {
  BM_ScalarVsSimd_ComplexNorm(state, asap::SimdMode::kScalar);
}
void BM_ComplexNormSimd(benchmark::State& state) {
  BM_ScalarVsSimd_ComplexNorm(state, asap::SimdMode::kAuto);
}
BENCHMARK(BM_ComplexNormScalar)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_ComplexNormSimd)->Arg(1 << 16)->Arg(1 << 20);

// Streaming ingest: per-point Push vs the pane-granular PushBatch
// path vs timestamped PushTimed, at a lazy refresh cadence where
// ingest (not the window search) dominates. range(0) is the batch
// size handed to the operator per call.

asap::StreamingAsap MakeIngestOperator(int64_t pane_width_ticks = 0) {
  asap::StreamingOptions options;
  options.resolution = 400;
  options.visible_points = 8000;
  options.refresh_every_points = 100000;  // ingest-bound
  options.pane_width_ticks = pane_width_ticks;
  return asap::StreamingAsap::Create(options).ValueOrDie();
}

void BM_StreamingIngestPerPointPush(benchmark::State& state) {
  const size_t chunk = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(chunk);
  asap::StreamingAsap op = MakeIngestOperator();
  for (auto _ : state) {
    for (double v : x) {
      benchmark::DoNotOptimize(op.Push(v));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(chunk));
}
BENCHMARK(BM_StreamingIngestPerPointPush)->Range(1 << 10, 1 << 16);

void BM_StreamingIngestPushBatch(benchmark::State& state) {
  const size_t chunk = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(chunk);
  asap::StreamingAsap op = MakeIngestOperator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.PushBatch(x.data(), x.size()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(chunk));
}
BENCHMARK(BM_StreamingIngestPushBatch)->Range(1 << 10, 1 << 16);

void BM_StreamingIngestPushTimed(benchmark::State& state) {
  // A uniform 1-tick clock with pane_size ticks per pane: the time
  // grid cuts the same panes the arrival clock does. Stamping each
  // batch (one store per point) is inside the timed region.
  const size_t chunk = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(chunk);
  std::vector<int64_t> ts(chunk);
  asap::StreamingAsap op = MakeIngestOperator(static_cast<int64_t>(
      asap::window::PointToPixelRatio(8000, 400)));
  int64_t clock = 0;
  for (auto _ : state) {
    for (int64_t& t : ts) {
      t = clock++;
    }
    benchmark::DoNotOptimize(op.PushTimed(x.data(), ts.data(), x.size()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(chunk));
}
BENCHMARK(BM_StreamingIngestPushTimed)->Range(1 << 10, 1 << 16);

// The on-demand refresh path at one refresh per pane: 8000 visible
// points at 400 px (20-point panes, a 400-pane search series), a
// seasonal signal with a 50-pane period. Each iteration pushes one
// pane, which triggers one refresh: pane means, context reset, ACF,
// CheckLastWindow and the ASAP search, frame publication. Items are
// refreshes.
void BM_StreamingRefreshPerPane(benchmark::State& state) {
  asap::StreamingOptions options;
  options.resolution = 400;
  options.visible_points = 8000;
  asap::StreamingAsap op = asap::StreamingAsap::Create(options).ValueOrDie();
  const size_t pane = op.pane_size();
  const size_t cycle = 4 * options.visible_points;
  asap::Pcg32 rng(17);
  const std::vector<double> x =
      asap::gen::Add(asap::gen::Sine(cycle + options.visible_points,
                                     50.0 * static_cast<double>(pane)),
                     asap::gen::WhiteNoise(&rng, cycle + options.visible_points,
                                           0.4));
  op.Prefill(std::vector<double>(x.begin(), x.begin() + options.visible_points));
  size_t pos = options.visible_points;
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.PushBatch(x.data() + pos, pane));
    pos = pos + pane < x.size() ? pos + pane : options.visible_points;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingRefreshPerPane);

// The per-refresh context rebuild alone: SeriesContext::Reset from a
// wrapped pane ring of n means (both runs non-empty), as a refresh
// calls it. Items are pane means.
void BM_SeriesContextReset(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> x = MakeSignal(n + n / 3);
  asap::window::PaneBuffer panes(/*pane_size=*/1, n);
  for (double v : x) {
    panes.Push(v);
  }
  asap::SeriesContext ctx;
  for (auto _ : state) {
    ctx.Reset(panes.Means());
    benchmark::DoNotOptimize(ctx.prefix2());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SeriesContextReset)->Arg(400)->Arg(4000);

}  // namespace

BENCHMARK_MAIN();
