// Autocorrelation peak detection (paper §4.3.3, "Autocorrelation
// peaks"). Peaks — local maxima of the ACF — correspond to candidate
// periods; ASAP restricts its candidate windows to them.

#ifndef ASAP_CORE_ACF_PEAKS_H_
#define ASAP_CORE_ACF_PEAKS_H_

#include <cstddef>
#include <vector>

#include "common/exec_policy.h"

namespace asap {

/// ACF summary used by the searches.
struct AcfInfo {
  /// acf[k] for k = 0..max_lag (acf[0] == 1).
  std::vector<double> correlations;
  /// Lags of detected peaks, ascending. Empty for aperiodic series.
  std::vector<size_t> peaks;
  /// Largest correlation among the peaks (0 if none).
  double max_acf = 0.0;
};

/// Multiply-adds up to which ComputeAcfInfo sums the ACF directly
/// instead of by FFT. Calibrated with bench_micro_kernels' BM_Acf on a
/// 2.1 GHz 4-vCPU x86-64 host with L = n/10 + 1 lags: at n = 3200
/// (L * n ~ 2^20) the scalar sums break even with the FFT (550 vs
/// 569 us) while the AVX2 sums take 89 us. The rule must suit every
/// kernel table, so the scalar crossover sets it.
inline constexpr size_t kDirectAcfBudget = size_t{1} << 20;

/// The path rule: true iff ComputeAcfInfo computes lags 0..max_lag of
/// an n-point series directly, i.e. (max_lag + 1) * n <=
/// kDirectAcfBudget. A pure function of (n, max_lag) — never of the
/// SIMD mode or thread count — so every ExecPolicy takes the same path
/// and gets the same bits. Requires n >= 1.
inline bool UseDirectAcf(size_t n, size_t max_lag) {
  return max_lag + 1 <= kDirectAcfBudget / n;
}

/// Computes the ACF up to max_lag (clamped to n - 1) and detects peaks:
/// interior local maxima with correlation > threshold. The paper's
/// public implementations use threshold = 0.2; below it, periodicity is
/// too weak for the Eq. 5/6 pruning rules to be trustworthy and ASAP
/// falls back to binary search.
/// The ACF comes from fft::AutocorrelationBruteForce when
/// UseDirectAcf(n, max_lag) — the refresh-sized case: a series about
/// the display width with max_lag ~ n/10 — and from
/// fft::AutocorrelationFft otherwise. Both give acf[0] == 1 and an
/// all-zero tail for a degenerate (constant) series. The policy
/// vectorizes the direct sums or parallelizes/vectorizes the FFT
/// passes; the computed values are bitwise-identical under every
/// policy.
AcfInfo ComputeAcfInfo(const std::vector<double>& series, size_t max_lag,
                       double peak_threshold = 0.2,
                       const ExecPolicy& policy = {});

/// The same computation into `info`, reusing its vectors, with
/// `scratch` holding the direct path's centred series: on the direct
/// path it allocates nothing once their capacities suffice (the FFT
/// path still allocates its transform buffers). `mean` must be
/// fft::CenteringMean of the series; the direct path centres on it,
/// and the FFT path, which costs far more than one sum, recomputes it.
void ComputeAcfInfo(const std::vector<double>& series, double mean,
                    size_t max_lag, double peak_threshold,
                    const ExecPolicy& policy, AcfInfo* info,
                    std::vector<double>* scratch);

/// Peak detection over an existing ACF vector (lags 1..size-1).
std::vector<size_t> FindAcfPeaks(const std::vector<double>& acf,
                                 double peak_threshold = 0.2);

}  // namespace asap

#endif  // ASAP_CORE_ACF_PEAKS_H_
