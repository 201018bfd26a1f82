// Autocorrelation estimation.
//
// ASAP prunes its window search using the peaks of the sample
// autocorrelation function (paper §4.3). Two estimators compute the
// same definition:
//
//   * the FFT path (demean -> zero-pad -> FFT -> power spectrum ->
//     inverse FFT -> normalize by lag 0), O(n log n): the "two FFTs"
//     optimization the paper describes, the right tool when many lags
//     of a long series are needed;
//   * the direct path, O(n * maxLag) through the kernel table's
//     lag-major autocov kernel. A refresh searches a series about the
//     display width with maxLag ~ n/10; there the direct sums cost a
//     fraction of two complex FFTs, so ComputeAcfInfo
//     (core/acf_peaks.h) takes this path below a fixed cost budget.

#ifndef ASAP_FFT_AUTOCORRELATION_H_
#define ASAP_FFT_AUTOCORRELATION_H_

#include <cstddef>
#include <vector>

#include "common/exec_policy.h"

namespace asap {
namespace fft {

/// Sample ACF for lags 0..max_lag via FFT. Uses the biased estimator
///   acf[k] = sum_{i<n-k} (x_i - mean)(x_{i+k} - mean) / sum (x_i - mean)^2
/// so acf[0] == 1. Returns max_lag + 1 values. If the lag-0 sum is not a
/// positive finite variance (a constant series) all lags are defined as
/// 0 except lag 0 which is 1.
/// The policy threads/vectorizes the FFT stages and the power pass;
/// the returned values are bitwise-identical under every policy.
std::vector<double> AutocorrelationFft(const std::vector<double>& series,
                                       size_t max_lag,
                                       const ExecPolicy& policy = {});

/// Direct O(n * (max_lag + 1)) estimator of the same definition and
/// conventions: every lag k is the sum of (x_i - mean)(x_{i+k} - mean)
/// in ascending i (kern::KernelTable::autocov), divided by lag 0. The
/// values are bitwise-identical under every policy; the policy picks
/// the kernel implementation, and the sums run on the calling thread.
std::vector<double> AutocorrelationBruteForce(const std::vector<double>& series,
                                              size_t max_lag,
                                              const ExecPolicy& policy = {});

/// The mean both estimators centre on: the plain sum of series[0..n)
/// in ascending order, divided by n (0 when n == 0).
double CenteringMean(const double* series, size_t n);

/// The direct estimator over series[0..n) into caller-owned buffers,
/// centred on `mean`, which must be CenteringMean(series, n) (a caller
/// that sums the series in another pass passes it in and saves one):
/// `centered` is n doubles of scratch, `acf` receives max_lag + 1
/// values. Allocation-free.
void AutocorrelationBruteForce(const double* series, size_t n, double mean,
                               size_t max_lag, const ExecPolicy& policy,
                               double* centered, double* acf);

}  // namespace fft
}  // namespace asap

#endif  // ASAP_FFT_AUTOCORRELATION_H_
