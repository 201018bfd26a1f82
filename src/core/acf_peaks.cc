#include "core/acf_peaks.h"

#include <algorithm>

#include "common/macros.h"
#include "fft/autocorrelation.h"

namespace asap {

namespace {

// Appends the peaks of acf[0..size) to `peaks`: lag 0 is trivially 1
// and lag 1 reflects sampling continuity rather than periodicity, so
// peaks start at lag 2.
void AppendAcfPeaks(const double* acf, size_t size, double peak_threshold,
                    std::vector<size_t>* peaks) {
  for (size_t k = 2; k + 1 < size; ++k) {
    if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1] &&
        acf[k] > peak_threshold) {
      peaks->push_back(k);
    }
  }
}

}  // namespace

std::vector<size_t> FindAcfPeaks(const std::vector<double>& acf,
                                 double peak_threshold) {
  std::vector<size_t> peaks;
  AppendAcfPeaks(acf.data(), acf.size(), peak_threshold, &peaks);
  return peaks;
}

AcfInfo ComputeAcfInfo(const std::vector<double>& series, size_t max_lag,
                       double peak_threshold, const ExecPolicy& policy) {
  AcfInfo info;
  std::vector<double> scratch;
  ComputeAcfInfo(series, fft::CenteringMean(series.data(), series.size()),
                 max_lag, peak_threshold, policy, &info, &scratch);
  return info;
}

void ComputeAcfInfo(const std::vector<double>& series, double mean,
                    size_t max_lag, double peak_threshold,
                    const ExecPolicy& policy, AcfInfo* info,
                    std::vector<double>* scratch) {
  const size_t n = series.size();
  ASAP_CHECK_GE(n, 2u);
  max_lag = std::min(max_lag, n - 1);
  if (UseDirectAcf(n, max_lag)) {
    scratch->resize(n);
    info->correlations.resize(max_lag + 1);
    fft::AutocorrelationBruteForce(series.data(), n, mean, max_lag, policy,
                                   scratch->data(),
                                   info->correlations.data());
  } else {
    info->correlations = fft::AutocorrelationFft(series, max_lag, policy);
  }
  info->peaks.clear();
  AppendAcfPeaks(info->correlations.data(), info->correlations.size(),
                 peak_threshold, &info->peaks);
  info->max_acf = 0.0;
  for (size_t p : info->peaks) {
    info->max_acf = std::max(info->max_acf, info->correlations[p]);
  }
}

}  // namespace asap
