#include "core/acf_peaks.h"

#include <algorithm>

#include "common/macros.h"
#include "fft/autocorrelation.h"

namespace asap {

std::vector<size_t> FindAcfPeaks(const std::vector<double>& acf,
                                 double peak_threshold) {
  std::vector<size_t> peaks;
  if (acf.size() < 3) {
    return peaks;
  }
  // Lag 0 is trivially 1 and lag 1 reflects sampling continuity rather
  // than periodicity; peaks start at lag 2.
  for (size_t k = 2; k + 1 < acf.size(); ++k) {
    if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1] &&
        acf[k] > peak_threshold) {
      peaks.push_back(k);
    }
  }
  return peaks;
}

AcfInfo ComputeAcfInfo(const std::vector<double>& series, size_t max_lag,
                       double peak_threshold, const ExecPolicy& policy) {
  ASAP_CHECK_GE(series.size(), 2u);
  max_lag = std::min(max_lag, series.size() - 1);
  AcfInfo info;
  info.correlations =
      UseDirectAcf(series.size(), max_lag)
          ? fft::AutocorrelationBruteForce(series, max_lag, policy)
          : fft::AutocorrelationFft(series, max_lag, policy);
  info.peaks = FindAcfPeaks(info.correlations, peak_threshold);
  for (size_t p : info.peaks) {
    info.max_acf = std::max(info.max_acf, info.correlations[p]);
  }
  return info;
}

}  // namespace asap
