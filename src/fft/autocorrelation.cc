#include "fft/autocorrelation.h"

#include <cmath>

#include "common/macros.h"
#include "common/task_pool.h"
#include "core/kernels.h"
#include "fft/fft.h"

namespace asap {
namespace fft {

namespace {
// Turns autocovariances c[0..lags) into correlations c[k] / c[0],
// with acf[0] = 1 and an all-zero tail when c[0] is not a positive
// finite variance (a constant series has no correlation structure).
void NormalizeByLagZero(double* c, size_t lags) {
  const double c0 = c[0];
  c[0] = 1.0;
  const bool degenerate = c0 <= 0.0 || !std::isfinite(c0);
  for (size_t k = 1; k < lags; ++k) {
    c[k] = degenerate ? 0.0 : c[k] / c0;
  }
}
}  // namespace

double CenteringMean(const double* series, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += series[i];
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> AutocorrelationFft(const std::vector<double>& series,
                                       size_t max_lag,
                                       const ExecPolicy& policy) {
  const size_t n = series.size();
  ASAP_CHECK_GE(n, 1u);
  ASAP_CHECK_LT(max_lag, n);

  const double mean = CenteringMean(series.data(), n);
  // Zero-pad to >= 2n so the circular correlation equals the linear one
  // for all lags of interest.
  const size_t m = NextPowerOfTwo(2 * n);
  std::vector<Complex> buf(m, Complex(0.0, 0.0));
  for (size_t i = 0; i < n; ++i) {
    buf[i] = Complex(series[i] - mean, 0.0);
  }
  TransformRadix2(&buf, /*inverse=*/false, policy);
  // Power pass |X_k|^2 through the kernel table: the per-element
  // re*re + im*im is exact in every implementation, and elements are
  // independent, so chunking it is free of ordering effects.
  {
    double* interleaved = reinterpret_cast<double*>(buf.data());
    const kern::KernelTable& kt = kern::ActiveKernels(policy.simd);
    const size_t chunks = kern::ChunksFor(m);
    ParallelChunks(policy, chunks, [&](size_t c) {
      const size_t b0 = kern::ChunkBound(m, chunks, c);
      const size_t b1 = kern::ChunkBound(m, chunks, c + 1);
      kt.complex_norm(interleaved + 2 * b0, b1 - b0);
    });
  }
  TransformRadix2(&buf, /*inverse=*/true, policy);

  std::vector<double> acf(max_lag + 1);
  for (size_t k = 0; k <= max_lag; ++k) {
    acf[k] = buf[k].real();
  }
  NormalizeByLagZero(acf.data(), acf.size());
  return acf;
}

std::vector<double> AutocorrelationBruteForce(const std::vector<double>& series,
                                              size_t max_lag,
                                              const ExecPolicy& policy) {
  std::vector<double> centered(series.size());
  std::vector<double> acf(max_lag + 1);
  AutocorrelationBruteForce(series.data(), series.size(),
                            CenteringMean(series.data(), series.size()),
                            max_lag, policy, centered.data(), acf.data());
  return acf;
}

void AutocorrelationBruteForce(const double* series, size_t n, double mean,
                               size_t max_lag, const ExecPolicy& policy,
                               double* centered, double* acf) {
  ASAP_CHECK_GE(n, 1u);
  ASAP_CHECK_LT(max_lag, n);
  for (size_t i = 0; i < n; ++i) {
    centered[i] = series[i] - mean;
  }
  kern::ActiveKernels(policy.simd).autocov(centered, n, max_lag + 1, acf);
  NormalizeByLagZero(acf, max_lag + 1);
}

}  // namespace fft
}  // namespace asap
