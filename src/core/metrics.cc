#include "core/metrics.h"

#include <cmath>

#include "common/macros.h"
#include "stats/descriptive.h"
#include "stats/welford.h"

namespace asap {

double Roughness(const std::vector<double>& x) {
  if (x.size() < 3) {
    return 0.0;
  }
  // One allocation-free pass of the difference recurrence instead of
  // materializing the difference series and sweeping it twice; every
  // caller (context construction, the naive evaluator, the render
  // metrics) shares the saving.
  stats::DiffAccumulator acc;
  for (double v : x) {
    acc.Add(v);
  }
  return acc.roughness();
}

double Kurtosis(const std::vector<double>& x) { return stats::Kurtosis(x); }

double IidRoughness(double sigma, size_t w) {
  ASAP_CHECK_GE(w, 1u);
  return std::sqrt(2.0) * sigma / static_cast<double>(w);
}

double IidKurtosis(double kurtosis_x, size_t w) {
  ASAP_CHECK_GE(w, 1u);
  return 3.0 + (kurtosis_x - 3.0) / static_cast<double>(w);
}

double RoughnessEstimate(double sigma, size_t n, size_t w, double acf_w) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_GT(n, w);
  const double ratio =
      static_cast<double>(n) / static_cast<double>(n - w);
  double radicand = 1.0 - ratio * acf_w;
  if (radicand < 0.0) {
    radicand = 0.0;
  }
  return std::sqrt(2.0) * sigma / static_cast<double>(w) *
         std::sqrt(radicand);
}

bool EstimatedRougher(size_t w_candidate, double acf_candidate, size_t w_best,
                      double acf_best) {
  ASAP_CHECK_GE(w_candidate, 1u);
  ASAP_CHECK_GE(w_best, 1u);
  const double lhs = std::sqrt(std::max(0.0, 1.0 - acf_candidate)) /
                     static_cast<double>(w_candidate);
  const double rhs = std::sqrt(std::max(0.0, 1.0 - acf_best)) /
                     static_cast<double>(w_best);
  return lhs > rhs;
}

double WindowLowerBound(size_t w, double acf_w, double max_acf) {
  ASAP_CHECK_GE(w, 1u);
  const double denom = 1.0 - acf_w;
  if (denom <= 0.0) {
    // Perfectly correlated lag: nothing smaller can compete.
    return static_cast<double>(w);
  }
  double ratio = (1.0 - max_acf) / denom;
  if (ratio < 0.0) {
    ratio = 0.0;
  }
  return static_cast<double>(w) * std::sqrt(ratio);
}

}  // namespace asap
