#include "stats/welford.h"

#include <cmath>

namespace asap {
namespace stats {

void WelfordAccumulator::Add(double x) {
  const double n1 = static_cast<double>(count_);
  count_ += 1;
  const double n = static_cast<double>(count_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

void WelfordAccumulator::Merge(const WelfordAccumulator& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ +
                    delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + other.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ = (na * mean_ + nb * other.mean_) / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  count_ += other.count_;
}

void WelfordAccumulator::Reset() { *this = WelfordAccumulator(); }

double WelfordAccumulator::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double WelfordAccumulator::stddev() const { return std::sqrt(variance()); }

double WelfordAccumulator::skewness() const {
  const double var = variance();
  if (count_ < 2 || var <= 0.0) {
    return 0.0;
  }
  const double n = static_cast<double>(count_);
  const double sd = std::sqrt(var);
  return (m3_ / n) / (sd * sd * sd);
}

double WelfordAccumulator::kurtosis() const {
  const double var = variance();
  if (count_ < 2 || var <= 0.0) {
    return 0.0;
  }
  const double n = static_cast<double>(count_);
  return (m4_ / n) / (var * var);
}

void ScoreAccumulator::Add(double y) {
  const double n1 = static_cast<double>(count_);
  count_ += 1;
  const double n = static_cast<double>(count_);
  const double delta = y - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
  diff_.Add(y);
}

void ScoreAccumulator::Reset() { *this = ScoreAccumulator(); }

double ScoreAccumulator::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double ScoreAccumulator::kurtosis() const {
  const double var = variance();
  if (count_ < 2 || var <= 0.0) {
    return 0.0;
  }
  const double n = static_cast<double>(count_);
  return (m4_ / n) / (var * var);
}

double ScoreAccumulator::diff_variance() const { return diff_.variance(); }

double ScoreAccumulator::roughness() const { return diff_.roughness(); }

}  // namespace stats
}  // namespace asap
