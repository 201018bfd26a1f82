#include "window/sma.h"

#include "common/macros.h"

namespace asap {
namespace window {

std::vector<double> Sma(const std::vector<double>& x, size_t w) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_LE(w, x.size());
  std::vector<double> out(x.size() - w + 1);
  Sma(x.data(), x.size(), w, out.data());
  return out;
}

void Sma(const double* x, size_t n, size_t w, double* out) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_LE(w, n);
  const double inv_w = 1.0 / static_cast<double>(w);

  double sum = 0.0;
  for (size_t i = 0; i < w; ++i) {
    sum += x[i];
  }
  out[0] = sum * inv_w;
  size_t since_resum = 0;
  for (size_t i = 1; i + w <= n; ++i) {
    sum += x[i + w - 1] - x[i - 1];
    if (++since_resum >= kRecomputeInterval) {
      sum = 0.0;
      for (size_t j = i; j < i + w; ++j) {
        sum += x[j];
      }
      since_resum = 0;
    }
    out[i] = sum * inv_w;
  }
}

std::vector<double> SmaWithSlide(const std::vector<double>& x, size_t w,
                                 size_t slide) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_GE(slide, 1u);
  ASAP_CHECK_LE(w, x.size());
  std::vector<double> out;
  out.reserve(x.size() / slide + 1);
  const double inv_w = 1.0 / static_cast<double>(w);

  if (slide >= w) {
    // Disjoint windows share no points; a fresh sum per window is both
    // the cheapest and the drift-free evaluation order.
    for (size_t begin = 0; begin + w <= x.size(); begin += slide) {
      double sum = 0.0;
      for (size_t i = begin; i < begin + w; ++i) {
        sum += x[i];
      }
      out.push_back(sum * inv_w);
    }
    return out;
  }

  // Overlapping windows: advance a running sum by `slide` points per
  // step (O(slide) instead of O(w)), with the same periodic
  // re-summation as Sma() so floating-point drift stays bounded no
  // matter how long the series is.
  double sum = 0.0;
  for (size_t i = 0; i < w; ++i) {
    sum += x[i];
  }
  out.push_back(sum * inv_w);
  size_t updates_since_resum = 0;
  for (size_t begin = slide; begin + w <= x.size(); begin += slide) {
    for (size_t i = begin - slide; i < begin; ++i) {
      sum -= x[i];
    }
    for (size_t i = begin + w - slide; i < begin + w; ++i) {
      sum += x[i];
    }
    updates_since_resum += slide;
    if (updates_since_resum >= kRecomputeInterval) {
      sum = 0.0;
      for (size_t i = begin; i < begin + w; ++i) {
        sum += x[i];
      }
      updates_since_resum = 0;
    }
    out.push_back(sum * inv_w);
  }
  return out;
}

IncrementalSma::IncrementalSma(size_t w) : w_(w) { ASAP_CHECK_GE(w, 1u); }

std::optional<double> IncrementalSma::Push(double x) {
  if (buffer_.size() == w_) {
    sum_ -= buffer_.front();
    buffer_.pop_front();
  }
  buffer_.push_back(x);
  sum_ += x;
  if (++pushes_since_recompute_ >= kRecomputeInterval) {
    sum_ = 0.0;
    for (double v : buffer_) {
      sum_ += v;
    }
    pushes_since_recompute_ = 0;
  }
  if (buffer_.size() < w_) {
    return std::nullopt;
  }
  return sum_ / static_cast<double>(w_);
}

void IncrementalSma::Reset() {
  buffer_.clear();
  sum_ = 0.0;
  pushes_since_recompute_ = 0;
}

}  // namespace window
}  // namespace asap
