// Scalar reference implementations of the kernel table, written to
// emulate the canonical 4-lane reduction shape exactly (see
// core/kernels.h). This translation unit is built with
// -ffp-contract=off so no multiply-add here can be contracted into an
// FMA the vector paths do not perform.

#include "core/kernels.h"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace asap {
namespace kern {

namespace {

MomentPartials ScoreSegmentScalar(const double* prefix, size_t w,
                                  double inv_w, double mean_u, double mean_d,
                                  size_t begin, size_t end) {
  MomentPartials out;
  if (begin >= end) {
    return out;
  }
  const size_t n4 = begin + (end - begin) / 4 * 4;
  double s2[4] = {0.0, 0.0, 0.0, 0.0};
  double s4[4] = {0.0, 0.0, 0.0, 0.0};
  double sd2[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = begin; i < n4; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const size_t j = i + static_cast<size_t>(l);
      const double u = (prefix[j + w] - prefix[j]) * inv_w;
      const double up = (prefix[j + w - 1] - prefix[j - 1]) * inv_w;
      const double dy = u - mean_u;
      const double dy2 = dy * dy;
      s2[l] += dy2;
      s4[l] += dy2 * dy2;
      const double dd = (u - up) - mean_d;
      sd2[l] += dd * dd;
    }
  }
  out.s2 = (s2[0] + s2[2]) + (s2[1] + s2[3]);
  out.s4 = (s4[0] + s4[2]) + (s4[1] + s4[3]);
  out.sd2 = (sd2[0] + sd2[2]) + (sd2[1] + sd2[3]);
  for (size_t j = n4; j < end; ++j) {
    const double u = (prefix[j + w] - prefix[j]) * inv_w;
    const double up = (prefix[j + w - 1] - prefix[j - 1]) * inv_w;
    const double dy = u - mean_u;
    const double dy2 = dy * dy;
    out.s2 += dy2;
    out.s4 += dy2 * dy2;
    const double dd = (u - up) - mean_d;
    out.sd2 += dd * dd;
  }
  return out;
}

AbsDeltaPartials AbsDeltaScalar(const double* newer, const double* older,
                                size_t len, double* delta) {
  AbsDeltaPartials out;
  const size_t n4 = len / 4 * 4;
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  double mx[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n4; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const size_t j = i + static_cast<size_t>(l);
      const double d = newer[j] - older[j];
      delta[j] = d;
      const double a = std::fabs(d);
      s[l] += a;
      mx[l] = (a > mx[l]) ? a : mx[l];
    }
  }
  out.sum_abs = (s[0] + s[2]) + (s[1] + s[3]);
  const double m02 = (mx[0] > mx[2]) ? mx[0] : mx[2];
  const double m13 = (mx[1] > mx[3]) ? mx[1] : mx[3];
  out.max_abs = (m02 > m13) ? m02 : m13;
  for (size_t j = n4; j < len; ++j) {
    const double d = newer[j] - older[j];
    delta[j] = d;
    const double a = std::fabs(d);
    out.sum_abs += a;
    out.max_abs = (a > out.max_abs) ? a : out.max_abs;
  }
  return out;
}

void Gather4Scalar(const double* const* bases, size_t offset, size_t count,
                   double* c0, double* c1, double* c2, double* c3) {
  for (size_t s = 0; s < count; ++s) {
    const double* r = bases[s] + offset;
    c0[s] = r[0];
    c1[s] = r[1];
    c2[s] = r[2];
    c3[s] = r[3];
  }
}

ColumnMinMax ColumnMinMaxScalar(const double* col, size_t n) {
  ColumnMinMax out;
  const double inf = std::numeric_limits<double>::infinity();
  double mn[4] = {inf, inf, inf, inf};
  double mx[4] = {-inf, -inf, -inf, -inf};
  bool has_nan = false;
  const size_t n4 = n / 4 * 4;
  for (size_t i = 0; i < n4; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double v = col[i + static_cast<size_t>(l)];
      has_nan = has_nan || (v != v);
      mn[l] = (v < mn[l]) ? v : mn[l];
      mx[l] = (v > mx[l]) ? v : mx[l];
    }
  }
  const double lo02 = (mn[0] < mn[2]) ? mn[0] : mn[2];
  const double lo13 = (mn[1] < mn[3]) ? mn[1] : mn[3];
  out.min_v = (lo02 < lo13) ? lo02 : lo13;
  const double hi02 = (mx[0] > mx[2]) ? mx[0] : mx[2];
  const double hi13 = (mx[1] > mx[3]) ? mx[1] : mx[3];
  out.max_v = (hi02 > hi13) ? hi02 : hi13;
  for (size_t i = n4; i < n; ++i) {
    const double v = col[i];
    has_nan = has_nan || (v != v);
    out.min_v = (v < out.min_v) ? v : out.min_v;
    out.max_v = (v > out.max_v) ? v : out.max_v;
  }
  out.has_nan = has_nan;
  return out;
}

void BucketizeScalar(const double* col, size_t n, double min_v, double scale,
                     unsigned char* bucket, unsigned int* hist256) {
  for (size_t i = 0; i < n; ++i) {
    double t = (col[i] - min_v) * scale;
    t = (t > 0.0) ? t : 0.0;
    t = (t < 255.0) ? t : 255.0;
    const unsigned char b = static_cast<unsigned char>(static_cast<int>(t));
    bucket[i] = b;
    ++hist256[b];
  }
}

void ComplexNormScalar(double* interleaved, size_t n_complex) {
  for (size_t k = 0; k < n_complex; ++k) {
    const double re = interleaved[2 * k];
    const double im = interleaved[2 * k + 1];
    interleaved[2 * k] = re * re + im * im;
    interleaved[2 * k + 1] = 0.0;
  }
}

void AutocovScalar(const double* d, size_t n, size_t lags, double* c) {
  for (size_t k = 0; k < lags; ++k) {
    c[k] = 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    const double di = d[i];
    const size_t stop = lags < n - i ? lags : n - i;
    for (size_t k = 0; k < stop; ++k) {
      c[k] += di * d[i + k];
    }
  }
}

const KernelTable kScalarTable = {
    "scalar",           ScoreSegmentScalar, AbsDeltaScalar,
    Gather4Scalar,      ColumnMinMaxScalar, BucketizeScalar,
    ComplexNormScalar,  AutocovScalar,
};

const KernelTable* PickSimdTable() {
#if defined(ASAP_DISABLE_SIMD)
  return nullptr;
#else
  if (std::getenv("ASAP_DISABLE_SIMD") != nullptr) {
    return nullptr;
  }
  if (const KernelTable* t = internal::GetNeonKernels()) {
    return t;
  }
  if (const KernelTable* t = internal::GetAvx2Kernels()) {
    return t;
  }
  return nullptr;
#endif
}

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

const KernelTable& ActiveKernels(SimdMode mode) {
  static const KernelTable* simd = PickSimdTable();
  if (mode == SimdMode::kScalar || simd == nullptr) {
    return kScalarTable;
  }
  return *simd;
}

bool SimdAvailable() {
  return &ActiveKernels(SimdMode::kAuto) != &kScalarTable;
}

}  // namespace kern
}  // namespace asap
