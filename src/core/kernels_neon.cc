// NEON (AArch64) implementations of the kernel table. Built with
// -ffp-contract=off (the AArch64 baseline has FMA; the canonical
// reduction shape does not). NEON registers are 2 doubles wide, so
// the canonical 4 lanes live in two registers: A = lanes (0, 1),
// B = lanes (2, 3); the merge vaddq(A, B) then lane0 + lane1 is
// exactly (l0 + l2) + (l1 + l3). Min/max use the compare + select
// idiom (vcgtq/vcltq + vbslq), NOT vmaxq/vminq — ARM's fmax/fmin
// propagate NaN, which would diverge from the canonical
// `(a > b) ? a : b` select semantics. Kernels with no cross-element
// reduction (gather4, bucketize, complex_norm) are per-element exact
// in any implementation; they use the plain scalar loops here. autocov
// spreads independent lags across lanes, 2 per register.

#include "core/kernels.h"

#if defined(__aarch64__) && !defined(ASAP_DISABLE_SIMD)

#include <arm_neon.h>

#include <cmath>
#include <limits>

#include "core/kernels_autocov.h"

namespace asap {
namespace kern {
namespace {

inline float64x2_t SelectMax(float64x2_t a, float64x2_t acc) {
  // (a > acc) ? a : acc, NaN keeps the accumulator.
  return vbslq_f64(vcgtq_f64(a, acc), a, acc);
}

inline float64x2_t SelectMin(float64x2_t a, float64x2_t acc) {
  return vbslq_f64(vcltq_f64(a, acc), a, acc);
}

inline double MergeAdd(float64x2_t a, float64x2_t b) {
  const float64x2_t halves = vaddq_f64(a, b);  // (l0 + l2, l1 + l3)
  return vgetq_lane_f64(halves, 0) + vgetq_lane_f64(halves, 1);
}

MomentPartials ScoreSegmentNeon(const double* prefix, size_t w,
                                double inv_w, double mean_u, double mean_d,
                                size_t begin, size_t end) {
  MomentPartials out;
  if (begin >= end) {
    return out;
  }
  const size_t n4 = begin + (end - begin) / 4 * 4;
  const float64x2_t vinvw = vdupq_n_f64(inv_w);
  const float64x2_t vmu = vdupq_n_f64(mean_u);
  const float64x2_t vmd = vdupq_n_f64(mean_d);
  float64x2_t s2a = vdupq_n_f64(0.0), s2b = vdupq_n_f64(0.0);
  float64x2_t s4a = vdupq_n_f64(0.0), s4b = vdupq_n_f64(0.0);
  float64x2_t sd2a = vdupq_n_f64(0.0), sd2b = vdupq_n_f64(0.0);
  for (size_t i = begin; i < n4; i += 4) {
    const float64x2_t ua = vmulq_f64(
        vsubq_f64(vld1q_f64(prefix + i + w), vld1q_f64(prefix + i)), vinvw);
    const float64x2_t ub = vmulq_f64(
        vsubq_f64(vld1q_f64(prefix + i + 2 + w), vld1q_f64(prefix + i + 2)),
        vinvw);
    const float64x2_t upa = vmulq_f64(
        vsubq_f64(vld1q_f64(prefix + i + w - 1), vld1q_f64(prefix + i - 1)),
        vinvw);
    const float64x2_t upb = vmulq_f64(
        vsubq_f64(vld1q_f64(prefix + i + 1 + w), vld1q_f64(prefix + i + 1)),
        vinvw);
    const float64x2_t dya = vsubq_f64(ua, vmu);
    const float64x2_t dyb = vsubq_f64(ub, vmu);
    const float64x2_t dy2a = vmulq_f64(dya, dya);
    const float64x2_t dy2b = vmulq_f64(dyb, dyb);
    s2a = vaddq_f64(s2a, dy2a);
    s2b = vaddq_f64(s2b, dy2b);
    s4a = vaddq_f64(s4a, vmulq_f64(dy2a, dy2a));
    s4b = vaddq_f64(s4b, vmulq_f64(dy2b, dy2b));
    const float64x2_t dda = vsubq_f64(vsubq_f64(ua, upa), vmd);
    const float64x2_t ddb = vsubq_f64(vsubq_f64(ub, upb), vmd);
    sd2a = vaddq_f64(sd2a, vmulq_f64(dda, dda));
    sd2b = vaddq_f64(sd2b, vmulq_f64(ddb, ddb));
  }
  out.s2 = MergeAdd(s2a, s2b);
  out.s4 = MergeAdd(s4a, s4b);
  out.sd2 = MergeAdd(sd2a, sd2b);
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

AbsDeltaPartials AbsDeltaNeon(const double* newer, const double* older,
                              size_t len, double* delta) {
  AbsDeltaPartials out;
  const size_t n4 = len / 4 * 4;
  float64x2_t suma = vdupq_n_f64(0.0), sumb = vdupq_n_f64(0.0);
  float64x2_t maxa = vdupq_n_f64(0.0), maxb = vdupq_n_f64(0.0);
  for (size_t i = 0; i < n4; i += 4) {
    const float64x2_t da =
        vsubq_f64(vld1q_f64(newer + i), vld1q_f64(older + i));
    const float64x2_t db =
        vsubq_f64(vld1q_f64(newer + i + 2), vld1q_f64(older + i + 2));
    vst1q_f64(delta + i, da);
    vst1q_f64(delta + i + 2, db);
    const float64x2_t aa = vabsq_f64(da);
    const float64x2_t ab = vabsq_f64(db);
    suma = vaddq_f64(suma, aa);
    sumb = vaddq_f64(sumb, ab);
    maxa = SelectMax(aa, maxa);
    maxb = SelectMax(ab, maxb);
  }
  out.sum_abs = MergeAdd(suma, sumb);
  // A holds lanes (0, 1), B lanes (2, 3): SelectMax(A, B) is the
  // canonical pairwise (l0, l2) / (l1, l3) merge; finish scalar.
  const float64x2_t mm = SelectMax(maxa, maxb);
  const double m02 = vgetq_lane_f64(mm, 0);
  const double m13 = vgetq_lane_f64(mm, 1);
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

ColumnMinMax ColumnMinMaxNeon(const double* col, size_t n) {
  ColumnMinMax out;
  const double inf = std::numeric_limits<double>::infinity();
  float64x2_t mna = vdupq_n_f64(inf), mnb = vdupq_n_f64(inf);
  float64x2_t mxa = vdupq_n_f64(-inf), mxb = vdupq_n_f64(-inf);
  uint64x2_t nana = vdupq_n_u64(0), nanb = vdupq_n_u64(0);
  const size_t n4 = n / 4 * 4;
  for (size_t i = 0; i < n4; i += 4) {
    const float64x2_t va = vld1q_f64(col + i);
    const float64x2_t vb = vld1q_f64(col + i + 2);
    // v == v is false only for NaN.
    nana = vorrq_u64(nana, veorq_u64(vceqq_f64(va, va), vdupq_n_u64(~0ull)));
    nanb = vorrq_u64(nanb, veorq_u64(vceqq_f64(vb, vb), vdupq_n_u64(~0ull)));
    mna = SelectMin(va, mna);
    mnb = SelectMin(vb, mnb);
    mxa = SelectMax(va, mxa);
    mxb = SelectMax(vb, mxb);
  }
  const float64x2_t mn = SelectMin(mna, mnb);
  const double lo02 = vgetq_lane_f64(mn, 0);
  const double lo13 = vgetq_lane_f64(mn, 1);
  out.min_v = (lo02 < lo13) ? lo02 : lo13;
  const float64x2_t mx = SelectMax(mxa, mxb);
  const double hi02 = vgetq_lane_f64(mx, 0);
  const double hi13 = vgetq_lane_f64(mx, 1);
  out.max_v = (hi02 > hi13) ? hi02 : hi13;
  bool has_nan = (vgetq_lane_u64(nana, 0) | vgetq_lane_u64(nana, 1) |
                  vgetq_lane_u64(nanb, 0) | vgetq_lane_u64(nanb, 1)) != 0;
  for (size_t i = n4; i < n; ++i) {
    const double v = col[i];
    has_nan = has_nan || (v != v);
    out.min_v = (v < out.min_v) ? v : out.min_v;
    out.max_v = (v > out.max_v) ? v : out.max_v;
  }
  out.has_nan = has_nan;
  return out;
}

void Gather4Neon(const double* const* bases, size_t offset, size_t count,
                 double* c0, double* c1, double* c2, double* c3) {
  for (size_t s = 0; s < count; ++s) {
    const double* r = bases[s] + offset;
    c0[s] = r[0];
    c1[s] = r[1];
    c2[s] = r[2];
    c3[s] = r[3];
  }
}

void BucketizeNeon(const double* col, size_t n, double min_v, double scale,
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

void ComplexNormNeon(double* interleaved, size_t n_complex) {
  for (size_t k = 0; k < n_complex; ++k) {
    const double re = interleaved[2 * k];
    const double im = interleaved[2 * k + 1];
    interleaved[2 * k] = re * re + im * im;
    interleaved[2 * k + 1] = 0.0;
  }
}

struct NeonIsa {
  using Reg = float64x2_t;
  static constexpr size_t kWidth = 2;
  static Reg Zero() { return vdupq_n_f64(0.0); }
  static Reg Broadcast(double v) { return vdupq_n_f64(v); }
  static Reg Load(const double* p) { return vld1q_f64(p); }
  static Reg Add(Reg a, Reg b) { return vaddq_f64(a, b); }
  static Reg Mul(Reg a, Reg b) { return vmulq_f64(a, b); }
  static void Store(double* p, Reg v) { vst1q_f64(p, v); }
};

void AutocovNeon(const double* d, size_t n, size_t lags, double* c) {
  autocov::Compute<NeonIsa>(d, n, lags, c);
}

const KernelTable kNeonTable = {
    "neon",           ScoreSegmentNeon, AbsDeltaNeon,    Gather4Neon,
    ColumnMinMaxNeon, BucketizeNeon,    ComplexNormNeon, AutocovNeon,
};

}  // namespace

namespace internal {

const KernelTable* GetNeonKernels() { return &kNeonTable; }

}  // namespace internal
}  // namespace kern
}  // namespace asap

#else  // !(__aarch64__ && !ASAP_DISABLE_SIMD)

namespace asap {
namespace kern {
namespace internal {

const KernelTable* GetNeonKernels() { return nullptr; }

}  // namespace internal
}  // namespace kern
}  // namespace asap

#endif
