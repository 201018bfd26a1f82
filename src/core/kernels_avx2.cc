// AVX2 implementations of the kernel table. Built with -mavx2 (but
// deliberately NOT -mfma: the canonical reduction shape has no fused
// multiply-adds) and -ffp-contract=off. Every function computes the
// exact FP operation DAG the scalar reference in kernels.cc emulates:
// 4 independent accumulator lanes, lane merge (l0 + l2) + (l1 + l3)
// via low/high-half add + horizontal add, min/max via the vminpd /
// vmaxpd select semantics, and a scalar tail identical to the scalar
// path's. See core/kernels.h for the contract.

#include "core/kernels.h"

#if defined(__AVX2__) && defined(__x86_64__) && !defined(ASAP_DISABLE_SIMD)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "core/kernels_autocov.h"

namespace asap {
namespace kern {
namespace {

// (l0 + l2) + (l1 + l3): add the register's low and high 128-bit
// halves, then the two remaining lanes.
inline double MergeAdd(__m256d v) {
  const __m128d halves =
      _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(halves) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(halves, halves));
}

// ((l0 > l2) ? l0 : l2) > ((l1 > l3) ? l1 : l3) select-merge.
inline double MergeMax(__m256d v) {
  const __m128d halves =
      _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  const double a = _mm_cvtsd_f64(halves);
  const double b = _mm_cvtsd_f64(_mm_unpackhi_pd(halves, halves));
  return (a > b) ? a : b;
}

inline double MergeMin(__m256d v) {
  const __m128d halves =
      _mm_min_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  const double a = _mm_cvtsd_f64(halves);
  const double b = _mm_cvtsd_f64(_mm_unpackhi_pd(halves, halves));
  return (a < b) ? a : b;
}

MomentPartials ScoreSegmentAvx2(const double* prefix, size_t w,
                                double inv_w, double mean_u, double mean_d,
                                size_t begin, size_t end) {
  MomentPartials out;
  if (begin >= end) {
    return out;
  }
  const size_t n4 = begin + (end - begin) / 4 * 4;
  const __m256d vinvw = _mm256_set1_pd(inv_w);
  const __m256d vmu = _mm256_set1_pd(mean_u);
  const __m256d vmd = _mm256_set1_pd(mean_d);
  __m256d vs2 = _mm256_setzero_pd();
  __m256d vs4 = _mm256_setzero_pd();
  __m256d vsd2 = _mm256_setzero_pd();
  for (size_t i = begin; i < n4; i += 4) {
    const __m256d u = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(prefix + i + w),
                      _mm256_loadu_pd(prefix + i)),
        vinvw);
    const __m256d up = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(prefix + i + w - 1),
                      _mm256_loadu_pd(prefix + i - 1)),
        vinvw);
    const __m256d dy = _mm256_sub_pd(u, vmu);
    const __m256d dy2 = _mm256_mul_pd(dy, dy);
    vs2 = _mm256_add_pd(vs2, dy2);
    vs4 = _mm256_add_pd(vs4, _mm256_mul_pd(dy2, dy2));
    const __m256d dd = _mm256_sub_pd(_mm256_sub_pd(u, up), vmd);
    vsd2 = _mm256_add_pd(vsd2, _mm256_mul_pd(dd, dd));
  }
  out.s2 = MergeAdd(vs2);
  out.s4 = MergeAdd(vs4);
  out.sd2 = MergeAdd(vsd2);
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

AbsDeltaPartials AbsDeltaAvx2(const double* newer, const double* older,
                              size_t len, double* delta) {
  AbsDeltaPartials out;
  const size_t n4 = len / 4 * 4;
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d vsum = _mm256_setzero_pd();
  __m256d vmax = _mm256_setzero_pd();
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(newer + i), _mm256_loadu_pd(older + i));
    _mm256_storeu_pd(delta + i, d);
    const __m256d a = _mm256_and_pd(d, abs_mask);
    vsum = _mm256_add_pd(vsum, a);
    // vmaxpd(a, acc): (a > acc) ? a : acc — NaN keeps the accumulator.
    vmax = _mm256_max_pd(a, vmax);
  }
  out.sum_abs = MergeAdd(vsum);
  out.max_abs = MergeMax(vmax);
  for (size_t j = n4; j < len; ++j) {
    const double d = newer[j] - older[j];
    delta[j] = d;
    const double a = std::fabs(d);
    out.sum_abs += a;
    out.max_abs = (a > out.max_abs) ? a : out.max_abs;
  }
  return out;
}

void Gather4Avx2(const double* const* bases, size_t offset, size_t count,
                 double* c0, double* c1, double* c2, double* c3) {
  size_t s = 0;
  for (; s + 4 <= count; s += 4) {
    // 4x4 transpose: rows are 4 consecutive positions of one series,
    // columns are 4 series at one position.
    const __m256d r0 = _mm256_loadu_pd(bases[s] + offset);
    const __m256d r1 = _mm256_loadu_pd(bases[s + 1] + offset);
    const __m256d r2 = _mm256_loadu_pd(bases[s + 2] + offset);
    const __m256d r3 = _mm256_loadu_pd(bases[s + 3] + offset);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_storeu_pd(c0 + s, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(c1 + s, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(c2 + s, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(c3 + s, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; s < count; ++s) {
    const double* r = bases[s] + offset;
    c0[s] = r[0];
    c1[s] = r[1];
    c2[s] = r[2];
    c3[s] = r[3];
  }
}

ColumnMinMax ColumnMinMaxAvx2(const double* col, size_t n) {
  ColumnMinMax out;
  const double inf = std::numeric_limits<double>::infinity();
  __m256d vmn = _mm256_set1_pd(inf);
  __m256d vmx = _mm256_set1_pd(-inf);
  __m256d vnan = _mm256_setzero_pd();
  const size_t n4 = n / 4 * 4;
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(col + i);
    vnan = _mm256_or_pd(vnan, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    // vminpd(v, acc): (v < acc) ? v : acc — NaN keeps the accumulator.
    vmn = _mm256_min_pd(v, vmn);
    vmx = _mm256_max_pd(v, vmx);
  }
  out.min_v = MergeMin(vmn);
  out.max_v = MergeMax(vmx);
  bool has_nan = _mm256_movemask_pd(vnan) != 0;
  for (size_t i = n4; i < n; ++i) {
    const double v = col[i];
    has_nan = has_nan || (v != v);
    out.min_v = (v < out.min_v) ? v : out.min_v;
    out.max_v = (v > out.max_v) ? v : out.max_v;
  }
  out.has_nan = has_nan;
  return out;
}

void BucketizeAvx2(const double* col, size_t n, double min_v, double scale,
                   unsigned char* bucket, unsigned int* hist256) {
  const __m256d vmin = _mm256_set1_pd(min_v);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d v255 = _mm256_set1_pd(255.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(col + i), vmin), vscale);
    t = _mm256_max_pd(t, vzero);  // (t > 0) ? t : 0 — NaN clamps to 0
    t = _mm256_min_pd(t, v255);   // (t < 255) ? t : 255
    const __m128i b = _mm256_cvttpd_epi32(t);  // truncation, like (int)t
    const unsigned char b0 =
        static_cast<unsigned char>(_mm_extract_epi32(b, 0));
    const unsigned char b1 =
        static_cast<unsigned char>(_mm_extract_epi32(b, 1));
    const unsigned char b2 =
        static_cast<unsigned char>(_mm_extract_epi32(b, 2));
    const unsigned char b3 =
        static_cast<unsigned char>(_mm_extract_epi32(b, 3));
    bucket[i] = b0;
    bucket[i + 1] = b1;
    bucket[i + 2] = b2;
    bucket[i + 3] = b3;
    ++hist256[b0];
    ++hist256[b1];
    ++hist256[b2];
    ++hist256[b3];
  }
  for (; i < n; ++i) {
    double t = (col[i] - min_v) * scale;
    t = (t > 0.0) ? t : 0.0;
    t = (t < 255.0) ? t : 255.0;
    const unsigned char b = static_cast<unsigned char>(static_cast<int>(t));
    bucket[i] = b;
    ++hist256[b];
  }
}

void ComplexNormAvx2(double* interleaved, size_t n_complex) {
  const __m256d vzero = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 2 <= n_complex; k += 2) {
    const __m256d v = _mm256_loadu_pd(interleaved + 2 * k);
    const __m256d sq = _mm256_mul_pd(v, v);
    // hadd(sq, 0) = (re0^2 + im0^2, 0, re1^2 + im1^2, 0): the scalar
    // path's re*re + im*im in the same order, zeroing the imaginary
    // slots in the same store.
    _mm256_storeu_pd(interleaved + 2 * k, _mm256_hadd_pd(sq, vzero));
  }
  for (; k < n_complex; ++k) {
    const double re = interleaved[2 * k];
    const double im = interleaved[2 * k + 1];
    interleaved[2 * k] = re * re + im * im;
    interleaved[2 * k + 1] = 0.0;
  }
}

struct Avx2Isa {
  using Reg = __m256d;
  static constexpr size_t kWidth = 4;
  static Reg Zero() { return _mm256_setzero_pd(); }
  static Reg Broadcast(double v) { return _mm256_set1_pd(v); }
  static Reg Load(const double* p) { return _mm256_loadu_pd(p); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static void Store(double* p, Reg v) { _mm256_storeu_pd(p, v); }
};

void AutocovAvx2(const double* d, size_t n, size_t lags, double* c) {
  autocov::Compute<Avx2Isa>(d, n, lags, c);
}

const KernelTable kAvx2Table = {
    "avx2",           ScoreSegmentAvx2, AbsDeltaAvx2,    Gather4Avx2,
    ColumnMinMaxAvx2, BucketizeAvx2,    ComplexNormAvx2, AutocovAvx2,
};

}  // namespace

namespace internal {

const KernelTable* GetAvx2Kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Table : nullptr;
}

}  // namespace internal
}  // namespace kern
}  // namespace asap

#else  // !(__AVX2__ && __x86_64__ && !ASAP_DISABLE_SIMD)

namespace asap {
namespace kern {
namespace internal {

const KernelTable* GetAvx2Kernels() { return nullptr; }

}  // namespace internal
}  // namespace kern
}  // namespace asap

#endif
