// Runtime-dispatched SIMD kernel table for the analytics hot loops.
//
// Every kernel here exists in (at least) two implementations — a
// scalar reference and an AVX2/NEON path — selected at runtime via
// ActiveKernels(). The contract that makes that safe to do silently:
// all implementations of a kernel produce **bitwise-identical**
// results. There is no "fast but slightly different" mode.
//
// That is achievable because each kernel commits to one canonical
// floating-point reduction shape. Kernels whose outputs are
// independent element-wise or lag-wise sums (complex_norm, autocov)
// keep the plain sequential order in every lane. The reductions are
// shaped to be exactly what a 4-wide vector unit computes, and the
// scalar path *emulates* that shape:
//
//   * Reductions run 4 independent accumulator lanes; element i of a
//     range [begin, end) goes to lane (i - begin) % 4 over the largest
//     prefix that is a multiple of 4, and the remainder is applied
//     scalar after the lane merge.
//   * Lanes merge in the fixed order (l0 + l2) + (l1 + l3) — the sum
//     of a 256-bit register's low and high 128-bit halves followed by
//     a horizontal add, which is the natural AVX2 idiom.
//   * Max lanes merge with `(a > b) ? a : b`, the exact semantics of
//     the x86 maxpd / AArch64 fmax-style selects used by the vector
//     paths (NaN handling included).
//   * No FMA contraction anywhere: the vector paths use explicit
//     multiply-then-add, and the kernel translation units are built
//     with -ffp-contract=off so the scalar path cannot contract
//     either.
//
// Thread-level parallelism layers on top the same way: callers split a
// range into chunks whose layout is a pure function of the *element
// count* (ScoreChunks/ChunkBound below — never of the thread count),
// compute per-chunk partials with these kernels, and merge the
// partials sequentially in chunk order. The result is one fixed FP
// expression DAG per input, regardless of ISA or thread count.

#ifndef ASAP_CORE_KERNELS_H_
#define ASAP_CORE_KERNELS_H_

#include <cstddef>

#include "common/exec_policy.h"

namespace asap {
namespace kern {

/// Partial sums of the fused ScoreWindow moment pass over one chunk.
struct MomentPartials {
  double s2 = 0.0;   // sum (u - mean_u)^2
  double s4 = 0.0;   // sum ((u - mean_u)^2)^2
  double sd2 = 0.0;  // sum ((u - prev_u) - mean_d)^2
};

/// Partial sums of the history-diff pass over one chunk.
struct AbsDeltaPartials {
  double sum_abs = 0.0;
  double max_abs = 0.0;
};

/// Min/max of one gathered band column, plus whether any NaN appeared
/// (NaN columns take the sort-based fallback in BandsOf).
struct ColumnMinMax {
  double min_v = 0.0;
  double max_v = 0.0;
  bool has_nan = false;
};

/// The dispatch table. One instance per implementation; all entries of
/// all instances are bitwise-result-identical (see file comment).
struct KernelTable {
  /// Implementation name for diagnostics: "scalar", "avx2", "neon".
  const char* name;

  /// Fused central-moment partials of the smoothed values
  ///   u_i = (prefix[i + w] - prefix[i]) * inv_w
  /// for i in [begin, end), 1 <= begin <= end <= m, accumulating
  /// (u - mean_u)^2, its square, and ((u_i - u_{i-1}) - mean_d)^2,
  /// where u_{i-1} is recomputed from the prefix array (the identical
  /// FP expression the sequential loop's prev_u carried).
  MomentPartials (*score_segment)(const double* prefix, size_t w,
                                  double inv_w, double mean_u, double mean_d,
                                  size_t begin, size_t end);

  /// delta[j] = newer[j] - older[j] for j in [0, len); returns the
  /// sum and max of |delta| over the range.
  AbsDeltaPartials (*abs_delta)(const double* newer, const double* older,
                                size_t len, double* delta);

  /// 4-position transpose gather: for s in [0, count),
  /// ck[s] = bases[s][offset + k] for k = 0..3 (a row-of-series to
  /// column-of-positions transpose; pure data movement).
  void (*gather4)(const double* const* bases, size_t offset, size_t count,
                  double* c0, double* c1, double* c2, double* c3);

  /// Min/max over col[0..n) with NaN detection. Min lanes update with
  /// `(v < acc) ? v : acc` and max lanes with `(v > acc) ? v : acc`
  /// (NaN never replaces the accumulator); lanes start at +/-infinity.
  ColumnMinMax (*column_minmax)(const double* col, size_t n);

  /// Linear value-domain bucketing for the percentile-band selection:
  ///   t = (col[i] - min_v) * scale;  t = max(t, 0); t = min(t, 255);
  ///   bucket[i] = (unsigned char)(int)t;  ++hist256[bucket[i]];
  /// with max/min in the same select semantics as column_minmax.
  void (*bucketize)(const double* col, size_t n, double min_v, double scale,
                    unsigned char* bucket, unsigned int* hist256);

  /// In-place power pass over interleaved complex doubles:
  /// (re, im) -> (re * re + im * im, 0) for n_complex pairs.
  void (*complex_norm)(double* interleaved, size_t n_complex);

  /// Lag-major autocovariance sums of a centered series d[0..n):
  ///   c[k] = sum_{i=0}^{n-k-1} d[i] * d[i + k]   for k in [0, lags),
  /// 1 <= lags <= n. Each lag's sum starts at 0.0 and adds
  /// d[i] * d[i + k] (multiply, then add) in ascending i. Lags are
  /// independent sums, so the vector paths spread *lags* across
  /// lanes and match the scalar loop bit for bit without the 4-lane
  /// emulation the reductions above need.
  void (*autocov)(const double* d, size_t n, size_t lags, double* c);
};

/// The scalar reference table (always available; the parity baseline).
const KernelTable& ScalarKernels();

/// The table to use under `mode`: the widest implementation compiled
/// in and supported by this CPU, unless mode forces scalar, the build
/// was configured with ASAP_DISABLE_SIMD, or the ASAP_DISABLE_SIMD
/// environment variable is set (checked once per process).
const KernelTable& ActiveKernels(SimdMode mode);

/// True iff a non-scalar table is compiled in and usable on this CPU.
bool SimdAvailable();

// ---- canonical chunk layout --------------------------------------------------

/// Upper bound on reduction chunks: small enough for stack-allocated
/// partials in allocation-free paths, large enough to feed any
/// realistic core count.
inline constexpr size_t kMaxChunks = 64;

/// Minimum elements per reduction chunk; below this, fan-out overhead
/// dominates the arithmetic.
inline constexpr size_t kMinChunkElems = 16384;

/// Canonical chunk count for a reduction over `total` elements: a pure
/// function of total (NEVER of the thread count), so the partial-sum
/// structure — and therefore the bitwise result — is execution-
/// independent.
inline size_t ChunksFor(size_t total) {
  if (total == 0) {
    return 0;
  }
  const size_t by_size = total / kMinChunkElems;
  if (by_size <= 1) {
    return 1;
  }
  return by_size < kMaxChunks ? by_size : kMaxChunks;
}

/// Element offset of chunk boundary c (0 <= c <= chunks) in an even
/// split of [0, total).
inline size_t ChunkBound(size_t total, size_t chunks, size_t c) {
  return total / chunks * c + total % chunks * c / chunks;
}

namespace internal {
/// Per-ISA table providers (one translation unit each, built with the
/// matching -m flags). Each returns nullptr when its implementation is
/// not compiled in or the running CPU lacks the feature.
const KernelTable* GetAvx2Kernels();
const KernelTable* GetNeonKernels();
}  // namespace internal

}  // namespace kern
}  // namespace asap

#endif  // ASAP_CORE_KERNELS_H_
