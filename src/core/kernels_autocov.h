// Lag-blocked autocovariance routine shared by the vector kernel
// translation units (kernels_avx2.cc, kernels_neon.cc). Internal to
// the kernel table: include it only from a kernel TU, which supplies
// its register type as `Isa`:
//
//   struct Isa {
//     using Reg = ...;                    // kWidth doubles
//     static constexpr size_t kWidth;
//     static Reg Zero();
//     static Reg Broadcast(double v);
//     static Reg Load(const double* p);   // unaligned
//     static Reg Add(Reg a, Reg b);
//     static Reg Mul(Reg a, Reg b);
//     static void Store(double* p, Reg v);
//   };
//
// Everything here is a template on Isa, so each TU instantiates its
// own copy under its own -m flags and no inline definition is shared
// between ISAs.
//
// The result is the scalar autocov's bit for bit (core/kernels.h):
// a register holds kWidth consecutive lags, and each lane adds
// d[i] * d[i + k] for its lag k in ascending i, starting from 0.0.

#ifndef ASAP_CORE_KERNELS_AUTOCOV_H_
#define ASAP_CORE_KERNELS_AUTOCOV_H_

#include <cstddef>

namespace asap {
namespace kern {
namespace autocov {

/// Registers per full block: 8 independent add chains in flight.
inline constexpr size_t kBlockRegs = 8;

/// s + sum_{i=begin}^{n-k-1} d[i] * d[i + k], ascending i. (A template
/// only so that each ISA's TU compiles its own copy.)
template <typename Isa>
double LagTail(const double* d, size_t n, size_t k, size_t begin, double s) {
  for (size_t i = begin; i + k < n; ++i) {
    s += d[i] * d[i + k];
  }
  return s;
}

/// Lags [k0, k0 + V * kWidth), requiring k0 + V * kWidth <= n. Every
/// lag of the block is valid for i < shared, so that part runs as one
/// vector loop; each lag then finishes its own remaining i scalar.
/// Lags at or past `lags` are padding, computed and dropped.
template <typename Isa, size_t V>
void Block(const double* d, size_t n, size_t k0, size_t lags, double* c) {
  using Reg = typename Isa::Reg;
  const size_t block_end = k0 + V * Isa::kWidth;
  const size_t shared = n + 1 - block_end;
  // The unroll pragmas keep acc[] in registers at -O2; without them
  // the accumulators round-trip through the stack (about 2x slower).
  Reg acc[V];
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) {
    acc[v] = Isa::Zero();
  }
  for (size_t i = 0; i < shared; ++i) {
    const Reg di = Isa::Broadcast(d[i]);
    const double* row = d + i + k0;
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) {
      acc[v] =
          Isa::Add(acc[v], Isa::Mul(di, Isa::Load(row + v * Isa::kWidth)));
    }
  }
  double sums[V * Isa::kWidth];
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) {
    Isa::Store(sums + v * Isa::kWidth, acc[v]);
  }
  const size_t stop = block_end < lags ? block_end : lags;
  for (size_t k = k0; k < stop; ++k) {
    c[k] = LagTail<Isa>(d, n, k, shared, sums[k - k0]);
  }
}

/// The KernelTable::autocov contract over Isa registers.
template <typename Isa>
void Compute(const double* d, size_t n, size_t lags, double* c) {
  constexpr size_t kBlockLags = kBlockRegs * Isa::kWidth;
  size_t k0 = 0;
  for (; k0 + kBlockLags <= lags; k0 += kBlockLags) {
    Block<Isa, kBlockRegs>(d, n, k0, lags, c);
  }
  // The last partial block rounds up to whole registers.
  const size_t regs = (lags - k0 + Isa::kWidth - 1) / Isa::kWidth;
  if (regs == 0) {
    return;
  }
  if (k0 + regs * Isa::kWidth > n) {
    // Padding would read past the series: these lags lie within one
    // block of n, so their sums are short.
    for (size_t k = k0; k < lags; ++k) {
      c[k] = LagTail<Isa>(d, n, k, 0, 0.0);
    }
    return;
  }
  switch (regs) {
    case 1: Block<Isa, 1>(d, n, k0, lags, c); break;
    case 2: Block<Isa, 2>(d, n, k0, lags, c); break;
    case 3: Block<Isa, 3>(d, n, k0, lags, c); break;
    case 4: Block<Isa, 4>(d, n, k0, lags, c); break;
    case 5: Block<Isa, 5>(d, n, k0, lags, c); break;
    case 6: Block<Isa, 6>(d, n, k0, lags, c); break;
    case 7: Block<Isa, 7>(d, n, k0, lags, c); break;
    default: Block<Isa, 8>(d, n, k0, lags, c); break;
  }
}

}  // namespace autocov
}  // namespace kern
}  // namespace asap

#endif  // ASAP_CORE_KERNELS_AUTOCOV_H_
