// Process-wide metrics layer: lock-free instruments behind a registry.
//
// Design goals, in priority order:
//   1. Hot-path writes must be cheap enough for the wire event loops
//      and shard workers (~tens of millions of records/s): Counter and
//      Histogram writes are relaxed atomic RMWs on per-thread-sharded
//      cache lines; no locks, no allocation, no branches beyond the
//      global kill switch.
//   2. Reads fold on demand: Value()/Snapshot() walk the shards, so a
//      scrape costs the reader, never the writer.
//   3. Fixed bucket layouts so histogram snapshots merge associatively
//      — per-loop instruments can be summed into a server-wide view in
//      any order with the same result, and quantile reads are
//      allocation-free (the snapshot lives on the stack).
//
// Instruments are owned by a MetricsRegistry and handed out as
// shared_ptrs keyed by (name, sorted label set). Components default to
// a private registry (exact counts per instance, as the tests demand)
// and accept an injected one so a process can aggregate everything
// into a single scrapeable surface; MetricsRegistry::Global() serves
// true process singletons such as the TaskPool.

#ifndef ASAP_TELEMETRY_METRICS_H_
#define ASAP_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace asap {
namespace telemetry {

/// Global kill switch checked (relaxed) by every instrument write.
/// Exists so bench_wire_ingest can price the instrumentation: the
/// overhead row compares enabled vs disabled drains. Defaults to on.
void SetTelemetryEnabled(bool enabled);
bool TelemetryEnabled();

namespace internal {
extern std::atomic<bool> g_enabled;
inline bool Enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}
/// Stable small index for the calling thread, used to pick a shard
/// slot. Assigned round-robin on first use per thread.
unsigned ThreadSlot();
}  // namespace internal

// ---------------------------------------------------------------------------
// Counter

/// Monotonic counter. Writes are relaxed fetch_adds on one of
/// kShards cache-line-padded slots chosen by thread identity, so
/// concurrent writers on different cores do not bounce a line.
class Counter {
 public:
  static constexpr unsigned kShards = 8;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    if (!internal::Enabled()) return;
    shards_[internal::ThreadSlot() & (kShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Folds the shards. Exact once writers have quiesced; a live read
  /// is a consistent-enough sum for monitoring (each shard is atomic).
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Slot& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot shards_[kShards];
};

// ---------------------------------------------------------------------------
// Gauge

/// Last-written value (double). A gauge is a point sample, not a sum,
/// so it is a single atomic cell: Set() stores, Add() CAS-loops.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    if (!internal::Enabled()) return;
    bits_.store(ToBits(value), std::memory_order_relaxed);
  }

  void Add(double delta) {
    if (!internal::Enabled()) return;
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, ToBits(FromBits(cur) + delta),
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }

  double Value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static uint64_t ToBits(double d) {
    uint64_t u;
    static_assert(sizeof(u) == sizeof(d), "double must be 64-bit");
    __builtin_memcpy(&u, &d, sizeof(u));
    return u;
  }
  static double FromBits(uint64_t u) {
    double d;
    __builtin_memcpy(&d, &u, sizeof(d));
    return d;
  }
  std::atomic<uint64_t> bits_{0};
};

// ---------------------------------------------------------------------------
// LatencyHistogram

/// HDR-style log-linear histogram over uint64 values (nanoseconds by
/// convention; MetricSpec::scale says how to render them).
///
/// Layout: values < 16 land in 16 exact unit buckets; above that each
/// base-2 octave [2^e, 2^(e+1)) splits into 16 sub-buckets, giving a
/// worst-case relative error of 1/16 (6.25%) on any quantile. The
/// layout is fixed at compile time, so two snapshots merge by adding
/// bucket counts — associative and commutative — and every power of
/// two is an exact bucket boundary.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 4;               // 16 sub-buckets/octave
  static constexpr unsigned kSubBuckets = 1u << kSubBits;
  static constexpr unsigned kMaxExponent = 40;          // ~1100s in nanos
  static constexpr unsigned kBucketCount =
      kSubBuckets + (kMaxExponent - kSubBits) * kSubBuckets;  // 592

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Bucket index for a value. Exact below 16; log-linear above.
  static unsigned BucketIndex(uint64_t v) {
    if (v < kSubBuckets) return static_cast<unsigned>(v);
    unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    if (e >= kMaxExponent) {
      e = kMaxExponent - 1;
      // Clamp into the top octave's last sub-bucket.
      return kBucketCount - 1;
    }
    unsigned sub = static_cast<unsigned>(v >> (e - kSubBits)) & (kSubBuckets - 1);
    return kSubBuckets + (e - kSubBits) * kSubBuckets + sub;
  }

  /// Inclusive lower bound of a bucket (its smallest member).
  static uint64_t BucketLowerBound(unsigned idx) {
    if (idx < kSubBuckets) return idx;
    unsigned e = kSubBits + (idx - kSubBuckets) / kSubBuckets;
    unsigned sub = (idx - kSubBuckets) % kSubBuckets;
    return (uint64_t{1} << e) + (uint64_t{sub} << (e - kSubBits));
  }

  /// Representative value reported for a bucket: midpoint of its range
  /// (exact value for the unit buckets).
  static uint64_t BucketMidpoint(unsigned idx) {
    if (idx < kSubBuckets) return idx;
    uint64_t lo = BucketLowerBound(idx);
    unsigned e = kSubBits + (idx - kSubBuckets) / kSubBuckets;
    uint64_t width = uint64_t{1} << (e - kSubBits);
    return lo + width / 2;
  }

  void Record(uint64_t value) {
    if (!internal::Enabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    UpdateMax(value);
  }

  /// Point-in-time copy. Stack-sized (no allocation) so scrapes and
  /// quantile reads never touch the heap.
  struct Snapshot {
    uint64_t counts[kBucketCount] = {0};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;

    /// Adds `other` in. Bucket layouts are identical by construction,
    /// so this is associative and commutative.
    void Merge(const Snapshot& other) {
      for (unsigned i = 0; i < kBucketCount; ++i) counts[i] += other.counts[i];
      count += other.count;
      sum += other.sum;
      if (other.max > max) max = other.max;
    }

    /// Value at quantile q in [0,1]; bucket-midpoint estimate, so the
    /// relative error is bounded by half a sub-bucket (<= 1/16).
    /// Returns 0 on an empty snapshot.
    uint64_t Quantile(double q) const {
      if (count == 0) return 0;
      if (q < 0) q = 0;
      if (q > 1) q = 1;
      // Rank of the q-th element, 1-based, clamped to [1, count].
      uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
      if (rank < 1) rank = 1;
      if (rank > count) rank = count;
      uint64_t seen = 0;
      for (unsigned i = 0; i < kBucketCount; ++i) {
        seen += counts[i];
        if (seen >= rank) return BucketMidpoint(i);
      }
      return max;
    }

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  Snapshot TakeSnapshot() const {
    Snapshot s;
    for (unsigned i = 0; i < kBucketCount; ++i) {
      s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

 private:
  void UpdateMax(uint64_t value) {
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kBucketCount] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// ---------------------------------------------------------------------------
// ScopedTimer

/// Records the enclosed scope's wall time into a histogram on
/// destruction. Null-tolerant so call sites can keep a single code
/// path whether or not they were handed an instrument.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* hist) : hist_(hist) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Record(watch_.ElapsedNanos());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  Stopwatch watch_;
};

// ---------------------------------------------------------------------------
// MetricsRegistry

/// Identity + rendering hints for one instrument.
struct MetricSpec {
  std::string name;  // e.g. "asap_wire_records_total"
  std::string help;
  std::vector<std::pair<std::string, std::string>> labels;  // sorted on insert
  /// Multiplier applied when rendering values (1e-9 turns recorded
  /// nanoseconds into exported seconds). Counters/gauges usually 1.
  double scale = 1.0;
};

/// Owns instruments keyed by (name, label set). Get-or-create under a
/// mutex — registration is cold; only instrument handles are hot.
class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    MetricSpec spec;
    Kind kind;
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<LatencyHistogram> histogram;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry for true singletons (TaskPool, benches).
  /// Components with per-instance stats should default to their own.
  static MetricsRegistry& Global();

  std::shared_ptr<Counter> GetCounter(MetricSpec spec);
  std::shared_ptr<Gauge> GetGauge(MetricSpec spec);
  std::shared_ptr<LatencyHistogram> GetHistogram(MetricSpec spec);

  /// All entries, sorted by (name, labels) — the deterministic order
  /// exposition and self-scrape both rely on.
  std::vector<Entry> Entries() const;

 private:
  Entry* FindOrCreate(MetricSpec&& spec, Kind kind);

  mutable std::mutex mu_;
  // Key: name + '\0' + "k=v\0" pairs with labels pre-sorted, so map
  // order is exactly the deterministic exposition order.
  std::map<std::string, Entry> entries_;
};

}  // namespace telemetry
}  // namespace asap

#endif  // ASAP_TELEMETRY_METRICS_H_
