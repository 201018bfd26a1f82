// Shared pieces of the pipeline benchmark: run arguments, the result
// record every workload fills, the percentile and probe-pane helpers,
// the span tracer, registry readers and the single-thread baseline.
//
// Everything here observes the program from outside: spans wrap calls
// into the library's public functions, and layer counters are read
// from the instruments the library already exports.

#ifndef PIPEBENCH_HARNESS_H_
#define PIPEBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/streaming_asap.h"
#include "net/wire_server.h"
#include "stream/record.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "telemetry/metrics.h"

namespace pipebench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the durable-store workloads may write into (created
  /// and removed by the workload).
  std::string data_dir = ".bench_build/pipebench-data";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. A run whose checks fail reports the
/// failures and no numbers.
struct WorkloadResult {
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Records consumed by operators per second of measured wall time
  /// (kept in traced runs too, to price the tracing).
  double ingest_rps = 0.0;
  /// Untraced-run metrics (trace == false) or per-layer metrics
  /// (trace == true), in print order.
  std::vector<Metric> metrics;
  /// Human-readable context lines (validity, sample counts).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

WorkloadResult RunFirehose(const RunArgs& args);
WorkloadResult RunRefreshHeavy(const RunArgs& args);
WorkloadResult RunLiveDashboard(const RunArgs& args);
WorkloadResult RunRestart(const RunArgs& args);

// --- time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, in MB.
double PeakRssMb();

// --- fixtures ---------------------------------------------------------------

/// A scratch directory for a durable store: emptied on creation and
/// removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Waits (up to 5 s) until `server` has `n` open connections.
bool WaitForConnections(const asap::net::WireServer& server, size_t n);

// --- statistics -------------------------------------------------------------

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between the closest ranks (numpy's default); NaN when empty.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// A latency sample: when it was due and how late it was served.
struct TimedSample {
  int64_t due_ns;
  double value;
};

/// The run's q-quantile made robust to one stall: samples are cut into
/// consecutive windows of `window_ns` by due time, and the median over
/// windows of each window's q-quantile is returned. Windows with fewer
/// than kMinWindowSamples samples are skipped; NaN when none is left.
constexpr size_t kMinWindowSamples = 100;
constexpr int64_t kWindowNs = 1'000'000'000;

/// Workloads set up this many times per run and report the median
/// set-up time (the last set-up is the one measured).
constexpr int kSetups = 5;
double WindowedQuantile(std::vector<TimedSample> samples, int64_t window_ns,
                        double q);

/// Median over consecutive windows of `window_ns` of the rate at which
/// a cumulative count grew; `t_ns` and `count` are paired samples in
/// time order.
double WindowedRate(const std::vector<int64_t>& t_ns,
                    const std::vector<uint64_t>& count, int64_t window_ns);

// --- probe series -----------------------------------------------------------

/// Every kProbeStride-th series of a workload is a probe: its value at
/// every point is the index of the pane the point lands in, so each
/// pane mean is exactly that index.
constexpr size_t kProbeStride = 32;

inline bool IsProbe(size_t series_index) {
  return series_index % kProbeStride == 0;
}

/// The newest pane a probe series' frame covers, or -1 for a frame
/// that has not refreshed yet. Frame::series is the SMA (window w) of
/// the pane means; on a probe those means are consecutive integers, so
/// the last smoothed value is newest - (w - 1) / 2 whatever the
/// refresh cadence was.
int64_t NewestProbePane(const asap::StreamingAsap::Frame& frame);

// --- frames -----------------------------------------------------------------

/// Bitwise frame equality: every smoothed value (compared as bits),
/// the chosen window and all lifetime counters.
bool SameFrame(const asap::StreamingAsap::Frame& a,
               const asap::StreamingAsap::Frame& b);

// --- tracing ----------------------------------------------------------------

/// Span layers: the repo's modules a benchmark thread calls into (the
/// window and core modules run inside the engine's shard threads and
/// are priced by the single-thread baseline instead), the load
/// generator, and kIdle for a thread waiting on purpose (a schedule
/// sleep, a poll interval, a full in-flight window).
enum class Layer : uint8_t {
  kGen,
  kNet,
  kStream,
  kStorage,
  kIdle,
  kCount,
};

const char* LayerName(Layer layer);

/// Spans of one benchmark thread, kept in memory and summarised when
/// the run ends. Spans nest: a span's self time is its duration minus
/// the time its children cover. Disabled traces record nothing and
/// read no clock.
class ThreadTrace {
 public:
  ThreadTrace(std::string name, bool enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  /// Bounds of the thread's measured wall time; a thread measured in
  /// several intervals calls both once per interval.
  void Start() {
    if (enabled_) start_ns_ = NowNs();
  }
  void Stop() {
    if (enabled_) wall_ns_ += NowNs() - start_ns_;
  }

  int32_t Open(Layer layer) {
    if (!enabled_) return -1;
    spans_.push_back(Span{layer, open_, NowNs(), 0});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void Close(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }

  bool enabled() const { return enabled_; }
  const std::string& name() const { return name_; }

  struct Summary {
    double wall_s = 0.0;
    /// Self seconds per layer (idle included).
    double self_s[static_cast<size_t>(Layer::kCount)] = {};
    /// (sum of self time incl. idle) / wall: 1 means every moment of
    /// the thread's measured wall time sits inside some span.
    double closure = 0.0;
    uint64_t spans = 0;
  };
  Summary Summarize() const;

 private:
  struct Span {
    Layer layer;
    int32_t parent;
    int64_t begin_ns;
    int64_t end_ns;
  };

  std::string name_;
  bool enabled_;
  int64_t start_ns_ = 0;
  int64_t wall_ns_ = 0;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, Layer layer)
      : trace_(trace), index_(trace->Open(layer)) {}
  ~ScopedSpan() { trace_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  int32_t index_;
};

/// Per-layer self time over every benchmark thread plus the closure
/// check: each thread's spans and idle time must cover its wall time
/// to within 5%.
struct TraceReport {
  double self_s[static_cast<size_t>(Layer::kCount)] = {};
  double closure_min = 1.0;
  double closure_max = 1.0;
  uint64_t spans = 0;
  std::vector<std::string> lines;
};
TraceReport SummarizeTraces(const std::vector<const ThreadTrace*>& traces);

/// Live handles on the shard consume counters, cheap enough to poll
/// from a monitor thread.
class ConsumedCounter {
 public:
  explicit ConsumedCounter(asap::telemetry::MetricsRegistry* registry);
  uint64_t Value() const;

 private:
  std::vector<std::shared_ptr<asap::telemetry::Counter>> counters_;
};

/// Wraps a MultiSource so the producer thread's time inside NextBatch
/// is a span of `layer` (net for a socket, gen for an in-process load
/// generator) and its total is known even untraced.
class TimedSource : public asap::stream::MultiSource {
 public:
  TimedSource(asap::stream::MultiSource* inner, ThreadTrace* trace,
              Layer layer)
      : inner_(inner), trace_(trace), layer_(layer) {}

  size_t NextBatch(size_t max_records,
                   asap::stream::RecordBatch* out) override;
  size_t TotalPoints() const override { return inner_->TotalPoints(); }

  /// Closes the loop with a window: NextBatch first waits (idle) until
  /// at most `max_outstanding` records it handed out are unconsumed.
  void set_window(const ConsumedCounter* consumed, uint64_t max_outstanding) {
    consumed_ = consumed;
    consumed_base_ = consumed->Value();
    max_outstanding_ = max_outstanding;
  }

  /// Called after every batch with the records it appended.
  void set_observer(void (*fn)(void*, const asap::stream::Record*, size_t),
                    void* ctx) {
    observer_ = fn;
    observer_ctx_ = ctx;
  }

  /// Time inside the inner NextBatch.
  double wait_s() const { return static_cast<double>(wait_ns_) * 1e-9; }
  /// Time waiting for the in-flight window to open.
  double idle_s() const { return static_cast<double>(idle_ns_) * 1e-9; }

 private:
  asap::stream::MultiSource* inner_;
  ThreadTrace* trace_;
  Layer layer_;
  int64_t wait_ns_ = 0;
  int64_t idle_ns_ = 0;
  uint64_t handed_out_ = 0;
  const ConsumedCounter* consumed_ = nullptr;
  uint64_t consumed_base_ = 0;
  uint64_t max_outstanding_ = 0;
  void (*observer_)(void*, const asap::stream::Record*, size_t) = nullptr;
  void* observer_ctx_ = nullptr;
};

// --- registry readers -------------------------------------------------------

/// Reads the library's exported instruments by family name, summed
/// over every label set.
class RegistryReader {
 public:
  explicit RegistryReader(const asap::telemetry::MetricsRegistry* registry)
      : registry_(registry) {}

  uint64_t Counter(const std::string& name) const;
  /// All label sets of a histogram family merged (values in ns).
  asap::telemetry::LatencyHistogram::Snapshot Histogram(
      const std::string& name) const;
  /// Histogram sum in seconds.
  double HistogramSeconds(const std::string& name) const;

 private:
  const asap::telemetry::MetricsRegistry* registry_;
};


// --- single-thread baseline ---------------------------------------------------

/// The same per-series job run on one thread through bare
/// StreamingAsap calls: the operator ceiling, the reference frames the
/// engine's frames must equal, and the per-call refresh/ingest costs.
class Baseline {
 public:
  /// Calls that refreshed, in microseconds.
  std::vector<double> refresh_us;
  double refresh_s = 0.0;
  double ingest_s = 0.0;
  uint64_t ingest_points = 0;
  uint64_t points = 0;

  /// Feeds `xs` (arrival mode) in pane-sized chunks, timing each call.
  void Push(asap::StreamingAsap* op, const double* xs, size_t n);
  /// Timed mode, same chunking.
  void PushTimed(asap::StreamingAsap* op, const double* xs,
                 const int64_t* ts, size_t n);

  double seconds() const { return refresh_s + ingest_s; }

  void Account(size_t refreshes, int64_t ns, size_t n);
};

// --- per-layer report ----------------------------------------------------------

/// Histogram `after` minus `before` (both cumulative snapshots).
asap::telemetry::LatencyHistogram::Snapshot HistogramDelta(
    const asap::telemetry::LatencyHistogram::Snapshot& after,
    const asap::telemetry::LatencyHistogram::Snapshot& before);

/// The durable store's asap_store_* instruments at one instant.
struct StoreCounters {
  asap::telemetry::LatencyHistogram::Snapshot append;
  double fsync_s = 0.0;
  double compaction_s = 0.0;
  uint64_t compactions = 0;
  uint64_t wal_bytes = 0;
  uint64_t chunk_bytes = 0;
  uint64_t panes = 0;

  static StoreCounters Read(const asap::telemetry::MetricsRegistry& registry);
  /// Accumulates the change from `before` to `after` into *this.
  void AddDelta(const StoreCounters& after, const StoreCounters& before);
};

/// Everything the per-layer metrics are computed from. A layer the
/// workload bypasses keeps its zeros, so every workload reports the
/// same metric names.
struct LayerInputs {
  /// The workload's end-to-end latency at p99 (the gated tail is p90;
  /// see pipebench/README.md).
  double latency_p99_ms = 0.0;
  // gen: the benchmark's load generator.
  double gen_lag_p99_ms = 0.0;
  double gen_backlog_growth = 0.0;
  // net
  double client_blocked_s = 0.0;
  double decode_s = 0.0;
  double batch_records_mean = 0.0;
  double events_per_wakeup = 0.0;
  double malformed = 0.0;
  double source_wait_s = 0.0;
  /// Producer time inside an in-process load generator's NextBatch.
  double gen_source_s = 0.0;
  /// Producer time waiting for a closed loop's in-flight window.
  double producer_idle_s = 0.0;
  // stream: the producer thread's wall time inside RunToCompletion and
  // each shard's busy seconds / consumed records over the same runs.
  double producer_wall_s = 0.0;
  std::vector<double> shard_busy_s;
  std::vector<double> shard_points;
  double queue_depth_peak = 0.0;
  double shard_push_s = 0.0;
  double dropped = 0.0;
  double conflated = 0.0;
  double late = 0.0;
  double seq_buffered_peak = 0.0;
  /// Snapshot() call latencies in ns (fixed-size, so polling for a
  /// whole run does not grow the process).
  asap::telemetry::LatencyHistogram::Snapshot snapshot_poll;
  std::vector<double> query_sample_ms, query_bands_ms, query_topk_ms,
      query_anomaly_ms, query_history_ms, query_tick_ms;
  // core / window: the single-thread baseline plus the engine's frame
  // counters (lifetime sums over every series). `shard_baseline` is the
  // same job on as many threads as the engine has shards, all at once:
  // it prices shard time under the shards' own contention for the
  // search share and the layer shares (the single-thread baseline when
  // null).
  const Baseline* baseline = nullptr;
  const Baseline* shard_baseline = nullptr;
  double engine_refreshes = 0.0;
  double consumed = 0.0;
  double frame_refreshes = 0.0;
  double frame_candidates = 0.0;
  double frame_seeded = 0.0;
  double frame_cold = 0.0;
  // storage
  StoreCounters store;
  double open_s = 0.0;
  double replay_s = 0.0;
  double recovered_panes = 0.0;
  /// Records per second into an engine writing to the store.
  double durable_ingest_rps = 0.0;
  // telemetry
  double trace_overhead_frac = 0.0;
};

/// Appends every per-layer metric, in the order BENCHMARK.json lists
/// them, plus the layer shares of attributed busy time, and checks
/// that the trace closes: every traced thread's spans and idle time
/// cover its wall time to within 5%.
void AddLayerMetrics(const LayerInputs& in, const TraceReport& trace,
                     WorkloadResult* result);

/// Adds one engine run's report to the stream-layer inputs (producer
/// wall time, per-shard busy time and points, queue peak, drops) and
/// checks its accounting identity: points == sum(shard points) +
/// dropped + conflated + late. Returns the records the shards consumed.
/// Lifetime refresh counts are left to the caller.
uint64_t AddFleetReport(const asap::stream::FleetReport& report,
                        LayerInputs* in, WorkloadResult* result);

/// Adds the wire server's counters from `before` to `after` to the
/// net-layer inputs and checks the wire identities: records + malformed
/// + unknown == `units_sent`, and every decoded record was among the
/// `pulled` records of the engine run.
void AddWireStats(const asap::net::WireServerStats& after,
                  const asap::net::WireServerStats& before,
                  uint64_t units_sent, uint64_t pulled, LayerInputs* in,
                  WorkloadResult* result);

/// Sums the lifetime frame counters of every series in `frames`.
void AddFrameCounters(const asap::StreamingAsap::Frame& frame,
                      LayerInputs* in);

/// The operator ceiling: the workload's job on one thread through bare
/// StreamingAsap calls, over the same series (so the operators' state
/// is as large as in the engine). Series i's stream is values[i]
/// repeated. Operators are prefilled to a full visible window without
/// refreshing and warmed by one refresh; then every series gets
/// `timed_points` more points, round-robin as the shards interleave
/// series: `visit_points` per series per turn (the points of one series
/// in one engine batch; at least one call), each turn in calls of one
/// refresh interval (at most 256 points), so a call refreshes at most
/// once. When no timed call refreshed, one forced Refresh() per
/// operator is timed instead, to price a refresh.
Baseline TimeSingleThread(const asap::StreamingOptions& options,
                          const std::vector<std::vector<double>>& values,
                          size_t timed_points, size_t visit_points = 0);

/// TimeSingleThread's job split over `threads` threads that run at
/// once, thread t taking series t, t + threads, ... as the engine's
/// shards share the fleet; the threads' costs and samples are summed.
Baseline TimeConcurrent(const asap::StreamingOptions& options,
                        const std::vector<std::vector<double>>& values,
                        size_t timed_points, size_t visit_points,
                        size_t threads);

/// Formats a double with enough digits to round-trip.
std::string FormatDouble(double value);

}  // namespace pipebench

#endif  // PIPEBENCH_HARNESS_H_
