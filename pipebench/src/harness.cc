#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

namespace pipebench {

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
}

ScratchDir::~ScratchDir() { std::filesystem::remove_all(path_); }

bool WaitForConnections(const asap::net::WireServer& server, size_t n) {
  for (int i = 0; i < 5000; ++i) {
    if (server.active_connections() == n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double WindowedQuantile(std::vector<TimedSample> samples, int64_t window_ns,
                        double q) {
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) {
              return a.due_ns < b.due_ns;
            });
  std::vector<double> per_window;
  std::vector<double> window;
  for (size_t i = 0; i < samples.size();) {
    const int64_t end = samples[i].due_ns + window_ns;
    window.clear();
    for (; i < samples.size() && samples[i].due_ns < end; ++i) {
      window.push_back(samples[i].value);
    }
    if (window.size() >= kMinWindowSamples) {
      per_window.push_back(Percentile(window, q));
    }
  }
  return Median(per_window);
}

double WindowedRate(const std::vector<int64_t>& t_ns,
                    const std::vector<uint64_t>& count, int64_t window_ns) {
  std::vector<double> rates;
  size_t start = 0;
  for (size_t i = 1; i < t_ns.size(); ++i) {
    if (t_ns[i] - t_ns[start] >= window_ns) {
      rates.push_back(static_cast<double>(count[i] - count[start]) /
                      (static_cast<double>(t_ns[i] - t_ns[start]) * 1e-9));
      start = i;
    }
  }
  return Median(rates);
}

int64_t NewestProbePane(const asap::StreamingAsap::Frame& frame) {
  if (frame.refreshes == 0 || frame.series.empty()) return -1;
  const double window = static_cast<double>(frame.window);
  return static_cast<int64_t>(
      std::llround(frame.series.back() + (window - 1.0) / 2.0));
}

bool SameFrame(const asap::StreamingAsap::Frame& a,
               const asap::StreamingAsap::Frame& b) {
  return a.series.size() == b.series.size() &&
         (a.series.empty() ||
          std::memcmp(a.series.data(), b.series.data(),
                      a.series.size() * sizeof(double)) == 0) &&
         a.window == b.window && a.refreshes == b.refreshes &&
         a.seeded_searches == b.seeded_searches &&
         a.cold_searches == b.cold_searches &&
         a.candidates_evaluated == b.candidates_evaluated &&
         a.allocation_free_evals == b.allocation_free_evals;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGen: return "gen";
    case Layer::kNet: return "net";
    case Layer::kStream: return "stream";
    case Layer::kStorage: return "storage";
    case Layer::kIdle: return "idle";
    case Layer::kCount: break;
  }
  return "?";
}

ThreadTrace::Summary ThreadTrace::Summarize() const {
  Summary s;
  if (!enabled_) return s;
  s.wall_s = static_cast<double>(wall_ns_) * 1e-9;
  s.spans = spans_.size();
  // Self time = own duration minus the direct children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.begin_ns;
    }
  }
  double covered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double self = static_cast<double>(span.end_ns - span.begin_ns -
                                            child_ns[i]) *
                        1e-9;
    s.self_s[static_cast<size_t>(span.layer)] += self;
    covered += self;
  }
  s.closure = s.wall_s > 0.0 ? covered / s.wall_s : 0.0;
  return s;
}

TraceReport SummarizeTraces(const std::vector<const ThreadTrace*>& traces) {
  TraceReport report;
  for (const ThreadTrace* trace : traces) {
    if (!trace->enabled()) continue;
    const ThreadTrace::Summary s = trace->Summarize();
    report.spans += s.spans;
    report.closure_min = std::min(report.closure_min, s.closure);
    report.closure_max = std::max(report.closure_max, s.closure);
    std::string line = "thread " + trace->name() + ": wall " +
                       FormatDouble(s.wall_s) + " s, closure " +
                       FormatDouble(s.closure) + ";";
    for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
      report.self_s[l] += s.self_s[l];
      if (s.self_s[l] > 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.4f s",
                      LayerName(static_cast<Layer>(l)), s.self_s[l]);
        line += buf;
      }
    }
    report.lines.push_back(line);
  }
  return report;
}

size_t TimedSource::NextBatch(size_t max_records,
                              asap::stream::RecordBatch* out) {
  while (consumed_ != nullptr &&
         handed_out_ - (consumed_->Value() - consumed_base_) >
             max_outstanding_) {
    ScopedSpan idle(trace_, Layer::kIdle);
    const int64_t t0 = NowNs();
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    idle_ns_ += NowNs() - t0;
  }
  const size_t before = out->size();
  const int64_t t0 = NowNs();
  size_t n;
  {
    ScopedSpan span(trace_, layer_);
    n = inner_->NextBatch(max_records, out);
  }
  wait_ns_ += NowNs() - t0;
  handed_out_ += n;
  if (observer_ != nullptr && n > 0) {
    observer_(observer_ctx_, out->data() + before, n);
  }
  return n;
}

uint64_t RegistryReader::Counter(const std::string& name) const {
  uint64_t sum = 0;
  for (const auto& entry : registry_->Entries()) {
    if (entry.spec.name == name && entry.counter != nullptr) {
      sum += entry.counter->Value();
    }
  }
  return sum;
}

asap::telemetry::LatencyHistogram::Snapshot RegistryReader::Histogram(
    const std::string& name) const {
  asap::telemetry::LatencyHistogram::Snapshot merged;
  for (const auto& entry : registry_->Entries()) {
    if (entry.spec.name == name && entry.histogram != nullptr) {
      merged.Merge(entry.histogram->TakeSnapshot());
    }
  }
  return merged;
}

double RegistryReader::HistogramSeconds(const std::string& name) const {
  return static_cast<double>(Histogram(name).sum) * 1e-9;
}

ConsumedCounter::ConsumedCounter(asap::telemetry::MetricsRegistry* registry) {
  for (const auto& entry : registry->Entries()) {
    if (entry.spec.name == "asap_shard_records_total" &&
        entry.counter != nullptr) {
      counters_.push_back(entry.counter);
    }
  }
}

uint64_t ConsumedCounter::Value() const {
  uint64_t sum = 0;
  for (const auto& counter : counters_) sum += counter->Value();
  return sum;
}

void Baseline::Account(size_t refreshes, int64_t ns, size_t n) {
  points += n;
  if (refreshes > 0) {
    refresh_s += static_cast<double>(ns) * 1e-9;
    refresh_us.push_back(static_cast<double>(ns) * 1e-3 /
                         static_cast<double>(refreshes));
  } else {
    ingest_s += static_cast<double>(ns) * 1e-9;
    ingest_points += n;
  }
}

namespace {
// Calls are at most one refresh interval long, so a call refreshes at
// most once and its time is one refresh plus a little ingest.
size_t ChunkFor(const asap::StreamingAsap& op) {
  return std::max<size_t>(
      1, std::min<size_t>(256, op.refresh_interval_points()));
}
}  // namespace

void Baseline::Push(asap::StreamingAsap* op, const double* xs, size_t n) {
  const size_t chunk = ChunkFor(*op);
  for (size_t i = 0; i < n; i += chunk) {
    const size_t m = std::min(chunk, n - i);
    const int64_t t0 = NowNs();
    const size_t refreshes = op->PushBatch(xs + i, m);
    Account(refreshes, NowNs() - t0, m);
  }
}

void Baseline::PushTimed(asap::StreamingAsap* op, const double* xs,
                         const int64_t* ts, size_t n) {
  const size_t chunk = ChunkFor(*op);
  for (size_t i = 0; i < n; i += chunk) {
    const size_t m = std::min(chunk, n - i);
    const int64_t t0 = NowNs();
    const size_t refreshes = op->PushTimed(xs + i, ts + i, m);
    Account(refreshes, NowNs() - t0, m);
  }
}

Baseline TimeSingleThread(const asap::StreamingOptions& options,
                          const std::vector<std::vector<double>>& values,
                          size_t timed_points, size_t visit_points) {
  Baseline b;
  std::vector<asap::StreamingAsap> ops;
  std::vector<size_t> cursor(values.size(), 0);
  std::vector<double> scratch;
  auto take = [&](size_t i, size_t n) {
    scratch.resize(n);
    for (size_t k = 0; k < n; ++k) {
      scratch[k] = values[i][cursor[i]];
      cursor[i] = (cursor[i] + 1) % values[i].size();
    }
  };
  for (size_t i = 0; i < values.size(); ++i) {
    ops.push_back(asap::StreamingAsap::Create(options).ValueOrDie());
    take(i, options.visible_points);
    ops.back().Prefill(scratch);
    ops.back().Refresh();
  }
  const size_t chunk = ChunkFor(ops.front());
  const size_t visit = std::max(chunk, visit_points);
  for (size_t done = 0; done < timed_points; done += visit) {
    const size_t v = std::min(visit, timed_points - done);
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t k = 0; k < v; k += chunk) {
        const size_t m = std::min(chunk, v - k);
        take(i, m);
        const int64_t t0 = NowNs();
        const size_t refreshes = ops[i].PushBatch(scratch.data(), m);
        b.Account(refreshes, NowNs() - t0, m);
      }
    }
  }
  if (b.refresh_us.empty()) {
    double forced_s = 0.0;
    for (asap::StreamingAsap& op : ops) {
      const int64_t t0 = NowNs();
      op.Refresh();
      const int64_t ns = NowNs() - t0;
      forced_s += static_cast<double>(ns) * 1e-9;
      b.refresh_us.push_back(static_cast<double>(ns) * 1e-3);
    }
    // The job refreshes once per interval: charge that many refreshes
    // at the forced refreshes' mean cost.
    b.refresh_s = forced_s / static_cast<double>(ops.size()) *
                  static_cast<double>(b.points) /
                  static_cast<double>(ops.front().refresh_interval_points());
  }
  return b;
}

Baseline TimeConcurrent(const asap::StreamingOptions& options,
                        const std::vector<std::vector<double>>& values,
                        size_t timed_points, size_t visit_points,
                        size_t threads) {
  std::vector<Baseline> parts(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::vector<double>> mine;
      for (size_t i = t; i < values.size(); i += threads) {
        mine.push_back(values[i]);
      }
      parts[t] = TimeSingleThread(options, mine, timed_points, visit_points);
    });
  }
  for (std::thread& worker : workers) worker.join();
  Baseline sum;
  for (const Baseline& part : parts) {
    sum.refresh_us.insert(sum.refresh_us.end(), part.refresh_us.begin(),
                          part.refresh_us.end());
    sum.refresh_s += part.refresh_s;
    sum.ingest_s += part.ingest_s;
    sum.ingest_points += part.ingest_points;
    sum.points += part.points;
  }
  return sum;
}

asap::telemetry::LatencyHistogram::Snapshot HistogramDelta(
    const asap::telemetry::LatencyHistogram::Snapshot& after,
    const asap::telemetry::LatencyHistogram::Snapshot& before) {
  asap::telemetry::LatencyHistogram::Snapshot d;
  for (unsigned i = 0; i < asap::telemetry::LatencyHistogram::kBucketCount;
       ++i) {
    d.counts[i] = after.counts[i] - before.counts[i];
  }
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;
  return d;
}

StoreCounters StoreCounters::Read(
    const asap::telemetry::MetricsRegistry& registry) {
  const RegistryReader reader(&registry);
  StoreCounters c;
  c.append = reader.Histogram("asap_store_wal_append_seconds");
  c.fsync_s = reader.HistogramSeconds("asap_store_fsync_seconds");
  c.compaction_s = reader.HistogramSeconds("asap_store_compaction_seconds");
  c.compactions = reader.Counter("asap_store_compactions_total");
  c.wal_bytes = reader.Counter("asap_store_wal_bytes_total");
  c.chunk_bytes = reader.Counter("asap_store_chunk_bytes_total");
  c.panes = reader.Counter("asap_store_panes_total");
  return c;
}

void StoreCounters::AddDelta(const StoreCounters& after,
                             const StoreCounters& before) {
  append.Merge(HistogramDelta(after.append, before.append));
  fsync_s += after.fsync_s - before.fsync_s;
  compaction_s += after.compaction_s - before.compaction_s;
  compactions += after.compactions - before.compactions;
  wal_bytes += after.wal_bytes - before.wal_bytes;
  chunk_bytes += after.chunk_bytes - before.chunk_bytes;
  panes += after.panes - before.panes;
}

uint64_t AddFleetReport(const asap::stream::FleetReport& report,
                        LayerInputs* in, WorkloadResult* result) {
  uint64_t shard_points = 0;
  for (const auto& shard : report.shards) shard_points += shard.points;
  result->Check(report.points == shard_points + report.dropped +
                                     report.conflated + report.late,
                "points == sum(shard points) + dropped + conflated + late");
  in->producer_wall_s += report.seconds;
  in->shard_busy_s.resize(report.shards.size(), 0.0);
  in->shard_points.resize(report.shards.size(), 0.0);
  for (size_t s = 0; s < report.shards.size(); ++s) {
    in->shard_busy_s[s] += report.shards[s].busy_seconds;
    in->shard_points[s] += static_cast<double>(report.shards[s].points);
    in->queue_depth_peak =
        std::max(in->queue_depth_peak,
                 static_cast<double>(report.shards[s].peak_queue_depth));
  }
  in->dropped += static_cast<double>(report.dropped);
  in->conflated += static_cast<double>(report.conflated);
  in->late += static_cast<double>(report.late);
  in->consumed += static_cast<double>(shard_points);
  return shard_points;
}

void AddWireStats(const asap::net::WireServerStats& after,
                  const asap::net::WireServerStats& before,
                  uint64_t units_sent, uint64_t pulled, LayerInputs* in,
                  WorkloadResult* result) {
  const uint64_t records = after.records - before.records;
  const uint64_t malformed =
      (after.malformed_lines - before.malformed_lines) +
      (after.malformed_frames - before.malformed_frames) +
      (after.malformed_registrations - before.malformed_registrations);
  const uint64_t unknown =
      after.unknown_series_records - before.unknown_series_records;
  result->Check(records + malformed + unknown == units_sent,
                "wire records + malformed + unknown == units sent");
  result->Check(records == pulled,
                "every decoded record was pulled by the engine");
  const double batches = static_cast<double>(after.batches - before.batches);
  const double wakeups = static_cast<double>(after.wakeups - before.wakeups);
  in->batch_records_mean =
      batches > 0 ? static_cast<double>(records) / batches : 0.0;
  in->events_per_wakeup =
      wakeups > 0
          ? static_cast<double>(after.events - before.events) / wakeups
          : 0.0;
  in->malformed = static_cast<double>(malformed + unknown);
}

void AddFrameCounters(const asap::StreamingAsap::Frame& frame,
                      LayerInputs* in) {
  in->frame_refreshes += static_cast<double>(frame.refreshes);
  in->frame_candidates += static_cast<double>(frame.candidates_evaluated);
  in->frame_seeded += static_cast<double>(frame.seeded_searches);
  in->frame_cold += static_cast<double>(frame.cold_searches);
}

namespace {
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double PercentileOr0(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : Percentile(v, q);
}
}  // namespace

void AddLayerMetrics(const LayerInputs& in, const TraceReport& trace,
                     WorkloadResult* r) {
  r->Add("latency.p99_ms", in.latency_p99_ms, "ms");
  r->Add("gen.lag_p99_ms", in.gen_lag_p99_ms, "ms");
  r->Add("gen.backlog_growth", in.gen_backlog_growth, "records");

  r->Add("net.client_blocked_s", in.client_blocked_s, "s");
  r->Add("net.decode_s", in.decode_s, "s");
  r->Add("net.batch_records_mean", in.batch_records_mean, "records");
  r->Add("net.events_per_wakeup", in.events_per_wakeup, "ratio");
  r->Add("net.malformed", in.malformed, "count");
  r->Add("net.source_wait_s", in.source_wait_s, "s");
  r->Add("net.source_wait_frac", Ratio(in.source_wait_s, in.producer_wall_s),
         "ratio");

  const double route_s =
      std::max(0.0, in.producer_wall_s - in.source_wait_s - in.gen_source_s -
                        in.producer_idle_s);
  double busy_sum = 0.0, busy_max = 0.0, points_sum = 0.0, points_max = 0.0;
  for (size_t i = 0; i < in.shard_busy_s.size(); ++i) {
    busy_sum += in.shard_busy_s[i];
    busy_max = std::max(busy_max, in.shard_busy_s[i]);
    points_sum += in.shard_points[i];
    points_max = std::max(points_max, in.shard_points[i]);
  }
  const double shards = static_cast<double>(in.shard_busy_s.size());
  r->Add("stream.producer_route_s", route_s, "s");
  r->Add("stream.shard_busy_frac_max", Ratio(busy_max, in.producer_wall_s),
         "ratio");
  r->Add("stream.shard_busy_frac_mean",
         Ratio(busy_sum, shards * in.producer_wall_s), "ratio");
  r->Add("stream.shard_skew", Ratio(points_max * shards, points_sum),
         "ratio");
  r->Add("stream.queue_depth_peak", in.queue_depth_peak, "batches");
  r->Add("stream.shard_push_s", in.shard_push_s, "s");
  r->Add("stream.dropped", in.dropped, "records");
  r->Add("stream.conflated", in.conflated, "records");
  r->Add("stream.late", in.late, "records");
  r->Add("stream.seq_buffered_peak", in.seq_buffered_peak, "records");
  r->Add("stream.snapshot_poll_us_p50",
         static_cast<double>(in.snapshot_poll.Quantile(0.5)) * 1e-3, "us");
  const struct {
    const char* name;
    const std::vector<double>* samples;
  } queries[] = {{"sample", &in.query_sample_ms},
                 {"bands", &in.query_bands_ms},
                 {"topk", &in.query_topk_ms},
                 {"anomaly", &in.query_anomaly_ms},
                 {"history", &in.query_history_ms},
                 {"tick", &in.query_tick_ms}};
  for (const auto& q : queries) {
    const std::string base = std::string("stream.query.") + q.name + "_ms_";
    r->Add(base + "p50", PercentileOr0(*q.samples, 0.5), "ms");
    r->Add(base + "p99", PercentileOr0(*q.samples, 0.99), "ms");
  }

  const Baseline empty;
  const Baseline& b = in.baseline != nullptr ? *in.baseline : empty;
  const Baseline& sb = in.shard_baseline != nullptr ? *in.shard_baseline : b;
  double refresh_mean_s = 0.0;
  for (double us : sb.refresh_us) refresh_mean_s += us * 1e-6;
  refresh_mean_s =
      Ratio(refresh_mean_s, static_cast<double>(sb.refresh_us.size()));
  const double ingest_s_per_point =
      Ratio(b.ingest_s, static_cast<double>(b.ingest_points));
  const double shard_ingest_s_per_point =
      Ratio(sb.ingest_s, static_cast<double>(sb.ingest_points));
  r->Add("core.single_thread_rps",
         Ratio(static_cast<double>(b.points), b.seconds()), "records/s");
  r->Add("core.refresh_us_p50", PercentileOr0(b.refresh_us, 0.5), "us");
  r->Add("core.refresh_us_p99", PercentileOr0(b.refresh_us, 0.99), "us");
  r->Add("window.ingest_ns_per_point", ingest_s_per_point * 1e9, "ns");
  r->Add("core.refresh_share", Ratio(b.refresh_s, b.seconds()), "ratio");
  r->Add("core.candidates_per_refresh",
         Ratio(in.frame_candidates, in.frame_refreshes), "count");
  r->Add("core.seeded_frac",
         Ratio(in.frame_seeded, in.frame_seeded + in.frame_cold), "ratio");
  r->Add("core.refreshes", in.engine_refreshes, "count");
  // Shard time split by the shard baseline's per-call costs: refreshes
  // x mean refresh time is search, consumed records x ingest cost is
  // pane work; the rest of shard busy time is the engine's own. It is
  // an estimate and is reported as computed, above 1 included.
  const double core_s = in.engine_refreshes * refresh_mean_s;
  const double window_s = in.consumed * shard_ingest_s_per_point;
  r->Add("core.search_share_of_shard_busy", Ratio(core_s, busy_sum), "ratio");

  const StoreCounters& st = in.store;
  const double append_s = static_cast<double>(st.append.sum) * 1e-9;
  r->Add("storage.wal_append_s", append_s, "s");
  r->Add("storage.wal_append_us_p99",
         st.append.count > 0 ? static_cast<double>(st.append.Quantile(0.99)) *
                                   1e-3
                             : 0.0,
         "us");
  r->Add("storage.fsync_s", st.fsync_s, "s");
  r->Add("storage.compaction_s", st.compaction_s, "s");
  r->Add("storage.compactions", static_cast<double>(st.compactions), "count");
  r->Add("storage.wal_bytes_per_pane",
         Ratio(static_cast<double>(st.wal_bytes), static_cast<double>(st.panes)),
         "bytes");
  r->Add("storage.chunk_bytes_per_pane",
         Ratio(static_cast<double>(st.chunk_bytes),
               static_cast<double>(st.panes)),
         "bytes");
  r->Add("storage.open_s", in.open_s, "s");
  r->Add("storage.replay_s", in.replay_s, "s");
  r->Add("storage.recovery_s", in.open_s + in.replay_s, "s");
  r->Add("storage.recovered_panes", in.recovered_panes, "count");
  r->Add("storage.durable_ingest_rps", in.durable_ingest_rps, "records/s");

  r->Add("process.peak_rss_mb", PeakRssMb(), "MB");
  r->Add("telemetry.trace_overhead_frac", in.trace_overhead_frac, "ratio");
  r->Add("trace.closure_min", trace.closure_min, "ratio");
  r->Check(trace.closure_min >= 0.95 && trace.closure_max <= 1.05,
           "trace closes: span self time plus idle time is within 5% of "
           "every traced thread's wall time (min " +
               FormatDouble(trace.closure_min) + ", max " +
               FormatDouble(trace.closure_max) + ")");
  r->Add("trace.spans", static_cast<double>(trace.spans), "count");

  // Layer shares of the busy time attributed across every thread.
  const double share_gen = trace.self_s[static_cast<size_t>(Layer::kGen)];
  const double share_net = in.client_blocked_s + in.decode_s;
  const double share_storage =
      append_s + st.compaction_s + in.open_s + in.replay_s;
  // The producer's time blocked on a full shard queue (inside
  // shard_push_s) waits on shard time counted below, so it is left out.
  const double share_stream =
      std::max(0.0, route_s - in.shard_push_s) +
      std::max(0.0, busy_sum - core_s - window_s - append_s);
  const double total = share_gen + share_net + share_stream + window_s +
                       core_s + share_storage;
  r->Add("share.gen", Ratio(share_gen, total), "ratio");
  r->Add("share.net", Ratio(share_net, total), "ratio");
  r->Add("share.stream", Ratio(share_stream, total), "ratio");
  r->Add("share.window", Ratio(window_s, total), "ratio");
  r->Add("share.core", Ratio(core_s, total), "ratio");
  r->Add("share.storage", Ratio(share_storage, total), "ratio");
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace pipebench
