// refresh_heavy: closed-loop in-process ingest where window search
// dominates.
//
// 64 series with a long visible window (8000 points at 400 px) refresh
// on every pane, fed round by round from an InterleavingMultiSource
// into 2 shards. No wire, no store, no readers besides the probe
// poller: ASAP's ACF, pruning and ScoreWindow kernels take most of the
// shard time, and the net layer is bypassed entirely.
//
// The loop is closed with a window of kInFlight records handed to the
// engine but not yet consumed. Latency here is frame freshness in
// arrival mode: from the moment the
// source handed out a probe pane's last record to the first snapshot
// poll whose frame covers that pane.

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace pipebench {
namespace {

constexpr size_t kSeries = 64;
constexpr size_t kVisible = 8000;
constexpr size_t kResolution = 400;
constexpr size_t kRoundPoints = 4000;  // per series per round
constexpr size_t kCheckStride = 16;    // series 1, 17, 33, 49 are checked
// The loop is closed with a window of outstanding records (about 20 ms
// of work), as a client with that much work in flight would.
constexpr uint64_t kInFlight = 8192;

asap::StreamingOptions SeriesOptions() {
  asap::StreamingOptions o;
  o.resolution = kResolution;
  o.visible_points = kVisible;
  o.refresh_every_points = 0;  // refresh on every pane
  return o;
}

/// Per-probe bookkeeping shared by the producer-side observer (due
/// times) and the poller (first-seen times); read after both stop.
struct ProbeClock {
  size_t series_index = 0;
  uint64_t points = 0;          // producer thread only
  std::vector<int64_t> due_ns;  // producer thread only, by pane index
  std::vector<int64_t> seen_ns; // poller thread only, by pane index
  int64_t newest_seen = -1;     // poller thread only
};

struct Observer {
  const std::vector<asap::stream::SeriesId>* probe_ids;
  std::vector<ProbeClock>* probes;
  size_t pane_size;

  static void OnBatch(void* ctx, const asap::stream::Record* records,
                      size_t n) {
    Observer* self = static_cast<Observer*>(ctx);
    const int64_t now = NowNs();
    for (size_t i = 0; i < n; ++i) {
      for (size_t p = 0; p < self->probe_ids->size(); ++p) {
        if (records[i].series_id != (*self->probe_ids)[p]) continue;
        ProbeClock& probe = (*self->probes)[p];
        if (++probe.points % self->pane_size == 0) {
          probe.due_ns.push_back(now);
        }
      }
    }
  }
};

}  // namespace

WorkloadResult RunRefreshHeavy(const RunArgs& args) {
  WorkloadResult result;
  const asap::StreamingOptions series_options = SeriesOptions();
  const size_t pane_size =
      asap::StreamingAsap::Create(series_options).ValueOrDie().pane_size();
  std::optional<asap::stream::ShardedEngine> engine_slot;
  std::vector<std::string> names;
  std::vector<std::vector<double>> payload;
  std::vector<ProbeClock> probes;
  auto round_values = [&](size_t i, uint64_t round) {
    if (!IsProbe(i)) return payload[i];
    std::vector<double> v(kRoundPoints);
    for (size_t j = 0; j < kRoundPoints; ++j) {
      v[j] = static_cast<double>((round * kRoundPoints + j) / pane_size);
    }
    return v;
  };
  const uint64_t prefill_rounds = kVisible / kRoundPoints;
  asap::stream::FleetReport warm;

  // Set up several times and report the median; the last set-up runs.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    engine_slot.reset();
    names.clear();
    payload.clear();
    probes.clear();
    const int64_t setup_start = NowNs();
    asap::stream::ShardedEngineOptions engine_options;
    engine_options.shards = 2;
    engine_slot.emplace(
        asap::stream::ShardedEngine::Create(series_options, engine_options)
            .ValueOrDie());

    // Payload: a round of values per series (repeated every round); a
    // probe's value is its lifetime pane index, generated per round.
    for (size_t i = 0; i < kSeries; ++i) {
      asap::Pcg32 rng(args.seed, i);
      names.push_back("rh-" + std::to_string(i) + "/latency");
      const double period = 100.0 + static_cast<double>((i * 13) % 300);
      payload.push_back(asap::gen::SeasonalComposite(
          &rng, kRoundPoints, {period, 1000.0}, {1.0, 0.5}, 0.1));
      if (IsProbe(i)) {
        ProbeClock probe;
        probe.series_index = i;
        probes.push_back(probe);
      }
    }
    // Untimed warm-up: prefill a full visible window per series.
    for (uint64_t r = 0; r < prefill_rounds; ++r) {
      asap::stream::InterleavingMultiSource source(engine_slot->catalog());
      for (size_t i = 0; i < kSeries; ++i) {
        source.AddVector(names[i], round_values(i, r));
      }
      warm = engine_slot->RunToCompletion(&source);
    }
    setup_s.push_back(static_cast<double>(NowNs() - setup_start) * 1e-9);
  }
  asap::stream::ShardedEngine& engine = *engine_slot;
  std::vector<asap::stream::SeriesId> probe_ids;
  for (ProbeClock& probe : probes) {
    probe_ids.push_back(*engine.catalog()->FindId(names[probe.series_index]));
    probe.points = prefill_rounds * kRoundPoints;
    probe.due_ns.assign(probe.points / pane_size, 0);
  }

  // Measured rounds, with the probe poller running alongside.
  const RegistryReader reader(engine.metrics());
  const double push_before = reader.HistogramSeconds("asap_shard_push_seconds");
  ThreadTrace producer_trace("producer", args.trace);
  ThreadTrace poller_trace("poller", args.trace);
  std::atomic<bool> stop{false};
  asap::telemetry::LatencyHistogram poll_ns;
  std::thread poller([&] {
    poller_trace.Start();
    while (!stop.load(std::memory_order_acquire)) {
      for (ProbeClock& probe : probes) {
        ScopedSpan span(&poller_trace, Layer::kStream);
        const int64_t t0 = NowNs();
        const auto frame = engine.Snapshot(names[probe.series_index]);
        const int64_t t1 = NowNs();
        poll_ns.Record(static_cast<uint64_t>(t1 - t0));
        const int64_t newest = frame == nullptr ? -1 : NewestProbePane(*frame);
        for (int64_t p = probe.newest_seen + 1; p <= newest; ++p) {
          if (probe.seen_ns.size() <= static_cast<size_t>(p)) {
            probe.seen_ns.resize(static_cast<size_t>(p) + 1, 0);
          }
          probe.seen_ns[static_cast<size_t>(p)] = t1;
        }
        probe.newest_seen = std::max(probe.newest_seen, newest);
      }
      ScopedSpan idle(&poller_trace, Layer::kIdle);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    poller_trace.Stop();
  });

  Observer observer{&probe_ids, &probes, pane_size};
  const ConsumedCounter consumed(engine.metrics());
  LayerInputs in;
  uint64_t rounds = 0;
  uint64_t pulled = 0, shard_points = 0;
  std::vector<double> round_rps;
  asap::stream::FleetReport last = warm;
  const int64_t measure_start = NowNs();
  producer_trace.Start();
  while (static_cast<double>(NowNs() - measure_start) * 1e-9 < args.seconds) {
    asap::stream::InterleavingMultiSource inner(engine.catalog());
    {
      ScopedSpan gen(&producer_trace, Layer::kGen);
      for (size_t i = 0; i < kSeries; ++i) {
        inner.AddVector(names[i], round_values(i, prefill_rounds + rounds));
      }
    }
    TimedSource source(&inner, &producer_trace, Layer::kGen);
    source.set_observer(&Observer::OnBatch, &observer);
    source.set_window(&consumed, kInFlight);
    {
      ScopedSpan run(&producer_trace, Layer::kStream);
      last = engine.RunToCompletion(&source);
    }
    ++rounds;
    pulled += last.points;
    const uint64_t round_points = AddFleetReport(last, &in, &result);
    shard_points += round_points;
    round_rps.push_back(static_cast<double>(round_points) / last.seconds);
    in.gen_source_s += source.wait_s();
    in.producer_idle_s += source.idle_s();
  }
  producer_trace.Stop();
  const int64_t measure_end = NowNs();
  stop.store(true, std::memory_order_release);
  poller.join();
  const double wall_s = static_cast<double>(measure_end - measure_start) * 1e-9;

  // --- checks -----------------------------------------------------------
  const uint64_t sent = rounds * kRoundPoints * kSeries;
  result.Check(pulled == sent, "every generated record was pulled");
  result.attempted = sent;
  result.failed = sent - std::min(sent, shard_points);

  Baseline replay;
  std::vector<size_t> checked;
  for (size_t i = 1; i < kSeries; i += kCheckStride) checked.push_back(i);
  checked.push_back(probes[0].series_index);
  for (size_t i : checked) {
    asap::StreamingAsap op =
        asap::StreamingAsap::Create(series_options).ValueOrDie();
    for (uint64_t r = 0; r < prefill_rounds + rounds; ++r) {
      const std::vector<double> v = round_values(i, r);
      replay.Push(&op, v.data(), v.size());
    }
    const auto frame = engine.Snapshot(names[i]);
    result.Check(frame != nullptr && SameFrame(*frame, op.frame()),
                 "engine frame of " + names[i] + " equals the baseline");
  }

  // --- latency: probe freshness -----------------------------------------
  // Only panes completed during the measured rounds count; every one of
  // them must have been seen (the final frame covers the last pane).
  std::vector<TimedSample> fresh_ms;
  uint64_t missing = 0;
  for (const ProbeClock& probe : probes) {
    for (size_t p = prefill_rounds * kRoundPoints / pane_size;
         p < probe.due_ns.size(); ++p) {
      if (p < probe.seen_ns.size() && probe.seen_ns[p] != 0) {
        fresh_ms.push_back(
            {probe.due_ns[p],
             static_cast<double>(probe.seen_ns[p] - probe.due_ns[p]) * 1e-6});
      } else {
        ++missing;
      }
    }
  }
  result.attempted += fresh_ms.size() + missing;
  result.failed += missing;
  result.Check(!fresh_ms.empty(), "probe freshness samples were taken");

  // The median round's rate, so one stall of a shared machine moves
  // one round rather than the run's figure.
  result.ingest_rps = Median(round_rps);
  result.notes.push_back(
      "whole-run rate " +
      FormatDouble(static_cast<double>(shard_points) / wall_s) + " records/s");
  result.notes.push_back(
      "closed loop, in-process InterleavingMultiSource, " +
      std::to_string(kSeries) + " series, 2 shards, " + std::to_string(rounds) +
      " rounds of " + std::to_string(kRoundPoints) + " points/series");
  result.notes.push_back(
      "latency = probe freshness (pane handed to engine -> frame poll), " +
      std::to_string(fresh_ms.size()) + " samples, " + std::to_string(missing) +
      " missing; " + std::to_string(checked.size()) +
      " frames checked bitwise against the baseline");
  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("ingest_rps", result.ingest_rps, "records/s");
    result.Add("latency_p50_ms", WindowedQuantile(fresh_ms, kWindowNs, 0.5),
               "ms");
    result.Add("latency_p90_ms", WindowedQuantile(fresh_ms, kWindowNs, 0.90),
               "ms");
    return result;
  }

  in.shard_push_s = reader.HistogramSeconds("asap_shard_push_seconds") - push_before;
  in.snapshot_poll = poll_ns.TakeSnapshot();
  // One whole round per series, so the refreshes are timed at every
  // phase of the repeating payload as the engine's were; each turn
  // gives a series the points it gets in one engine batch, so the
  // operators' state is as warm in cache as in the shards.
  const size_t visit =
      asap::stream::ShardedEngineOptions{}.batch_size / kSeries;
  const Baseline baseline =
      TimeSingleThread(series_options, payload, kRoundPoints, visit);
  const Baseline shard_baseline = TimeConcurrent(
      series_options, payload, kRoundPoints, visit, last.shards.size());
  in.baseline = &baseline;
  in.shard_baseline = &shard_baseline;
  in.latency_p99_ms = WindowedQuantile(fresh_ms, kWindowNs, 0.99);
  in.engine_refreshes = static_cast<double>(last.refreshes - warm.refreshes);
  asap::stream::FleetView view(&engine);
  view.ForEachSeries([&](std::string_view, const asap::StreamingAsap::Frame& f) {
    AddFrameCounters(f, &in);
  });
  const TraceReport trace = SummarizeTraces({&producer_trace, &poller_trace});
  for (const std::string& line : trace.lines) result.notes.push_back(line);
  AddLayerMetrics(in, trace, &result);
  return result;
}

}  // namespace pipebench
