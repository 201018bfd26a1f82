// The benchmark's own tests: the percentile helpers, the probe-pane
// decoder against real StreamingAsap frames in arrival and timed mode,
// and frame equality. Exits non-zero on any failure.
//
//   python3 pipebench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/streaming_asap.h"
#include "harness.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, double got = NAN, double want = NAN) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s (got %.17g, want %.17g)\n", what, got, want);
  }
}

void ExpectNear(double got, double want, const char* what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)), what,
         got, want);
}

void TestPercentile() {
  using pipebench::Percentile;
  ExpectNear(Percentile({4, 1, 3, 2}, 0.5), 2.5, "median of 1..4");
  ExpectNear(Percentile({4, 1, 3, 2}, 0.0), 1.0, "q=0 is the minimum");
  ExpectNear(Percentile({4, 1, 3, 2}, 1.0), 4.0, "q=1 is the maximum");
  ExpectNear(Percentile({7}, 0.99), 7.0, "single sample");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 0.99), 99.01, "p99 of 1..100 interpolates");
  ExpectNear(Percentile(hundred, 0.5), 50.5, "p50 of 1..100");
  Expect(std::isnan(Percentile({}, 0.5)), "empty input is NaN");
  ExpectNear(pipebench::Median({3, 1, 2}), 2.0, "Median");
}

void TestWindowed() {
  using pipebench::TimedSample;
  // Two full windows: values 1..200 due in [0, 1s), 1001..1200 in
  // [1s, 2s); a third window too small to count.
  std::vector<TimedSample> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back({i * 1'000'000LL, 1.0 + i});
    samples.push_back({1'000'000'000LL + i * 1'000'000LL, 1001.0 + i});
  }
  samples.push_back({5'000'000'000LL, 1e9});
  const double w0 = pipebench::Percentile(
      [] {
        std::vector<double> v;
        for (int i = 0; i < 200; ++i) v.push_back(1.0 + i);
        return v;
      }(),
      0.99);
  ExpectNear(pipebench::WindowedQuantile(samples, pipebench::kWindowNs, 0.99),
             (w0 + w0 + 1000.0) / 2.0, "median over windows of window p99");
  // A stall in one window of three moves the median not at all.
  std::vector<TimedSample> stalled;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 100; ++i) {
      stalled.push_back({w * 1'000'000'000LL + i, w == 1 ? 500.0 : 5.0});
    }
  }
  ExpectNear(pipebench::WindowedQuantile(stalled, pipebench::kWindowNs, 0.99),
             5.0, "one stalled window does not move the median");

  // 1000 per second for 3 s, then 2000 per second for 1 s.
  std::vector<int64_t> t;
  std::vector<uint64_t> count;
  for (int i = 0; i <= 40; ++i) {
    t.push_back(i * 100'000'000LL);
    count.push_back(i <= 30 ? i * 100u : 3000u + (i - 30) * 200u);
  }
  ExpectNear(pipebench::WindowedRate(t, count, pipebench::kWindowNs), 1000.0,
             "median window rate");
}

// Feeds a probe series (value = pane index) and checks after every
// refresh that the decoder names the newest pane the frame covers:
// the newest pane the operator has completed.
void TestProbeArrival(size_t refresh_every) {
  asap::StreamingOptions o;
  o.visible_points = 256;
  o.resolution = 32;  // 8-point panes
  o.refresh_every_points = refresh_every;
  asap::StreamingAsap op = asap::StreamingAsap::Create(o).ValueOrDie();
  const size_t pane = op.pane_size();
  size_t refreshes = 0;
  for (size_t j = 0; j < 3000; ++j) {
    if (!op.Push(static_cast<double>(j / pane))) continue;
    ++refreshes;
    const int64_t newest_complete = static_cast<int64_t>((j + 1) / pane) - 1;
    const int64_t decoded = pipebench::NewestProbePane(op.frame());
    Expect(decoded == newest_complete, "arrival-mode probe decodes exactly",
           static_cast<double>(decoded), static_cast<double>(newest_complete));
  }
  Expect(refreshes > 10, "arrival-mode probe refreshed");
}

// Timed mode: a pane commits when the first point of the next bucket
// arrives, so the newest covered pane is the one before the bucket of
// the point that triggered the refresh.
void TestProbeTimed(size_t refresh_every) {
  constexpr int64_t kTick = 250, kWidth = 4000;
  asap::StreamingOptions o;
  o.visible_points = 16 * 64;
  o.resolution = 64;  // 16-point panes = one 4000-tick bucket
  o.refresh_every_points = refresh_every;
  o.pane_width_ticks = kWidth;
  asap::StreamingAsap op = asap::StreamingAsap::Create(o).ValueOrDie();
  size_t refreshes = 0;
  for (int64_t j = 0; j < 4000; ++j) {
    const int64_t ts = j * kTick;
    const double value = static_cast<double>(ts / kWidth);
    if (op.PushTimed(&value, &ts, 1) == 0) continue;
    ++refreshes;
    const int64_t newest_committed = ts / kWidth - 1;
    const int64_t decoded = pipebench::NewestProbePane(op.frame());
    Expect(decoded == newest_committed, "timed-mode probe decodes exactly",
           static_cast<double>(decoded), static_cast<double>(newest_committed));
  }
  Expect(refreshes > 10, "timed-mode probe refreshed");
}

// Whatever window the search picks, the SMA of a ramp decodes to the
// ramp's last index.
void TestProbeWindows() {
  for (size_t w = 1; w <= 9; ++w) {
    asap::StreamingAsap::Frame frame;
    frame.window = w;
    frame.refreshes = 1;
    for (size_t end = w; end <= 40; ++end) {
      double sum = 0.0;
      for (size_t k = end - w; k < end; ++k) sum += static_cast<double>(k);
      frame.series.push_back(sum / static_cast<double>(w));
    }
    Expect(pipebench::NewestProbePane(frame) == 39, "SMA window decodes",
           static_cast<double>(pipebench::NewestProbePane(frame)), 39);
  }
  Expect(pipebench::NewestProbePane(asap::StreamingAsap::Frame{}) == -1,
         "an unrefreshed frame covers no pane");
}

void TestSameFrame() {
  asap::StreamingAsap::Frame a;
  a.series = {1.0, 2.0, 3.0};
  a.window = 2;
  a.refreshes = 5;
  asap::StreamingAsap::Frame b = a;
  Expect(pipebench::SameFrame(a, b), "identical frames are equal");
  b.series[1] = std::nextafter(2.0, 3.0);
  Expect(!pipebench::SameFrame(a, b), "one ulp apart is not equal");
  b = a;
  b.candidates_evaluated = 1;
  Expect(!pipebench::SameFrame(a, b), "counters are compared");
}

}  // namespace

int main() {
  TestPercentile();
  TestWindowed();
  TestProbeArrival(0);   // refresh on every pane
  TestProbeArrival(12);  // cadence not aligned to panes
  TestProbeArrival(40);
  TestProbeTimed(0);
  TestProbeTimed(24);
  TestProbeWindows();
  TestSameFrame();
  std::printf("pipebench selftest: %s (%d failures)\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
