// Shared helpers for the paper-reproduction bench harnesses: aligned
// text tables and robust timing.

#ifndef ASAP_BENCH_BENCH_UTIL_H_
#define ASAP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "telemetry/metrics.h"

namespace asap {
namespace bench {

/// Prints a section banner.
inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Prints a row of cells padded to `width` characters each. Every
/// cell is followed by at least one space, so a cell that overflows
/// its column still stays apart from the next one.
inline void Row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s ", width - 1, cell.c_str());
  }
  std::printf("\n");
}

/// Prints a separator sized for `columns` cells of `width` chars.
inline void Rule(size_t columns, int width = 14) {
  std::string line(columns * static_cast<size_t>(width), '-');
  std::printf("%s\n", line.c_str());
}

/// Formats a double with the given precision.
inline std::string Fmt(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

/// Formats a throughput / speedup in engineering style (1.2K, 3.4M).
inline std::string FmtEng(double value) {
  char buffer[64];
  if (value >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.1fM", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.1fK", value / 1e3);
  } else if (value >= 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  }
  return buffer;
}

/// Runs `fn` `reps` times and returns the minimum wall-clock seconds
/// (minimum is the standard noise-robust estimator for short kernels).
inline double TimeBest(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// TimeBest that also records every rep into the global telemetry
/// registry as asap_bench_seconds{case="<label>"} — the bench tier
/// dogfooding the same histogram the production hot paths use. A
/// harness can RenderPrometheus(MetricsRegistry::Global()) at exit to
/// emit all its timings in one machine-readable block.
inline double TimeBestReported(const std::string& label,
                               const std::function<void()>& fn, int reps = 3) {
  std::shared_ptr<telemetry::LatencyHistogram> hist =
      telemetry::MetricsRegistry::Global().GetHistogram(
          {"asap_bench_seconds",
           "Per-rep bench case wall time",
           {{"case", label}},
           1e-9});
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const uint64_t nanos = watch.ElapsedNanos();
    if (hist != nullptr) {
      hist->Record(nanos);
    }
    best = std::min(best, static_cast<double>(nanos) * 1e-9);
  }
  return best;
}

}  // namespace bench
}  // namespace asap

#endif  // ASAP_BENCH_BENCH_UTIL_H_
