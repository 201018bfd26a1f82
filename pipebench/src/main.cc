// The pipeline benchmark program.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR]
//
// Runs one workload through the library's public surface and prints
// its metrics, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// ones. A run whose output checks fail prints the failures, reports no
// numbers and exits 1. pipebench/run.py builds this binary and runs
// every workload when none is named.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "telemetry/metrics.h"

namespace {

using pipebench::RunArgs;
using pipebench::WorkloadResult;

int Usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload "
               "firehose|refresh_heavy|live_dashboard|restart --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR]\n");
  return 2;
}

WorkloadResult Run(const RunArgs& args) {
  if (args.workload == "firehose") return pipebench::RunFirehose(args);
  if (args.workload == "refresh_heavy") {
    return pipebench::RunRefreshHeavy(args);
  }
  if (args.workload == "live_dashboard") {
    return pipebench::RunLiveDashboard(args);
  }
  return pipebench::RunRestart(args);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 ||
      (args.workload != "firehose" && args.workload != "refresh_heavy" &&
       args.workload != "live_dashboard" && args.workload != "restart") ||
      !(args.seconds > 0.0)) {
    return Usage();
  }
  // The library's telemetry stays on in both modes: the per-layer
  // metrics read its instruments, and toggling it would change the
  // program under test between the two runs.
  asap::telemetry::SetTelemetryEnabled(true);

  WorkloadResult result;
  if (args.trace) {
    // Price the spans: the same workload untraced, then traced, each
    // for half the run.
    RunArgs half = args;
    half.seconds = args.seconds / 2.0;
    half.trace = false;
    const WorkloadResult untraced = Run(half);
    half.trace = true;
    result = Run(half);
    for (const std::string& failure : untraced.check_failures) {
      result.check_failures.push_back("untraced pass: " + failure);
    }
    for (pipebench::Metric& m : result.metrics) {
      if (m.name == "telemetry.trace_overhead_frac") {
        m.value = untraced.ingest_rps > 0.0
                      ? 1.0 - result.ingest_rps / untraced.ingest_rps
                      : 0.0;
      }
    }
  } else {
    result = Run(args);
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  const bool correct = result.check_failures.empty();
  std::string metrics = "{";
  if (correct) {
    for (size_t i = 0; i < result.metrics.size(); ++i) {
      const pipebench::Metric& m = result.metrics[i];
      std::printf("  %-40s %16s %s\n", m.name.c_str(),
                  pipebench::FormatDouble(m.value).c_str(), m.unit.c_str());
      if (i > 0) metrics += ", ";
      metrics += JsonString(m.name) + ": {\"value\": " +
                 pipebench::FormatDouble(m.value) +
                 ", \"unit\": " + JsonString(m.unit) + "}";
    }
  } else {
    for (const std::string& failure : result.check_failures) {
      std::printf("  CHECK FAILED: %s\n", failure.c_str());
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
