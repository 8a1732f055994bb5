// The benchmark's workloads. Each one builds its inputs from the seed,
// computes every verdict's reference outside the timed region and outside
// set-up, runs whole rounds for the requested time and checks every verdict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;     ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;  ///< human-readable context lines
  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

/// Names of the workloads run_workload accepts.
[[nodiscard]] std::vector<std::string> workload_names();

/// Run one workload. Throws on harness errors (unknown workload, sample-rule
/// or thread-budget violation); verdict mismatches are counted, not thrown.
[[nodiscard]] RunOutput run_workload(const RunConfig& config);

}  // namespace perfbench
