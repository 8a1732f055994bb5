// EarthBEM end-to-end benchmark harness.
//
// Usage: ebem_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                       [--trace-dir <dir>]
//
// Prints context lines, then every metric by name with its unit, then one
// JSON object as the last line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{"name":{"value":..,"unit":".."}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced run (spans are written to --trace-dir, default .bench_traces).
// Exit status: 0 when every verdict matched its reference, 1 on any
// mismatch, 2 on a usage or harness error (sample rule, thread budget), in
// which case no JSON line is printed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr, "ebem_perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: ebem_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\nworkloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) return usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty()) return usage("--workload is required");

  perfbench::RunOutput out;
  try {
    out = perfbench::run_workload(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ebem_perfbench: %s: %s\n", config.workload.c_str(), error.what());
    return 2;
  }

  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  std::printf("attempted %llu, failed %llu\n", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const perfbench::Metric& metric : out.metrics) {
    std::printf("%-32s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              out.correct() ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& metric = out.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
