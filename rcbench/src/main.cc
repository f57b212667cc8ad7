// rcbench: runs one workload of the benchmark and prints what it measured.
//
//   rcbench --workload adhoc_olap|dashboard_wire|window_ingest --seed N
//           --seconds S --trace 0|1 [--out DIR]
//
// Prints one "metric" line per figure (name, value, unit, samples), then as
// its last line a JSON object {"correct", "attempted", "failed", "metrics"}
// whose metrics carry value, unit and samples. rcbench/run.py builds this
// binary and narrows that object to the metrics BENCHMARK.json names.
// Scratch files (durable data directories) live under DIR/run-* and are
// removed at exit; the traced run leaves its spans in DIR/spans-*.jsonl.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace rcbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rcbench --workload adhoc_olap|dashboard_wire|"
               "window_ingest --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string out = ".bench_out";
  RunArgs args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--out") == 0) {
      out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds) return Usage();
  Outcome (*run)(const RunArgs&) = nullptr;
  if (workload == "adhoc_olap") run = RunAdhocOlap;
  if (workload == "dashboard_wire") run = RunDashboardWire;
  if (workload == "window_ingest") run = RunWindowIngest;
  if (run == nullptr) return Usage();

  const std::string tag = workload + "-" + std::to_string(args.seed);
  args.scratch_dir =
      out + "/run-" + tag + "-" + std::to_string(static_cast<long>(getpid()));
  args.spans_path = out + "/spans-" + tag + ".jsonl";
  std::error_code ec;
  std::filesystem::create_directories(args.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "rcbench: cannot create %s\n",
                 args.scratch_dir.c_str());
    return 1;
  }
  Outcome o = run(args);
  std::filesystem::remove_all(args.scratch_dir, ec);

  for (const std::string& p : o.problems) {
    std::fprintf(stderr, "rcbench: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": " + std::string(o.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : o.metrics) {
    double v = std::isfinite(m.value) ? m.value : 0.0;
    char buf[512];
    std::printf("metric %-44s %20.6f %-6s samples=%llu\n", name.c_str(), v,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %llu}",
                  first ? "" : ", ", name.c_str(), v, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace rcbench

int main(int argc, char** argv) { return rcbench::Main(argc, argv); }
