// Repository benchmark entry point:
//   perfbench --workload <fleet_catchup|serve_observed|edge_inference>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--io <dir>]
// Prints one facts line and, as the last line of standard output, the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, and the spans are written to <out>/<workload>-seed<n>
// .trace.json (Chrome trace events) and .summary.json (self time per
// layer). See perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet_catchup|serve_observed|"
               "edge_inference> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--io <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  std::string out = ".bench_build/perfbench-out";
  std::string io;  // scratch for the run's own files; defaults to <out>
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--io") {
      io = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage();

  // nproc - 1 threads in total: the pool's workers plus this thread, which
  // takes part in every parallel_for. One core stays free for the rest of
  // the host: with all four cores of the 4-core reference host spinning,
  // other tasks preempted a timed thread for up to 24 ms, against 8 ms
  // with three, and a preempted shard or daemon thread stalls the slot.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  options.pool_threads = nproc > 2 ? nproc - 2 : 1;
  setenv("CEA_BENCH_THREADS", std::to_string(options.pool_threads).c_str(), 1);

  options.out_dir = (io.empty() ? out : io) + "/run-" + workload + "-" +
                    std::to_string(getpid());
  perfbench::reset_dir(options.out_dir);

  perfbench::RunResult result;
  const double steal_start = perfbench::host_steal_ms();
  try {
    if (workload == "fleet_catchup") {
      result = perfbench::run_fleet_catchup(options);
    } else if (workload == "serve_observed") {
      result = perfbench::run_serve_observed(options);
    } else if (workload == "edge_inference") {
      result = perfbench::run_edge_inference(options);
    } else {
      std::filesystem::remove_all(options.out_dir);
      return usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 error.what());
    std::filesystem::remove_all(options.out_dir);
    return 1;
  }
  std::filesystem::remove_all(options.out_dir);
  // CPU time the hypervisor took from this host's virtual CPUs during the
  // run: a noisy-neighbour indicator for reading the figures.
  result.facts["host_steal_ms"] =
      std::to_string(perfbench::host_steal_ms() - steal_start);

  if (options.trace) {
    const std::string stem =
        out + "/" + workload + "-seed" + std::to_string(options.seed);
    perfbench::tracer().write_chrome_trace(stem + ".trace.json");
    std::ofstream(stem + ".summary.json")
        << perfbench::tracer().self_time_summary_json() << "\n";
    result.facts["trace_file"] = stem + ".trace.json";
  }
  for (const auto& failure : result.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  std::printf("%s\n", perfbench::facts_json(result).c_str());
  std::printf("%s\n", perfbench::result_json(result).c_str());
  return 0;
}
