#pragma once

// Shared plumbing of the repository benchmark: the clock, the percentile
// rules, run facts, output digests and the result record every workload
// fills in. See perfbench/README.md for the workloads and metrics.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds on the same timebase as obs::now_ns(), so spans
/// the benchmark records line up with the program's own trace events.
std::int64_t now_ns() noexcept;

/// Injectable clock for the pacer (tests substitute a fake one).
struct Clock {
  std::function<std::int64_t()> now;
  std::function<void(std::int64_t)> sleep_until;
  static Clock real();
};

double ns_to_ms(double ns) noexcept;

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The highest of the reported percentiles (50, 90, 99, 99.9) that has at
/// least `min_beyond` samples strictly beyond it among n samples, i.e. the
/// largest p with n * (1 - p/100) >= min_beyond. Returns 0 when even the
/// median lacks that support.
double highest_supported_percentile(std::size_t n,
                                    std::size_t min_beyond = 10);

/// Order-sensitive FNV-1a digest accumulator.
class Digest {
 public:
  void add_bytes(std::string_view bytes) noexcept;
  void add_u64(std::uint64_t value) noexcept;
  void add_double(double value) noexcept;  ///< exact bits
  std::uint64_t value() const noexcept { return state_; }
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> facts;  ///< run facts, digests, notes

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a correctness check: one attempted operation, failed when
  /// `ok` is false.
  void check(bool ok, const std::string& what);
};

/// Options shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< the run's own files (removed at exit)
  std::size_t pool_threads = 3;
};

/// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mb();

/// CPU time the hypervisor took from this host's virtual CPUs (the
/// "steal" column of /proc/stat), in milliseconds since boot; 0 where the
/// kernel does not report it.
double host_steal_ms();

/// Share of the guest's CPU capacity (wall time x nproc) the hypervisor
/// took since construction. On the shared reference host a quiet run
/// loses 0.3-1.5%; under a noisy neighbour 8-18%, and every figure then
/// measures the neighbour (fleet_catchup's throughput halved).
class StealMeter {
 public:
  StealMeter();
  double share() const;
  /// Above this share a measurement window is discarded and repeated.
  static constexpr double kMaxShare = 0.04;
  bool contended() const { return share() > kMaxShare; }

 private:
  double steal_ms_;
  std::int64_t start_ns_;
};

/// Run-length control: measurement windows (episodes, rounds) repeat
/// until `seconds` of windows the host left alone are collected
/// (StealMeter), or one and a half times that much wall time has passed
/// (which bounds a run on a contended host).
class Budget {
 public:
  explicit Budget(double seconds);
  bool more() const;
  /// True once one and a half times the budget of wall time has passed.
  bool capped() const;
  void add(std::int64_t window_ns, bool contended);
  std::size_t contended_windows() const { return contended_; }

 private:
  std::int64_t start_ns_, budget_ns_, clean_ns_ = 0;
  std::size_t contended_ = 0;
};

/// File-system type name of `path` ("ext4", "tmpfs", ... or a hex magic).
std::string filesystem_type(const std::string& path);

/// Facts every result carries: nproc, pool threads, ISA, build type, SHA.
void add_run_facts(RunResult& result, const RunOptions& options);

/// Render the final one-line JSON result object.
std::string result_json(const RunResult& result);
/// Render the facts as one JSON object line.
std::string facts_json(const RunResult& result);

/// Recursively remove and re-create a directory.
void reset_dir(const std::string& path);

}  // namespace perfbench
