#include "common.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "obs/export.h"
#include "obs/telemetry.h"
#include "util/cpu.h"

namespace perfbench {

std::int64_t now_ns() noexcept { return cea::obs::now_ns(); }

Clock Clock::real() {
  Clock clock;
  clock.now = [] { return now_ns(); };
  // Sleep to within kSpinNs of the deadline, then spin: a plain sleep
  // wakes 0.1-1 ms late on a loaded host, which at a 1.75 ms period would
  // shift the offered schedule itself.
  clock.sleep_until = [](std::int64_t deadline) {
    constexpr std::int64_t kSpinNs = 100'000;
    const std::int64_t wait = deadline - now_ns();
    if (wait > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait - kSpinNs));
    }
    while (now_ns() < deadline) {
    }
  };
  return clock;
}

double ns_to_ms(double ns) noexcept { return ns * 1e-6; }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  // Count beyond percentile p among n samples: n * (1 - p/100), computed
  // in integers (tail parts per 1000) so 99 with n = 1000 is exactly 10.
  constexpr struct {
    double p;
    std::size_t tail_per_mille;
  } kCandidates[] = {{99.9, 1}, {99.0, 10}, {90.0, 100}, {50.0, 500}};
  for (const auto& candidate : kCandidates) {
    if (n * candidate.tail_per_mille >= min_beyond * 1000) return candidate.p;
  }
  return 0.0;
}

void Digest::add_bytes(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add_u64(std::uint64_t value) noexcept {
  char bytes[8];
  std::memcpy(bytes, &value, sizeof bytes);
  add_bytes(std::string_view(bytes, sizeof bytes));
}

void Digest::add_double(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add_u64(bits);
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, state_);
  return buffer;
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double host_steal_ms() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  if (!stat || cpu != "cpu") return 0.0;
  return fields[7] * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

StealMeter::StealMeter() : steal_ms_(host_steal_ms()), start_ns_(now_ns()) {}

double StealMeter::share() const {
  const double wall_ms = static_cast<double>(now_ns() - start_ns_) * 1e-6;
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return wall_ms > 0.0 ? (host_steal_ms() - steal_ms_) / (wall_ms * cpus) : 0.0;
}

Budget::Budget(double seconds)
    : start_ns_(now_ns()), budget_ns_(static_cast<std::int64_t>(seconds * 1e9)) {}

bool Budget::more() const { return clean_ns_ < budget_ns_ && !capped(); }

bool Budget::capped() const {
  return now_ns() - start_ns_ >= budget_ns_ + budget_ns_ / 2;
}

void Budget::add(std::int64_t window_ns, bool contended) {
  if (contended) {
    ++contended_;
  } else {
    clean_ns_ += window_ns;
  }
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return buffer;
}

void add_run_facts(RunResult& result, const RunOptions& options) {
  result.facts["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.facts["pool_threads"] = std::to_string(options.pool_threads);
  result.facts["threads_total"] = std::to_string(options.pool_threads + 1);
  std::string isa = "scalar";
  if (cea::util::have_avx2()) isa = "avx2";
  if (cea::util::have_avx512()) isa = "avx512";
  if (cea::util::have_avx512_vnni()) isa = "avx512+vnni";
  result.facts["isa"] = isa;
  result.facts["build_type"] = PERFBENCH_BUILD_TYPE;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  result.facts["git_sha"] = sha != nullptr && *sha != '\0' ? sha : "unknown";
  result.facts["seed"] = std::to_string(options.seed);
  result.facts["seconds"] = std::to_string(options.seconds);
  result.facts["trace"] = std::to_string(options.trace ? 1 : 0);
  result.facts["io_dir_fs"] = filesystem_type(options.out_dir);
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::string result_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(result.attempted, 1)
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out << (first ? "" : ", ") << '"' << cea::obs::json_escape(name)
        << "\": {\"value\": " << json_number(metric.value)
        << ", \"unit\": \"" << cea::obs::json_escape(metric.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string facts_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"facts\": {";
  bool first = true;
  for (const auto& [key, value] : result.facts) {
    out << (first ? "" : ", ") << '"' << cea::obs::json_escape(key)
        << "\": \"" << cea::obs::json_escape(value) << '"';
    first = false;
  }
  out << "}, \"failures\": [";
  first = true;
  for (const auto& failure : result.failures) {
    out << (first ? "" : ", ") << '"' << cea::obs::json_escape(failure)
        << '"';
    first = false;
  }
  out << "]}";
  return out.str();
}

void reset_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench
