#pragma once

// The benchmark's own span recorder for the traced run. Spans are taken
// around calls into the program's public functions from the benchmark's
// files (no span is added inside src/), kept in memory, and written at
// exit as a Chrome trace-event document plus a self-time summary per
// layer. Single-writer: only the thread that drives the daemon or the
// engines records spans; work on pool workers is aggregated by the
// decorators (decorators.h) instead.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< static string, "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index of the enclosing span, -1 at the root
  std::int64_t id = -1;     ///< slot or batch id the span belongs to
};

class Tracer {
 public:
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Open a span (no-op returning -1 when disabled).
  int begin(const char* name, std::int64_t id);
  void end(int index);

  /// Record an already measured interval under an explicit parent span
  /// (-1 for a root); returns its index (-1 when disabled).
  int record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
             std::int64_t id, int parent);

  /// Keep the program's own phase histograms (obs::snapshot) to write
  /// beside the benchmark's spans in the summary.
  void attach_program_profile(std::string profile_json) {
    program_profile_ = std::move(profile_json);
  }

  /// RAII scope around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t id)
        : tracer_(tracer), index_(tracer.begin(name, id)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations (ns) of every span called `name`, in recording order.
  std::vector<double> durations(std::string_view name) const;
  /// End timestamps (ns) of every span called `name`, in recording order.
  std::vector<std::int64_t> ends(std::string_view name) const;
  /// Sum of durations (ns) of spans called `name`.
  double total(std::string_view name) const;
  void clear();

  /// Chrome trace-event JSON ("X" events, parent/id in args).
  bool write_chrome_trace(const std::string& path) const;
  /// Per-span-name and per-layer totals: count, total and self time
  /// (duration minus the part covered by direct children).
  std::string self_time_summary_json() const;

 private:
  bool enabled_ = false;
  std::string program_profile_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide recorder the workloads and decorators share.
Tracer& tracer();

}  // namespace perfbench
