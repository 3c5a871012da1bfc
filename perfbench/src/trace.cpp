#include "trace.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common.h"
#include "obs/export.h"

namespace perfbench {

int Tracer::begin(const char* name, std::int64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes nest, so the span being closed is the top of the stack.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int Tracer::record(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t id, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

std::vector<std::int64_t> Tracer::ends(std::string_view name) const {
  std::vector<std::int64_t> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end_ns);
  }
  return out;
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) sum += static_cast<double>(span.end_ns - span.start_ns);
  }
  return sum;
}

void Tracer::clear() {
  spans_.clear();
  stack_.clear();
  program_profile_.clear();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buffer[512];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %d, \"id\": %lld}}",
                  first ? "" : ",\n",
                  cea::obs::json_escape(span.name).c_str(),
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent, static_cast<long long>(span.id));
    out << buffer;
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

std::string Tracer::self_time_summary_json() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_cover[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> by_name, by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    const double self = duration - child_cover[i];
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    for (Totals* totals : {&by_name[name], &by_layer[layer]}) {
      ++totals->count;
      totals->total_ns += duration;
      totals->self_ns += self;
    }
  }
  std::ostringstream out;
  auto emit = [&out](const std::map<std::string, Totals>& table) {
    bool first = true;
    for (const auto& [key, totals] : table) {
      char buffer[256];
      std::snprintf(buffer, sizeof buffer,
                    "%s\"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                    "\"self_ms\": %.6f}",
                    first ? "" : ", ", cea::obs::json_escape(key).c_str(),
                    static_cast<unsigned long long>(totals.count),
                    totals.total_ns * 1e-6, totals.self_ns * 1e-6);
      out << buffer;
      first = false;
    }
  };
  out << "{\"layers\": {";
  emit(by_layer);
  out << "}, \"spans\": {";
  emit(by_name);
  out << "}, \"program\": "
      << (program_profile_.empty() ? "null" : program_profile_) << "}";
  return out.str();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace perfbench
