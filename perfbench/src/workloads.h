#pragma once

// The three workloads of the repository benchmark (perfbench/README.md)
// and the helpers the two serving-loop workloads share.

#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "paced_feed.h"
#include "serve/controller.h"

namespace perfbench {

RunResult run_fleet_catchup(const RunOptions& options);
RunResult run_serve_observed(const RunOptions& options);
RunResult run_edge_inference(const RunOptions& options);

/// The serve_observed tenants: two "Ours" tenants on the SoA fleet policy,
/// one "Ours" tenant on the per-edge adapter path and one baseline
/// pairing, optionally with every factory wrapped in the decorators.
std::vector<cea::serve::TenantSpec> serve_tenants(std::uint64_t seed,
                                                  std::size_t edges,
                                                  std::size_t slots,
                                                  bool instrument);

/// Hex FNV-1a of a checkpoint payload — the output digest of a loop run.
std::string payload_digest(std::string_view payload);

/// Per-tenant correctness gates on the engines' recorded series: the
/// allowance ledger identity balance == R + sum(z - w - e) and every
/// series finite.
void check_ledgers(RunResult& result, cea::serve::ServeController& controller);

/// One ServeController::step driven from outside, in its own order (every
/// tenant's begin_slot, clearing against the shared liquidity in tenant
/// order, every tenant's finish_slot), with a span around each call.
void traced_step(cea::serve::ServeController& controller,
                 const cea::serve::MarketRule& market,
                 const cea::serve::SlotInput& input, std::size_t slot);

/// slot_p50_ms / slot_p99_ms from per-slot latencies, gated on the p99
/// having at least ten samples beyond it.
void add_slot_latency(RunResult& result, const std::vector<double>& latencies);

/// The loop workloads' end-to-end figures over a run's episodes (one
/// controller driven over the whole slot range each). Throughputs are the
/// median over episodes; slot_p50_ms and slot_p99_ms are taken over every
/// slot of the run, so the tail rests on all of them (each episode alone
/// must still support a p99 with ten samples beyond it).
class EpisodeStats {
 public:
  /// One episode: its per-slot latencies, decisions and stream samples
  /// completed, and its run wall time.
  void add(RunResult& result, const std::vector<double>& latencies,
           double decisions, double samples, double seconds);
  /// decisions_per_s, samples_per_s, slot_p50_ms, slot_p99_ms.
  void report(RunResult& result) const;
  double p50_ms() const { return median(latencies_); }
  bool empty() const { return episode_p99_.empty(); }

 private:
  std::vector<double> latencies_, episode_p99_, decisions_per_s_,
      samples_per_s_;
};

/// Every per-layer metric name with its unit, so every traced run prints
/// the full set (0 for a layer the workload does not exercise).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
void zero_fill_per_layer(RunResult& result);

/// Prometheus text exposition check: every sample line is
/// `name{labels} value` with a parseable value. Returns false with the
/// first bad line in `error`.
bool parse_prometheus(std::string_view text, std::size_t& samples,
                      std::string& error);

}  // namespace perfbench
