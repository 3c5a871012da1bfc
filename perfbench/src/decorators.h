#pragma once

// Delegating decorators for the traced run. They wrap the program's
// public policy seams — bandit::FleetPolicy, the per-edge
// bandit::ModelSelectionPolicy (with its TsallisBatchSolvable side when
// the wrapped policy has one) and trading::TradingPolicy — and are
// installed through the sim::AlgorithmCombo factories. Every virtual is
// forwarded (supports_batch_solve, next_solve/accept_presolve,
// save_state/load_state, name, dual_value), so the program takes the same
// path with or without them; tests/test_perfbench.cpp pins that the
// digests agree.
//
// Bandit calls run on pool workers, so they are aggregated into
// per-thread accumulators rather than recorded as spans; trader calls run
// on the driving thread and become spans (trace.h).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bandit/fleet_policy.h"
#include "bandit/policy.h"
#include "sim/experiment.h"
#include "trading/trader.h"

namespace perfbench {

/// Per-thread call statistics of the bandit layer. Each thread writes only
/// its own cache-line-padded slot; totals are read at pool-quiescent
/// points (after the slot's parallel_for returned). Every call is counted;
/// one call in kSampleEvery is timed, which keeps the clock reads of a
/// 10,000-edge slot from dominating what they measure.
struct BanditThreadStats {
  std::uint64_t select_calls = 0, select_timed = 0;
  std::uint64_t feedback_calls = 0, feedback_timed = 0;
  std::int64_t select_ns = 0;    ///< over the timed calls
  std::int64_t feedback_ns = 0;  ///< over the timed calls
};

struct BanditTotals {
  std::uint64_t select_calls = 0;
  std::uint64_t feedback_calls = 0;
  double select_ns_per_call = 0.0;
  double feedback_ns_per_call = 0.0;
  /// Estimated time in all calls, summed over threads (ns).
  double busy_ns = 0.0;
};

/// Presolve gather/scatter window of one fleet policy in the current slot
/// (timestamps, ns; 0 when the slot ran no presolve).
struct PresolveWindow {
  std::int64_t gather_start = 0, gather_end = 0;
  std::int64_t scatter_start = 0, scatter_end = 0;
  std::uint64_t lanes = 0;
};

/// Shared state of every decorator of the process.
class Probe {
 public:
  static constexpr std::size_t kMaxThreads = 64;
  static constexpr std::uint64_t kSampleEvery = 8;

  /// Turn timing on or off; set on the driving thread between slots.
  void set_timing(bool on) noexcept { timing_ = on; }
  bool timing() const noexcept { return timing_; }

  BanditThreadStats& local();
  BanditTotals bandit_totals() const;
  void reset_bandit();

 private:
  struct alignas(64) Slot {
    BanditThreadStats stats;
  };
  bool timing_ = false;
  std::array<Slot, kMaxThreads> slots_{};
  std::atomic<std::size_t> next_thread_{0};
};

Probe& probe();

class TimedFleetPolicy final : public cea::bandit::FleetPolicy {
 public:
  explicit TimedFleetPolicy(std::unique_ptr<cea::bandit::FleetPolicy> inner);

  std::size_t num_edges() const noexcept override;
  std::size_t select(std::size_t edge, std::size_t t) override;
  void feedback(std::size_t edge, std::size_t t, std::size_t arm,
                double loss) override;
  bool next_solve(std::size_t edge,
                  cea::bandit::TsallisSolveRequest& out) override;
  void accept_presolve(std::size_t edge, std::span<const double> probabilities,
                       double scaled_lambda_warm) override;
  bool supports_batch_solve() const noexcept override;
  std::string name() const override;
  bool save_state(cea::util::StateWriter& writer) const override;
  bool load_state(cea::util::StateReader& reader) override;

  const PresolveWindow& window() const noexcept { return window_; }

 private:
  std::unique_ptr<cea::bandit::FleetPolicy> inner_;
  std::size_t last_edge_ = 0;
  std::uint64_t accepted_ = 0;
  PresolveWindow window_;
};

class TimedTrader final : public cea::trading::TradingPolicy {
 public:
  explicit TimedTrader(std::unique_ptr<cea::trading::TradingPolicy> inner)
      : inner_(std::move(inner)) {}

  cea::trading::TradeDecision decide(
      std::size_t t, const cea::trading::TradeObservation& obs) override;
  void feedback(std::size_t t, double emission,
                const cea::trading::TradeObservation& obs,
                const cea::trading::TradeDecision& executed) override;
  std::string name() const override { return inner_->name(); }
  double dual_value() const override { return inner_->dual_value(); }
  bool save_state(cea::util::StateWriter& writer) const override {
    return inner_->save_state(writer);
  }
  bool load_state(cea::util::StateReader& reader) override {
    return inner_->load_state(reader);
  }

 private:
  std::unique_ptr<cea::trading::TradingPolicy> inner_;
};

/// The combo with every factory wrapped in the decorators above. Each
/// TimedFleetPolicy it creates is appended to `fleets` (when non-null) so
/// the caller can read its presolve window; the pointers stay valid while
/// the engine that owns the policy lives.
cea::sim::AlgorithmCombo instrumented(
    const cea::sim::AlgorithmCombo& combo,
    std::vector<TimedFleetPolicy*>* fleets = nullptr);

}  // namespace perfbench
