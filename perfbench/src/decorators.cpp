#include "decorators.h"

#include <algorithm>

#include "common.h"
#include "trace.h"

namespace perfbench {

namespace cb = cea::bandit;
namespace ct = cea::trading;

BanditThreadStats& Probe::local() {
  thread_local std::size_t index = next_thread_.fetch_add(1);
  return slots_[std::min(index, kMaxThreads - 1)].stats;
}

BanditTotals Probe::bandit_totals() const {
  BanditTotals totals;
  std::uint64_t select_timed = 0, feedback_timed = 0;
  double select_ns = 0.0, feedback_ns = 0.0;
  for (const Slot& slot : slots_) {
    const BanditThreadStats& s = slot.stats;
    totals.select_calls += s.select_calls;
    totals.feedback_calls += s.feedback_calls;
    select_timed += s.select_timed;
    feedback_timed += s.feedback_timed;
    select_ns += static_cast<double>(s.select_ns);
    feedback_ns += static_cast<double>(s.feedback_ns);
  }
  if (select_timed > 0) totals.select_ns_per_call = select_ns / select_timed;
  if (feedback_timed > 0) {
    totals.feedback_ns_per_call = feedback_ns / feedback_timed;
  }
  totals.busy_ns =
      totals.select_ns_per_call * static_cast<double>(totals.select_calls) +
      totals.feedback_ns_per_call * static_cast<double>(totals.feedback_calls);
  return totals;
}

void Probe::reset_bandit() {
  for (Slot& slot : slots_) slot.stats = BanditThreadStats{};
}

Probe& probe() {
  static Probe instance;
  return instance;
}

namespace {

template <typename Call>
auto timed_select(Call&& call) {
  if (!probe().timing()) return call();
  BanditThreadStats& stats = probe().local();
  if (stats.select_calls++ % Probe::kSampleEvery != 0) return call();
  const std::int64_t start = now_ns();
  const auto model = call();
  stats.select_ns += now_ns() - start;
  ++stats.select_timed;
  return model;
}

template <typename Call>
void timed_feedback(Call&& call) {
  if (!probe().timing()) {
    call();
    return;
  }
  BanditThreadStats& stats = probe().local();
  if (stats.feedback_calls++ % Probe::kSampleEvery != 0) {
    call();
    return;
  }
  const std::int64_t start = now_ns();
  call();
  stats.feedback_ns += now_ns() - start;
  ++stats.feedback_timed;
}

/// Per-edge policy decorator (the PerEdgeFleetAdapter path).
class TimedEdgePolicy : public cb::ModelSelectionPolicy {
 public:
  explicit TimedEdgePolicy(std::unique_ptr<cb::ModelSelectionPolicy> inner)
      : inner_(std::move(inner)) {}

  std::size_t select(std::size_t t) override {
    return timed_select([&] { return inner_->select(t); });
  }
  void feedback(std::size_t t, std::size_t arm, double loss) override {
    timed_feedback([&] { inner_->feedback(t, arm, loss); });
  }
  std::string name() const override { return inner_->name(); }
  bool save_state(cea::util::StateWriter& writer) const override {
    return inner_->save_state(writer);
  }
  bool load_state(cea::util::StateReader& reader) override {
    return inner_->load_state(reader);
  }

 protected:
  std::unique_ptr<cb::ModelSelectionPolicy> inner_;
};

/// Same, for policies that also take part in the cross-edge presolve: the
/// adapter probes TsallisBatchSolvable by dynamic_cast, so the decorator
/// exposes that side only when the wrapped policy does.
class TimedBatchableEdgePolicy final : public TimedEdgePolicy,
                                       public cb::TsallisBatchSolvable {
 public:
  TimedBatchableEdgePolicy(std::unique_ptr<cb::ModelSelectionPolicy> inner,
                           cb::TsallisBatchSolvable& batchable)
      : TimedEdgePolicy(std::move(inner)), batchable_(batchable) {}

  bool next_solve(cb::TsallisSolveRequest& out) override {
    return batchable_.next_solve(out);
  }
  void accept_presolve(std::span<const double> probabilities,
                       double scaled_lambda_warm) override {
    batchable_.accept_presolve(probabilities, scaled_lambda_warm);
  }

 private:
  cb::TsallisBatchSolvable& batchable_;
};

}  // namespace

TimedFleetPolicy::TimedFleetPolicy(std::unique_ptr<cb::FleetPolicy> inner)
    : inner_(std::move(inner)),
      last_edge_(inner_->num_edges() == 0 ? 0 : inner_->num_edges() - 1) {}

std::size_t TimedFleetPolicy::num_edges() const noexcept {
  return inner_->num_edges();
}

std::size_t TimedFleetPolicy::select(std::size_t edge, std::size_t t) {
  return timed_select([&] { return inner_->select(edge, t); });
}

void TimedFleetPolicy::feedback(std::size_t edge, std::size_t t,
                                std::size_t arm, double loss) {
  timed_feedback([&] { inner_->feedback(edge, t, arm, loss); });
}

// The presolve sweeps next_solve over edges 0..E-1, solves the batch, then
// calls accept_presolve once per lane: four clock reads per slot mark the
// gather and scatter windows without timing each of the E calls.
bool TimedFleetPolicy::next_solve(std::size_t edge,
                                  cb::TsallisSolveRequest& out) {
  const bool timing = probe().timing();
  if (edge == 0) {
    window_ = PresolveWindow{};
    accepted_ = 0;
    if (timing) window_.gather_start = now_ns();
  }
  const bool solve = inner_->next_solve(edge, out);
  if (solve) ++window_.lanes;
  if (timing && edge == last_edge_) window_.gather_end = now_ns();
  return solve;
}

void TimedFleetPolicy::accept_presolve(std::size_t edge,
                                       std::span<const double> probabilities,
                                       double scaled_lambda_warm) {
  const bool timing = probe().timing();
  if (timing && accepted_ == 0) window_.scatter_start = now_ns();
  inner_->accept_presolve(edge, probabilities, scaled_lambda_warm);
  ++accepted_;
  if (timing && accepted_ == window_.lanes) window_.scatter_end = now_ns();
}

bool TimedFleetPolicy::supports_batch_solve() const noexcept {
  return inner_->supports_batch_solve();
}

std::string TimedFleetPolicy::name() const { return inner_->name(); }

bool TimedFleetPolicy::save_state(cea::util::StateWriter& writer) const {
  return inner_->save_state(writer);
}

bool TimedFleetPolicy::load_state(cea::util::StateReader& reader) {
  return inner_->load_state(reader);
}

ct::TradeDecision TimedTrader::decide(std::size_t t,
                                      const ct::TradeObservation& obs) {
  const Tracer::Scope span(tracer(), "trading.decide",
                           static_cast<std::int64_t>(t));
  return inner_->decide(t, obs);
}

void TimedTrader::feedback(std::size_t t, double emission,
                           const ct::TradeObservation& obs,
                           const ct::TradeDecision& executed) {
  const Tracer::Scope span(tracer(), "trading.feedback",
                           static_cast<std::int64_t>(t));
  inner_->feedback(t, emission, obs, executed);
}

cea::sim::AlgorithmCombo instrumented(const cea::sim::AlgorithmCombo& combo,
                                      std::vector<TimedFleetPolicy*>* fleets) {
  cea::sim::AlgorithmCombo out = combo;
  out.policy = [inner = combo.policy](const cb::PolicyContext& context)
      -> std::unique_ptr<cb::ModelSelectionPolicy> {
    auto policy = inner(context);
    if (auto* batchable = dynamic_cast<cb::TsallisBatchSolvable*>(policy.get())) {
      return std::make_unique<TimedBatchableEdgePolicy>(std::move(policy),
                                                        *batchable);
    }
    return std::make_unique<TimedEdgePolicy>(std::move(policy));
  };
  out.trader = [inner = combo.trader](const ct::TraderContext& context)
      -> std::unique_ptr<ct::TradingPolicy> {
    return std::make_unique<TimedTrader>(inner(context));
  };
  if (combo.fleet_policy) {
    out.fleet_policy = [inner = combo.fleet_policy,
                        fleets](const cb::FleetPolicyContext& context)
        -> std::unique_ptr<cb::FleetPolicy> {
      auto timed = std::make_unique<TimedFleetPolicy>(inner(context));
      if (fleets != nullptr) fleets->push_back(timed.get());
      return timed;
    };
  }
  return out;
}

}  // namespace perfbench
