// Helpers shared by the fleet_catchup and serve_observed workloads.

#include <cmath>
#include <string>

#include "trace.h"
#include "util/numio.h"
#include "workloads.h"

namespace perfbench {

std::string payload_digest(std::string_view payload) {
  Digest digest;
  digest.add_bytes(payload);
  return digest.hex();
}

void check_ledgers(RunResult& result, cea::serve::ServeController& controller) {
  for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
    cea::sim::SlotEngine& engine = controller.tenant_engine(i);
    const cea::sim::RunResult& run = engine.result();
    const double cap = controller.tenant_env(i).config().carbon_cap;
    bool finite = std::isfinite(engine.allowance_balance());
    double net = 0.0;
    for (std::size_t t = 0; t < run.emissions.size(); ++t) {
      net += run.buys[t] - run.sells[t] - run.emissions[t];
      for (const double v :
           {run.inference_cost[t], run.switching_cost[t], run.trading_cost[t],
            run.emissions[t], run.buys[t], run.sells[t], run.accuracy[t],
            run.workload[t]}) {
        finite = finite && std::isfinite(v);
      }
    }
    const double ledger = cap + net;
    const double scale =
        std::max({1.0, std::abs(engine.allowance_balance()), std::abs(ledger)});
    const std::string tenant = controller.tenant_name(i);
    result.check(finite, "non-finite series in tenant " + tenant);
    result.check(std::abs(engine.allowance_balance() - ledger) <= 1e-9 * scale,
                 "ledger identity broken in tenant " + tenant);
    result.check(run.arena_overflows == 0,
                 "arena overflow in tenant " + tenant);
  }
}

void traced_step(cea::serve::ServeController& controller,
                 const cea::serve::MarketRule& market,
                 const cea::serve::SlotInput& input, std::size_t slot) {
  const auto id = static_cast<std::int64_t>(slot);
  Tracer& trace = tracer();
  const Tracer::Scope step(trace, "serve.step", id);
  std::vector<cea::trading::TradeDecision> trades;
  trades.reserve(controller.num_tenants());
  for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
    const Tracer::Scope span(trace, "sim.begin_slot", id);
    trades.push_back(controller.tenant_engine(i).begin_slot(input.quote));
  }
  if (market.max_volume_per_slot > 0.0) {
    double buy_left = market.max_volume_per_slot;
    double sell_left = market.max_volume_per_slot;
    for (auto& trade : trades) {
      trade.buy = std::min(trade.buy, std::max(0.0, buy_left));
      trade.sell = std::min(trade.sell, std::max(0.0, sell_left));
      buy_left -= trade.buy;
      sell_left -= trade.sell;
    }
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
    const Tracer::Scope span(trace, "sim.finish_slot", id);
    cea::sim::SlotEngine& engine = controller.tenant_engine(i);
    engine.finish_slot(input.quote, trades[i], input.workload.data() + offset);
    offset += engine.num_edges();
  }
}

void add_slot_latency(RunResult& result, const std::vector<double>& latencies) {
  result.set("slot_p50_ms", median(latencies), "ms");
  result.set("slot_p99_ms", quantile(latencies, 0.99), "ms");
  const double supported = highest_supported_percentile(latencies.size());
  result.facts["slot_samples"] = std::to_string(latencies.size());
  result.facts["slot_highest_supported_percentile"] =
      cea::util::format_double(supported, 6);
  result.check(supported >= 99.0,
               "too few slots for a p99 with 10 samples beyond it: " +
                   std::to_string(latencies.size()));
}

void EpisodeStats::add(RunResult& result, const std::vector<double>& latencies,
                       double decisions, double samples, double seconds) {
  result.check(highest_supported_percentile(latencies.size()) >= 99.0,
               "episode too short for a p99 with 10 samples beyond it: " +
                   std::to_string(latencies.size()));
  latencies_.insert(latencies_.end(), latencies.begin(), latencies.end());
  episode_p99_.push_back(quantile(latencies, 0.99));
  decisions_per_s_.push_back(decisions / seconds);
  samples_per_s_.push_back(samples / seconds);
}

void EpisodeStats::report(RunResult& result) const {
  result.set("decisions_per_s", median(decisions_per_s_), "1/s");
  result.set("samples_per_s", median(samples_per_s_), "1/s");
  result.set("slot_p50_ms", median(latencies_), "ms");
  result.set("slot_p99_ms", quantile(latencies_, 0.99), "ms");
  result.facts["slot_samples"] = std::to_string(latencies_.size());
  result.facts["slot_highest_supported_percentile"] = cea::util::format_double(
      highest_supported_percentile(latencies_.size()), 6);
  result.facts["slot_episodes"] = std::to_string(episode_p99_.size());
  std::string p99s;
  for (const double p99 : episode_p99_) {
    if (!p99s.empty()) p99s += ' ';
    p99s += cea::util::format_double(p99, 4);
  }
  result.facts["slot_p99_ms_per_episode"] = p99s;
  result.check(!episode_p99_.empty(), "no valid episode");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> out = {
        {"serve.feed.poll_ms", "ms"},
        {"serve.feed.bytes", "bytes"},
        {"serve.step_ms", "ms"},
        {"serve.publish_ms", "ms"},
        {"serve.backlog_max", "count"},
        {"serve.accounted_share", "ratio"},
        {"sim.begin_slot_ms", "ms"},
        {"sim.finish_slot_ms", "ms"},
        {"sim.presolve_lanes", "count"},
        {"sim.pool_speedup", "x"},
        {"sim.fanout_busy_share", "ratio"},
        {"sim.presolve_hist_ms", "ms"},
        {"sim.edges_hist_ms", "ms"},
        {"sim.reduce_hist_ms", "ms"},
        {"bandit.select_ns", "ns"},
        {"bandit.feedback_ns", "ns"},
        {"bandit.calls", "count"},
        {"trading.decide_us", "us"},
        {"trading.feedback_us", "us"},
        {"opt.presolve_ms", "ms"},
        {"opt.batch_solve_hist_ms", "ms"},
        {"obs.journal.seal_ms", "ms"},
        {"obs.journal.bytes_per_slot", "bytes"},
        {"obs.journal.segments", "count"},
        {"obs.metrics.render_ms", "ms"},
        {"obs.metrics.write_ms", "ms"},
        {"obs.metrics.bytes", "bytes"},
        {"obs.publish_explained_share", "ratio"},
        {"util.checkpoint.write_ms", "ms"},
        {"util.checkpoint.bytes", "bytes"},
        {"util.files_per_slot", "count"},
        {"trace.overhead_pct", "%"},
    };
    for (const char* precision : {"fp32", "int8"}) {
      for (const char* kind : {"dense", "conv", "depthwise", "other"}) {
        out.push_back({std::string("nn.") + precision + "." + kind + "_ms", "ms"});
      }
      out.push_back({std::string("nn.") + precision + ".gflops", "GFLOP/s"});
    }
    for (const char* model :
         {"mnist-cnn-32x64", "mnist-cnn-16x32", "mnist-lenet5",
          "mnist-lenet5-half", "mnist-mlp-256", "mnist-mlp-64",
          "cifar-cnn-64x128", "cifar-cnn-32x64", "cifar-lenet5",
          "cifar-lenet5-half", "cifar-mobilenet", "cifar-mobilenet-half"}) {
      for (const char* precision : {"fp32", "int8"}) {
        out.push_back({std::string("nn.") + model + "." + precision +
                           ".samples_per_s",
                       "1/s"});
      }
    }
    out.push_back({"nn.int8_agreement", "ratio"});
    return out;
  }();
  return names;
}

void zero_fill_per_layer(RunResult& result) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (result.metrics.count(name) == 0) result.set(name, 0.0, unit);
  }
}

bool parse_prometheus(std::string_view text, std::size_t& samples,
                      std::string& error) {
  samples = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.front() == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) {
      error = std::string(line);
      return false;
    }
    const std::string_view name = line.substr(0, space);
    const std::string_view value = line.substr(space + 1);
    const bool special = value == "NaN" || value == "+Inf" || value == "-Inf";
    double parsed = 0.0;
    const bool labels_ok =
        name.find('{') == std::string_view::npos || name.back() == '}';
    if (!labels_ok || (!special && !cea::util::parse_double(value, parsed))) {
      error = std::string(line);
      return false;
    }
    ++samples;
  }
  return samples > 0;
}

}  // namespace perfbench
