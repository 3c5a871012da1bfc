// serve_observed: 4 tenants x 250 edges behind one shared market liquidity
// cap — two "Ours" tenants on the SoA fleet policy, one "Ours" tenant on
// the per-edge adapter path, one baseline pairing — fed from
// DirectoryTailFeed slot files published in set-up, with every sink on:
// journal sealed every slot, metrics file every slot, SLO watchdog,
// checkpoint every 16 slots. Open loop at a fixed rate of about half the
// capacity the parent commit measured for this shape; latency counts from
// each slot's due time. After each episode a freshly built controller
// restores from the final checkpoint (restore_s).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

#include "decorators.h"
#include "inputs.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/prom.h"
#include "obs/telemetry.h"
#include "serve/daemon.h"
#include "sim/experiment.h"
#include "trace.h"
#include "util/state_io.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kTenants = 4;
constexpr std::size_t kEdgesPerTenant = 250;
constexpr std::size_t kSlots = 1000;
constexpr std::size_t kCheckpointEvery = 16;
constexpr double kMeanSamples = 400.0;
constexpr double kMarketCap = 250.0;
/// Offered rate: one slot every 2 ms (500 slots/s). The parent commit
/// drains this shape with every sink on at ~1,000 slots/s (1.0 ms of daemon
/// work per slot on average over an episode, I/O directory on tmpfs, three
/// threads of a 4-core AVX-512 host), so the rate is about half its
/// capacity. The checkpoint grows with the slots it records, so the last
/// slots of an episode run nearer 75% utilisation. Fixed once; never
/// adapted to the code under test.
constexpr std::int64_t kPeriodNs = 2'000'000;
/// An episode whose pacer woke more than half a period late at p99 did
/// not offer the stated rate; its samples are discarded.
constexpr double kPacerLateLimit = 0.5;

cea::sim::AlgorithmCombo find_combo(const std::string& name) {
  for (auto& combo : cea::sim::all_combos()) {
    if (combo.name == name) return combo;
  }
  throw std::runtime_error("unknown combo " + name);
}

}  // namespace

std::vector<cea::serve::TenantSpec> serve_tenants(std::uint64_t seed,
                                                  std::size_t edges,
                                                  std::size_t slots,
                                                  bool instrument) {
  const cea::sim::AlgorithmCombo ours = cea::sim::ours_combo();
  const cea::sim::AlgorithmCombo baseline = find_combo("UCB-LY");
  std::vector<cea::serve::TenantSpec> specs;
  for (std::size_t i = 0; i < kTenants; ++i) {
    cea::serve::TenantSpec spec;
    spec.name = "tenant" + std::to_string(i);
    spec.scenario.num_edges = edges;
    spec.scenario.horizon = slots;
    spec.scenario.workload.num_slots = slots;
    spec.scenario.workload.mean_samples = kMeanSamples;
    spec.scenario.carbon_cap = 50.0 * static_cast<double>(edges);
    spec.scenario.max_trade_per_slot = 2.5 * static_cast<double>(edges);
    spec.scenario.loss_draw_cap = 64;
    spec.scenario.seed = derive_seed(seed, 20 + i);
    const cea::sim::AlgorithmCombo& combo = i == 3 ? baseline : ours;
    spec.combo = instrument ? instrumented(combo) : combo;
    spec.prefer_fleet_policy = i != 2;  // tenant2: per-edge adapter path
    spec.run_seed = derive_seed(seed, 30 + i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

namespace {

struct Episode {
  std::vector<double> latencies, poll_ms, service_ms, lateness_ms;
  std::vector<SlotTiming> timings;
  std::size_t backlog_max = 0;
  double run_seconds = 0.0;
  double decisions = 0.0, samples = 0.0;
  std::string digest;
  cea::serve::DaemonReport report;
  bool pacer_valid = true;
};

struct Paths {
  std::string feed, journal, metrics, checkpoint;
};

/// The journal's slot records must equal each engine's recorded series.
bool journal_matches(const std::vector<cea::obs::JournalRecord>& records,
                     cea::serve::ServeController& controller,
                     std::size_t& slot_records) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
    index[controller.tenant_name(i)] = i;
  }
  slot_records = 0;
  bool equal = true;
  for (const auto& record : records) {
    if (record.kind != cea::obs::JournalRecord::Kind::kSlot) continue;
    ++slot_records;
    const auto found = index.find(record.tenant);
    if (found == index.end()) return false;
    const cea::sim::RunResult& run =
        controller.tenant_engine(found->second).result();
    const std::size_t t = record.slot;
    if (t >= run.emissions.size()) return false;
    equal = equal && record.emission == run.emissions[t] &&
            record.buy == run.buys[t] && record.sell == run.sells[t] &&
            record.inference_cost == run.inference_cost[t] &&
            record.switching_cost == run.switching_cost[t] &&
            record.trading_cost == run.trading_cost[t] &&
            record.accuracy == run.accuracy[t] &&
            record.workload == run.workload[t];
  }
  return equal;
}

std::size_t directory_bytes(const std::string& directory) {
  std::size_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

class ServeRun {
 public:
  ServeRun(const RunOptions& options, RunResult& result)
      : options_(options), result_(result) {
    paths_.feed = options.out_dir + "/feed";
    paths_.journal = options.out_dir + "/journal";
    paths_.metrics = options.out_dir + "/metrics.prom";
    paths_.checkpoint = options.out_dir + "/serve.ckpt";
    reset_dir(paths_.feed);
    const auto inputs = make_serve_inputs(
        options.seed, kTenants * kEdgesPerTenant, kSlots, kMeanSamples);
    feed_bytes_ = static_cast<double>(publish_slot_files(paths_.feed, inputs)) /
                  static_cast<double>(kSlots);
    tail_ = std::make_unique<cea::serve::DirectoryTailFeed>(
        paths_.feed, kTenants * kEdgesPerTenant);
  }

  std::unique_ptr<cea::serve::ServeController> build(bool instrument) {
    cea::sim::SimOptions sim_options;
    sim_options.pool = &cea::util::ThreadPool::global();
    const std::int64_t start = now_ns();
    auto controller = std::make_unique<cea::serve::ServeController>(
        serve_tenants(options_.seed, kEdgesPerTenant, kSlots, instrument),
        sim_options, cea::serve::MarketRule{kMarketCap});
    setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    return controller;
  }

  cea::serve::DaemonConfig daemon_config() const {
    cea::serve::DaemonConfig config;
    config.checkpoint_path = paths_.checkpoint;
    config.checkpoint_every = kCheckpointEvery;
    config.max_slots = kSlots;
    config.journal_dir = paths_.journal;
    config.journal_every = 1;
    config.metrics_path = paths_.metrics;
    config.metrics_every = 1;
    config.slo.window = 16;
    config.slo.slot_deadline_ms = 1000;
    return config;
  }

  /// One open-loop episode over a freshly built controller, followed by
  /// the correctness gates and the timed restore.
  Episode episode(cea::serve::ServeController& controller) {
    reset_dir(paths_.journal);
    std::filesystem::remove(paths_.checkpoint);
    Episode out;
    PacedFeed feed(*tail_, kPeriodNs, kSlots);
    {
      cea::serve::ServeDaemon daemon(controller, feed, daemon_config());
      // First slot due 1 ms from now: the daemon is already waiting.
      feed.arm(now_ns() + 1'000'000);
      const std::int64_t start = now_ns();
      out.report = daemon.run();
      feed.finish();
      out.run_seconds = static_cast<double>(now_ns() - start) * 1e-9;
    }
    out.latencies = feed.latencies_ms();
    out.poll_ms = feed.poll_ms();
    out.service_ms = feed.service_ms();
    out.lateness_ms = feed.lateness_ms();
    out.timings = feed.timings();
    out.backlog_max = feed.backlog_max();
    out.decisions = static_cast<double>(kTenants * kEdgesPerTenant *
                                        out.report.slots_processed);
    for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
      for (const double w : controller.tenant_engine(i).result().workload) {
        out.samples += w;
      }
    }
    const double late_p99 = quantile(out.lateness_ms, 0.99);
    out.pacer_valid = late_p99 <= kPacerLateLimit * ns_to_ms(kPeriodNs);
    pacer_late_p99.push_back(late_p99);
    pacer_late_max = std::max(
        pacer_late_max,
        out.lateness_ms.empty() ? 0.0
                                : *std::max_element(out.lateness_ms.begin(),
                                                    out.lateness_ms.end()));

    result_.check(out.report.final_slot == kSlots && feed.completed() == kSlots,
                  "daemon stopped at slot " +
                      std::to_string(out.report.final_slot));
    check_ledgers(result_, controller);

    const cea::obs::JournalStats stats = cea::obs::verify_journal(paths_.journal);
    result_.check(stats.ok, "journal verification failed: " + stats.error);
    std::size_t slot_records = 0;
    const bool equal = stats.ok && journal_matches(
                                       cea::obs::read_journal(paths_.journal),
                                       controller, slot_records);
    result_.check(slot_records == kTenants * kSlots,
                  "journal holds " + std::to_string(slot_records) +
                      " slot records, expected tenants x slots");
    result_.check(equal, "journal records differ from the engine series");

    std::size_t samples = 0;
    std::string error;
    const bool parsed = parse_prometheus(
        cea::util::read_file_bytes(paths_.metrics), samples, error);
    result_.check(parsed, "metrics file does not parse: " + error);

    const std::string payload = controller.checkpoint_payload();
    out.digest = payload_digest(payload);
    result_.check(cea::util::read_checkpoint_file(paths_.checkpoint) == payload,
                  "final checkpoint differs from the controller state");
    return out;
  }

  /// restore_s: a freshly built controller restores from the final
  /// checkpoint and must re-serialize to the same payload.
  double restore(const std::string& expected_digest) {
    auto fresh = build(false);
    cea::serve::DaemonConfig config;
    config.checkpoint_path = paths_.checkpoint;
    cea::serve::ServeDaemon daemon(*fresh, *tail_, config);
    const std::int64_t start = now_ns();
    daemon.restore_from(paths_.checkpoint);
    const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
    result_.check(payload_digest(fresh->checkpoint_payload()) == expected_digest,
                  "restored controller payload differs from the checkpoint");
    return seconds;
  }

  const Paths& paths() const { return paths_; }
  double feed_bytes() const { return feed_bytes_; }

  std::vector<double> setups, pacer_late_p99;
  double pacer_late_max = 0.0;

 private:
  const RunOptions& options_;
  RunResult& result_;
  Paths paths_;
  double feed_bytes_ = 0.0;
  std::unique_ptr<cea::serve::DirectoryTailFeed> tail_;
};

}  // namespace

RunResult run_serve_observed(const RunOptions& options) {
  RunResult result;
  add_run_facts(result, options);
  result.facts["workload"] = "serve_observed";
  result.facts["shape"] =
      "4 tenants x 250 edges x 1000 slots, open loop, 500 slots/s";
  result.facts["offered_rate_per_s"] = std::to_string(1e9 / kPeriodNs);
  ServeRun run(options, result);

  // Index 0: episodes the host left alone; 1: contended ones (StealMeter),
  // used only when a run has no quiet episode at all.
  EpisodeStats stats[2];
  std::vector<double> restores[2];
  std::vector<double> busy;
  std::vector<double> due_p50, due_p99;
  std::size_t episodes = 0, invalid = 0, backlog_max = 0;
  std::string digest;
  Budget budget(options.seconds * (options.trace ? 0.3 : 1.0));
  do {
    const StealMeter steal;
    const std::int64_t window_start = now_ns();
    auto controller = run.build(false);
    Episode episode = run.episode(*controller);
    ++episodes;
    if (digest.empty()) digest = episode.digest;
    result.check(episode.digest == digest,
                 "episode digest differs from the first episode");
    controller.reset();
    std::vector<double> episode_restores;
    for (int rep = 0; rep < 3; ++rep) {
      episode_restores.push_back(run.restore(digest));
    }
    const bool contended = steal.contended();
    budget.add(now_ns() - window_start, contended || !episode.pacer_valid);
    if (!episode.pacer_valid) {
      ++invalid;
      continue;
    }
    // Gated latency: the daemon's own time per slot, from the pacer
    // releasing it to the next poll. On a shared host the hypervisor takes
    // tens of ms of CPU from a busy guest several times a second, and each
    // such stall queues the slots due behind it; latency from the due time
    // then measures the host, so it is reported as a fact only.
    stats[contended].add(result, episode.service_ms, episode.decisions,
                         episode.samples, episode.run_seconds);
    restores[contended].insert(restores[contended].end(),
                               episode_restores.begin(), episode_restores.end());
    due_p50.push_back(median(episode.latencies));
    due_p99.push_back(quantile(episode.latencies, 0.99));
    busy.insert(busy.end(), episode.service_ms.begin(),
                episode.service_ms.end());
    backlog_max = std::max(backlog_max, episode.backlog_max);
  } while (budget.more());
  const int use = stats[0].empty() ? 1 : 0;

  result.facts["episodes"] = std::to_string(episodes);
  result.facts["host_contended_episodes"] =
      std::to_string(budget.contended_windows() - invalid);
  result.facts["pacer_invalid_episodes"] = std::to_string(invalid);
  result.facts["pacer_late_p99_ms"] =
      std::to_string(run.pacer_late_p99.empty()
                         ? 0.0
                         : *std::max_element(run.pacer_late_p99.begin(),
                                             run.pacer_late_p99.end()));
  result.facts["pacer_late_max_ms"] = std::to_string(run.pacer_late_max);
  result.facts["backlog_max"] = std::to_string(backlog_max);
  result.facts["from_due_p50_ms"] = std::to_string(median(due_p50));
  result.facts["from_due_p99_ms"] = std::to_string(median(due_p99));
  // Utilisation at the offered rate: mean daemon work per slot over the
  // period. Near or above 1 the backlog grows and latency is queueing.
  result.facts["service_mean_ms"] = std::to_string(mean(busy));
  result.facts["utilisation"] =
      std::to_string(mean(busy) / ns_to_ms(kPeriodNs));
  result.facts["digest"] = digest;
  result.facts["setup_samples"] = std::to_string(run.setups.size());
  result.check(invalid < episodes, "every episode's pacer fell behind");

  if (!options.trace) {
    stats[use].report(result);
    result.set("restore_s", median(restores[use]), "s");
    result.set("setup_s", median(run.setups), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced run: the same daemon loop with the decorators installed, the
  // benchmark's spans on, and the program's own phase histograms and
  // trace ring recording.
  const double untraced_p50 = stats[use].p50_ms();
  auto controller = run.build(true);
  Tracer& trace = tracer();
  trace.clear();
  trace.set_enabled(true);
  probe().reset_bandit();
  probe().set_timing(true);
  cea::obs::reset();
  cea::obs::set_detail(true);
  cea::obs::enable_tracing(std::size_t{1} << 17);
  Episode traced = run.episode(*controller);
  cea::obs::disable_tracing();
  const std::vector<cea::obs::TraceEvent> events = cea::obs::drain_trace();
  cea::obs::set_detail(false);
  probe().set_timing(false);
  trace.set_enabled(false);
  const cea::obs::Snapshot snap = cea::obs::snapshot();
  result.check(traced.digest == digest,
               "traced digest differs from the untraced digest");

  // serve.step: the program's own "serve.slot" span around
  // ServeController::step, one per slot, on the daemon's thread.
  std::vector<double> step_ms;
  std::vector<std::int64_t> step_end;
  for (const auto& event : events) {
    if (!event.is_counter && std::strcmp(event.name, "serve.slot") == 0) {
      step_ms.push_back(ns_to_ms(static_cast<double>(event.dur_ns)));
      step_end.push_back(event.start_ns + event.dur_ns);
    }
  }
  result.check(step_ms.size() == kSlots,
               "trace ring lost serve.slot events: " +
                   std::to_string(step_ms.size()));
  // Per slot: poll (feed wrapper), step (program span), publish (from the
  // end of step to the daemon's next poll: journal seal, metrics, SLO,
  // checkpoint), recorded as children of the slot's span.
  std::vector<double> publish;
  double accounted = 0.0, service = 0.0;
  trace.set_enabled(true);
  for (std::size_t t = 0; t < std::min(step_ms.size(), kSlots); ++t) {
    const SlotTiming& slot = traced.timings[t];
    const auto id = static_cast<std::int64_t>(t);
    const int root =
        trace.record("serve.slot", slot.release_ns, slot.done_ns, id, -1);
    trace.record("serve.feed.poll", slot.polled_ns - slot.poll_ns,
                 slot.polled_ns, id, root);
    trace.record("serve.step",
                 step_end[t] - static_cast<std::int64_t>(step_ms[t] * 1e6),
                 step_end[t], id, root);
    trace.record("serve.publish", step_end[t], slot.done_ns, id, root);
    publish.push_back(ns_to_ms(static_cast<double>(slot.done_ns - step_end[t])));
    accounted += ns_to_ms(static_cast<double>(slot.poll_ns)) + step_ms[t] +
                 publish.back();
    service += ns_to_ms(static_cast<double>(slot.done_ns - slot.release_ns));
  }
  trace.set_enabled(false);
  trace.attach_program_profile(cea::obs::profile_json(snap, {}));
  const double share = accounted / std::max(1e-12, service);
  result.check(share > 0.95 && share < 1.05,
               "poll + step + publish do not account for the slot time");

  auto hist_sum_ms = [&snap](const char* name) {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return ns_to_ms(h.sum);
    }
    return 0.0;
  };
  const double slots = static_cast<double>(kSlots);
  const double begin_total =
      hist_sum_ms("sim.presolve") + hist_sum_ms("sim.trader.decide");
  const double finish_total = hist_sum_ms("sim.edges") +
                              hist_sum_ms("sim.reduce") +
                              hist_sum_ms("sim.trader.feedback");
  const BanditTotals bandit = probe().bandit_totals();
  const double threads = static_cast<double>(options.pool_threads + 1);
  const auto records = cea::obs::read_journal(run.paths().journal);
  double lanes = 0.0;
  for (const auto& record : records) {
    if (record.kind == cea::obs::JournalRecord::Kind::kSlot) {
      lanes += static_cast<double>(record.solver_lanes);
    }
  }

  // Publication costs split by timed calls at the run's real sizes.
  std::vector<double> seal_ms, render_ms, write_ms, ckpt_ms;
  {
    const std::string bench_journal = options.out_dir + "/journal-timing";
    reset_dir(bench_journal);
    std::vector<cea::obs::JournalRecord> last_slot;
    for (const auto& record : records) {
      if (record.kind == cea::obs::JournalRecord::Kind::kSlot &&
          record.slot + 1 == kSlots) {
        last_slot.push_back(record);
      }
    }
    cea::obs::JournalWriter writer(bench_journal);
    std::vector<cea::obs::PromSample> extra;
    for (const auto& record : last_slot) {
      for (const char* name :
           {"tenant_allowance_balance", "tenant_emission_total",
            "tenant_cap_burn_rate", "tenant_allowance_solvency",
            "tenant_trader_dual", "tenant_switches_total"}) {
        extra.push_back({name, {{"tenant", record.tenant}}, record.balance,
                         "gauge"});
      }
    }
    for (int rep = 0; rep < 32; ++rep) {
      for (const auto& record : last_slot) writer.append(record);
      std::int64_t start = now_ns();
      writer.seal();
      seal_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - start)));
      start = now_ns();
      const std::string text =
          cea::obs::prometheus_text(cea::obs::snapshot(), extra);
      render_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - start)));
      start = now_ns();
      cea::util::write_file_atomic(options.out_dir + "/metrics-timing.prom",
                                   text);
      write_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - start)));
    }
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t start = now_ns();
      cea::util::write_checkpoint_file(options.out_dir + "/ckpt-timing",
                                       controller->checkpoint_payload());
      ckpt_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - start)));
    }
  }
  const double checkpoint_bytes = static_cast<double>(
      std::filesystem::file_size(run.paths().checkpoint));
  const double publish_explained =
      (median(seal_ms) + median(render_ms) + median(write_ms) +
       median(ckpt_ms) / static_cast<double>(kCheckpointEvery)) /
      std::max(1e-12, mean(publish));

  result.set("serve.feed.poll_ms", median(traced.poll_ms), "ms");
  result.set("serve.feed.bytes", run.feed_bytes(), "bytes");
  result.set("serve.step_ms", median(step_ms), "ms");
  result.set("serve.publish_ms", median(publish), "ms");
  result.set("serve.backlog_max", static_cast<double>(traced.backlog_max),
             "count");
  result.set("serve.accounted_share", share, "ratio");
  result.set("sim.begin_slot_ms", begin_total / slots, "ms");
  result.set("sim.finish_slot_ms", finish_total / slots, "ms");
  result.set("sim.presolve_lanes", lanes / slots, "count");
  result.set("sim.fanout_busy_share",
             ns_to_ms(bandit.busy_ns) /
                 std::max(1e-12, threads * hist_sum_ms("sim.edges")),
             "ratio");
  result.set("sim.presolve_hist_ms", hist_sum_ms("sim.presolve") / slots, "ms");
  result.set("sim.edges_hist_ms", hist_sum_ms("sim.edges") / slots, "ms");
  result.set("sim.reduce_hist_ms", hist_sum_ms("sim.reduce") / slots, "ms");
  result.set("bandit.select_ns", bandit.select_ns_per_call, "ns");
  result.set("bandit.feedback_ns", bandit.feedback_ns_per_call, "ns");
  result.set("bandit.calls",
             static_cast<double>(bandit.select_calls + bandit.feedback_calls),
             "count");
  result.set("trading.decide_us", median(trace.durations("trading.decide")) * 1e-3,
             "us");
  result.set("trading.feedback_us",
             median(trace.durations("trading.feedback")) * 1e-3, "us");
  result.set("opt.presolve_ms",
             hist_sum_ms("opt.tsallis.batch_solve") / slots, "ms");
  result.set("opt.batch_solve_hist_ms",
             hist_sum_ms("opt.tsallis.batch_solve") / slots, "ms");
  result.set("obs.journal.seal_ms", median(seal_ms), "ms");
  result.set("obs.journal.bytes_per_slot",
             static_cast<double>(directory_bytes(run.paths().journal)) / slots,
             "bytes");
  result.set("obs.journal.segments",
             static_cast<double>(traced.report.journal_segments), "count");
  result.set("obs.metrics.render_ms", median(render_ms), "ms");
  result.set("obs.metrics.write_ms", median(write_ms), "ms");
  result.set("obs.metrics.bytes",
             static_cast<double>(std::filesystem::file_size(run.paths().metrics)),
             "bytes");
  result.set("obs.publish_explained_share", publish_explained, "ratio");
  result.set("util.checkpoint.write_ms", median(ckpt_ms), "ms");
  result.set("util.checkpoint.bytes", checkpoint_bytes, "bytes");
  result.set("util.files_per_slot",
             static_cast<double>(traced.report.journal_segments + kSlots + 1 +
                                 traced.report.checkpoints_written) /
                 slots,
             "count");
  result.set("trace.overhead_pct",
             100.0 * (median(traced.latencies) / untraced_p50 - 1.0), "%");
  zero_fill_per_layer(result);
  return result;
}

}  // namespace perfbench
