// Tests of the benchmark's own machinery: the percentile rule, the
// open-loop latency accounting, and the transparency of the traced run's
// decorators. Build and run: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common.h"
#include "decorators.h"
#include "inputs.h"
#include "paced_feed.h"
#include "serve/controller.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(500, 50), 90.0);
}

TEST(Percentile, NearestRankQuantile) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(quantile(values, 0.5), 500.0);
  EXPECT_EQ(quantile(values, 0.99), 990.0);
  EXPECT_EQ(quantile(values, 1.0), 1000.0);
  EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

/// Feed whose poll costs a fixed time on a fake clock.
class FakeFeed final : public cea::serve::FeedSource {
 public:
  FakeFeed(std::int64_t& now, std::int64_t cost) : now_(now), cost_(cost) {}
  cea::serve::FeedStatus poll(std::size_t, cea::serve::SlotInput& out) override {
    now_ += cost_;
    out.workload.assign(1, 1);
    return cea::serve::FeedStatus::kReady;
  }
  std::size_t num_edges() const noexcept override { return 1; }
  std::string name() const override { return "fake"; }

 private:
  std::int64_t& now_;
  std::int64_t cost_;
};

/// Fake-clock durations back in integer ticks (the feed reports ms).
std::vector<long long> ticks(const std::vector<double>& ms) {
  std::vector<long long> out;
  for (const double v : ms) out.push_back(std::llround(v * 1e6));
  return out;
}

struct FakeClock {
  std::int64_t now = 0;
  std::int64_t oversleep = 0;
  Clock clock() {
    Clock c;
    c.now = [this] { return now; };
    c.sleep_until = [this](std::int64_t deadline) {
      if (deadline > now) now = deadline + oversleep;
    };
    return c;
  }
};

TEST(PacedFeed, OpenLoopLatencyCountsFromDueTime) {
  FakeClock fake;
  fake.oversleep = 1;
  FakeFeed inner(fake.now, 2);
  PacedFeed feed(inner, 10, 5, fake.clock());
  feed.arm(100);
  // Work per slot after the poll; slot 1 stalls for 33 time units, so
  // slots 2 and 3 are already due when the daemon asks for them.
  const std::int64_t work[] = {3, 33, 3, 3, 3};
  cea::serve::SlotInput input;
  for (std::size_t t = 0; t < 5; ++t) {
    ASSERT_EQ(feed.poll(t, input), cea::serve::FeedStatus::kReady);
    fake.now += work[t];
  }
  feed.finish();
  // Slot 0: due 100, pacer wakes 101, poll 2, work 3 -> done 106.
  // Slot 1: due 110, wakes 111, done 111 + 2 + 33 = 146.
  // Slot 2: due 120, started late at 146 (backlog: slots 2..4 due by 146),
  //         done 146 + 2 + 3 = 151.
  // Slot 3: due 130, done 156. Slot 4: due 140, done 161.
  EXPECT_EQ(ticks(feed.latencies_ms()),
            (std::vector<long long>{6, 36, 31, 26, 21}));
  EXPECT_EQ(ticks(feed.poll_ms()), (std::vector<long long>(5, 2)));
  EXPECT_EQ(ticks(feed.service_ms()),
            (std::vector<long long>{5, 35, 5, 5, 5}));
  EXPECT_EQ(ticks(feed.lateness_ms()), (std::vector<long long>{1, 1}));
  EXPECT_EQ(feed.backlog_max(), 3u);
  EXPECT_EQ(feed.completed(), 5u);
}

TEST(PacedFeed, ClosedLoopCountsFromThePoll) {
  FakeClock fake;
  FakeFeed inner(fake.now, 1);
  PacedFeed feed(inner, 0, 3, fake.clock());
  feed.arm(0);
  cea::serve::SlotInput input;
  for (std::size_t t = 0; t < 3; ++t) {
    feed.poll(t, input);
    fake.now += 4;
  }
  feed.finish();
  EXPECT_EQ(ticks(feed.latencies_ms()), (std::vector<long long>(3, 5)));
  EXPECT_TRUE(feed.lateness_ms().empty());
  EXPECT_EQ(feed.poll(3, input), cea::serve::FeedStatus::kEnd);
}

/// Runs a small controller of the serve_observed shape and returns the
/// digest of its final checkpoint payload.
std::string small_run_digest(bool instrument, cea::util::ThreadPool* pool) {
  constexpr std::size_t kEdges = 6, kSlots = 40;
  cea::sim::SimOptions options;
  options.pool = pool;
  cea::serve::ServeController controller(
      serve_tenants(5, kEdges, kSlots, instrument), options,
      cea::serve::MarketRule{8.0});
  const auto inputs = make_serve_inputs(5, 4 * kEdges, kSlots, 400.0);
  for (const auto& input : inputs) controller.step(input.quote, input.workload);
  return payload_digest(controller.checkpoint_payload());
}

TEST(Decorators, WrappedAndUnwrappedGiveTheSameDigest) {
  const std::string plain = small_run_digest(false, nullptr);
  probe().set_timing(true);
  tracer().set_enabled(true);
  const std::string wrapped = small_run_digest(true, nullptr);
  const std::string wrapped_pooled =
      small_run_digest(true, &cea::util::ThreadPool::global());
  tracer().set_enabled(false);
  probe().set_timing(false);
  EXPECT_EQ(plain, wrapped);
  EXPECT_EQ(plain, wrapped_pooled);
  // The decorators did see the calls they forwarded.
  const BanditTotals totals = probe().bandit_totals();
  EXPECT_EQ(totals.select_calls, 2u * 4u * 6u * 40u);
  EXPECT_EQ(totals.feedback_calls, totals.select_calls);
  EXPECT_EQ(tracer().durations("trading.decide").size(), 2u * 4u * 40u);
  tracer().clear();
  probe().reset_bandit();
}

TEST(Decorators, TracedStepMatchesServeControllerStep) {
  constexpr std::size_t kEdges = 5, kSlots = 30;
  const cea::serve::MarketRule market{6.0};
  const auto inputs = make_serve_inputs(9, 4 * kEdges, kSlots, 400.0);
  cea::sim::SimOptions options;
  cea::serve::ServeController stepped(serve_tenants(9, kEdges, kSlots, false),
                                      options, market);
  cea::serve::ServeController driven(serve_tenants(9, kEdges, kSlots, true),
                                     options, market);
  for (std::size_t t = 0; t < kSlots; ++t) {
    stepped.step(inputs[t].quote, inputs[t].workload);
    traced_step(driven, market, inputs[t], t);
  }
  EXPECT_EQ(stepped.checkpoint_payload(), driven.checkpoint_payload());
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer trace;
  trace.set_enabled(true);
  const int root = trace.record("serve.slot", 0, 100, 1, -1);
  trace.record("serve.step", 10, 70, 1, root);
  trace.record("serve.publish", 70, 95, 1, root);
  const std::string summary = trace.self_time_summary_json();
  EXPECT_NE(summary.find("\"serve\": {\"count\": 3, \"total_ms\": 0.000185, "
                         "\"self_ms\": 0.000100}"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("\"serve.slot\": {\"count\": 1, \"total_ms\": "
                         "0.000100, \"self_ms\": 0.000015}"),
            std::string::npos)
      << summary;
}

TEST(Prometheus, ParsesSamplesAndRejectsGarbage) {
  std::size_t samples = 0;
  std::string error;
  EXPECT_TRUE(parse_prometheus(
      "# TYPE cea_x gauge\ncea_x 1.5\ncea_y{tenant=\"a\"} NaN\n", samples,
      error));
  EXPECT_EQ(samples, 2u);
  EXPECT_FALSE(parse_prometheus("cea_x one\n", samples, error));
  EXPECT_EQ(error, "cea_x one");
  EXPECT_FALSE(parse_prometheus("# only comments\n", samples, error));
}

TEST(Inputs, SameSeedSameInputs) {
  const auto a = make_serve_inputs(3, 7, 12, 400.0);
  const auto b = make_serve_inputs(3, 7, 12, 400.0);
  const auto c = make_serve_inputs(4, 7, 12, 400.0);
  ASSERT_EQ(a.size(), 12u);
  bool same = true, differs = false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    same = same && a[t].workload == b[t].workload &&
           a[t].quote.buy_price == b[t].quote.buy_price;
    differs = differs || a[t].workload != c[t].workload;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace perfbench
