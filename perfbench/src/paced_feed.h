#pragma once

// The benchmark's FeedSource wrapper: the pacer of the open loop and the
// per-slot stopwatch of both loops.
//
// Open loop (period > 0): slot t is due at start + t * period. poll(t)
// blocks until t is due, so the daemon never sees a slot early, and the
// slot's latency counts from its due time — a stall shows as latency on
// every slot queued behind it. Closed loop (period == 0): every slot of
// the recorded backlog is ready, and slot t counts from the moment the
// daemon asks for it.
//
// Slot t completes when the daemon next calls poll (for t + 1), or when
// the caller calls finish() after run() returned for the last slot; both
// come after the daemon's journal, metrics and checkpoint work of t.

#include <cstdint>
#include <vector>

#include "common.h"
#include "serve/feed.h"

namespace perfbench {

struct SlotTiming {
  std::int64_t ready_ns = -1;    ///< due (open) or first poll (closed)
  std::int64_t entry_ns = -1;    ///< first poll(t) call
  std::int64_t release_ns = -1;  ///< pacer let the poll through
  std::int64_t polled_ns = -1;   ///< inner poll returned kReady
  std::int64_t done_ns = -1;     ///< next poll entry or finish()
  std::int64_t poll_ns = 0;      ///< time inside the inner poll(s)
  std::int64_t late_ns = 0;      ///< pacer wake-up minus due (slept polls)
  bool slept = false;
};

class PacedFeed final : public cea::serve::FeedSource {
 public:
  /// `period_ns` == 0 gives the closed loop. `slots` bounds the record.
  PacedFeed(cea::serve::FeedSource& inner, std::int64_t period_ns,
            std::size_t slots, Clock clock = Clock::real());

  /// Start the schedule: slot 0 is due at `start_ns` and previous
  /// records are cleared.
  void arm(std::int64_t start_ns);
  /// Close the last polled slot (call after ServeDaemon::run returns).
  void finish();

  cea::serve::FeedStatus poll(std::size_t t,
                              cea::serve::SlotInput& out) override;
  std::size_t num_edges() const noexcept override {
    return inner_.num_edges();
  }
  std::string name() const override { return "paced-" + inner_.name(); }

  std::int64_t due_ns(std::size_t t) const noexcept {
    return start_ns_ + static_cast<std::int64_t>(t) * period_ns_;
  }
  const std::vector<SlotTiming>& timings() const noexcept { return slots_; }
  std::size_t completed() const noexcept;
  /// Most slots that were due but not yet started, seen at any poll.
  std::size_t backlog_max() const noexcept { return backlog_max_; }

  /// Latency of each completed slot (done - ready), ms.
  std::vector<double> latencies_ms() const;
  /// Time inside the inner poll per completed slot (pacer sleep
  /// excluded), ms.
  std::vector<double> poll_ms() const;
  /// Daemon work per completed slot (done - release), ms.
  std::vector<double> service_ms() const;
  /// Pacer lateness of each slot the pacer slept for, ms.
  std::vector<double> lateness_ms() const;

 private:
  cea::serve::FeedSource& inner_;
  std::int64_t period_ns_ = 0;
  Clock clock_;
  std::int64_t start_ns_ = 0;
  std::vector<SlotTiming> slots_;
  std::size_t open_slot_ = static_cast<std::size_t>(-1);
  std::size_t backlog_max_ = 0;
};

}  // namespace perfbench
