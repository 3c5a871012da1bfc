#include "paced_feed.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

PacedFeed::PacedFeed(cea::serve::FeedSource& inner, std::int64_t period_ns,
                     std::size_t slots, Clock clock)
    : inner_(inner),
      period_ns_(period_ns),
      clock_(std::move(clock)),
      slots_(slots) {
  if (period_ns < 0) throw std::invalid_argument("PacedFeed: negative period");
}

void PacedFeed::arm(std::int64_t start_ns) {
  start_ns_ = start_ns;
  std::fill(slots_.begin(), slots_.end(), SlotTiming{});
  open_slot_ = static_cast<std::size_t>(-1);
  backlog_max_ = 0;
}

void PacedFeed::finish() {
  if (open_slot_ < slots_.size() && slots_[open_slot_].done_ns < 0 &&
      slots_[open_slot_].polled_ns >= 0) {
    slots_[open_slot_].done_ns = clock_.now();
  }
}

cea::serve::FeedStatus PacedFeed::poll(std::size_t t,
                                       cea::serve::SlotInput& out) {
  if (t >= slots_.size()) return cea::serve::FeedStatus::kEnd;
  const std::int64_t entry = clock_.now();
  SlotTiming& slot = slots_[t];
  const bool first_poll = slot.entry_ns < 0;
  if (first_poll) {
    // The daemon asking for t means t - 1 is fully done.
    if (t > 0 && slots_[t - 1].polled_ns >= 0 && slots_[t - 1].done_ns < 0) {
      slots_[t - 1].done_ns = entry;
    }
    slot.entry_ns = entry;
    open_slot_ = t;
    if (period_ns_ > 0) {
      const std::int64_t due = due_ns(t);
      if (entry < due) {
        clock_.sleep_until(due);
        slot.slept = true;
        slot.release_ns = clock_.now();
        slot.late_ns = std::max<std::int64_t>(0, slot.release_ns - due);
      } else {
        slot.release_ns = entry;
        // Slots due by now and not yet started: t itself plus every later
        // slot whose due time has passed.
        const auto due_by_now = static_cast<std::size_t>(
            (entry - start_ns_) / period_ns_);
        const std::size_t last = std::min(due_by_now, slots_.size() - 1);
        backlog_max_ = std::max(backlog_max_, last - t + 1);
      }
      slot.ready_ns = due;
    } else {
      slot.release_ns = entry;
      slot.ready_ns = entry;
    }
  }
  const std::int64_t before = clock_.now();
  const cea::serve::FeedStatus status = inner_.poll(t, out);
  const std::int64_t after = clock_.now();
  // A pending slot is re-polled; its poll time accumulates.
  slot.poll_ns += after - before;
  if (status == cea::serve::FeedStatus::kReady) slot.polled_ns = after;
  return status;
}

std::size_t PacedFeed::completed() const noexcept {
  std::size_t count = 0;
  for (const SlotTiming& slot : slots_) count += slot.done_ns >= 0 ? 1 : 0;
  return count;
}

std::vector<double> PacedFeed::latencies_ms() const {
  std::vector<double> out;
  for (const SlotTiming& slot : slots_) {
    if (slot.done_ns >= 0) {
      out.push_back(ns_to_ms(static_cast<double>(slot.done_ns - slot.ready_ns)));
    }
  }
  return out;
}

std::vector<double> PacedFeed::poll_ms() const {
  std::vector<double> out;
  for (const SlotTiming& slot : slots_) {
    if (slot.done_ns >= 0) {
      out.push_back(ns_to_ms(static_cast<double>(slot.poll_ns)));
    }
  }
  return out;
}

std::vector<double> PacedFeed::service_ms() const {
  std::vector<double> out;
  for (const SlotTiming& slot : slots_) {
    if (slot.done_ns >= 0) {
      out.push_back(
          ns_to_ms(static_cast<double>(slot.done_ns - slot.release_ns)));
    }
  }
  return out;
}

std::vector<double> PacedFeed::lateness_ms() const {
  std::vector<double> out;
  for (const SlotTiming& slot : slots_) {
    if (slot.slept) out.push_back(ns_to_ms(static_cast<double>(slot.late_ns)));
  }
  return out;
}

}  // namespace perfbench
