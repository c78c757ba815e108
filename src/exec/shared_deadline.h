// Thread-safe amortized deadline polling — the parallel counterpart of
// rt::DeadlinePoller.
//
// rt::DeadlinePoller keeps a private call counter and a latched verdict,
// which is exactly right for one thread and exactly wrong for a parallel
// loop: the counter would race and the latch would be invisible across
// lanes. SharedDeadlinePoller shares both through relaxed atomics: every
// lane's Expired() ticks one shared counter, every `stride`-th tick reads
// the clock, and the first expiry latches for everyone — so a ParallelFor
// shard observing the deadline stops all lanes from issuing further work
// within one stride. Like its serial sibling, expiry is one-way until the
// poller is destroyed.

#ifndef IDXSEL_EXEC_SHARED_DEADLINE_H_
#define IDXSEL_EXEC_SHARED_DEADLINE_H_

#include <atomic>
#include <cstdint>

#include "common/deadline.h"

namespace idxsel::exec {

/// Amortized, latching view of one rt::Deadline, shared by every lane of a
/// parallel stage. The referenced deadline must outlive the poller.
class SharedDeadlinePoller {
 public:
  /// `stride` must be a power of two.
  explicit SharedDeadlinePoller(const rt::Deadline& deadline,
                                uint32_t stride = 64)
      : deadline_(&deadline), mask_(stride - 1) {}

  SharedDeadlinePoller(const SharedDeadlinePoller&) = delete;
  SharedDeadlinePoller& operator=(const SharedDeadlinePoller&) = delete;

  /// Counts one unit of work; every `stride` units (across all lanes
  /// combined) consults the deadline. Once expired, stays expired and
  /// stops consulting the clock.
  bool Expired() {
    if (expired_.load(std::memory_order_relaxed)) return true;
    const uint32_t tick = calls_.fetch_add(1, std::memory_order_relaxed);
    if ((tick & mask_) != 0) return false;
    if (deadline_->expired()) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Consults the deadline now, regardless of the stride — for poll sites
  /// far coarser than one unit of work (a resumed session's next round).
  bool ExpiredNow() {
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (deadline_->expired()) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The latched verdict without counting work; may lag the wall clock by
  /// up to one stride (same contract as rt::DeadlinePoller::expired()).
  bool expired() const { return expired_.load(std::memory_order_relaxed); }

  const rt::Deadline& deadline() const { return *deadline_; }

 private:
  const rt::Deadline* deadline_;
  uint32_t mask_;
  std::atomic<uint32_t> calls_{0};
  std::atomic<bool> expired_{false};
};

}  // namespace idxsel::exec

#endif  // IDXSEL_EXEC_SHARED_DEADLINE_H_
