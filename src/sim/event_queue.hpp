#pragma once
// Deterministic pending-event set for discrete-event simulation.
//
// Ordering is total: (time, sequence). Two events scheduled for the same
// simulated instant fire in scheduling order, so simulation results never
// depend on heap-internal tie-breaking.
//
// Layout: the binary heap holds plain 24-byte entries (time, id, slot); the
// callbacks live in a slot array whose slots are reused through a free list,
// so a steady-state schedule/pop allocates nothing and a heap sift moves no
// callback. Cancellation (rare: one per killed job) finds its entry by a
// linear scan of the heap and removes it in place, so the heap holds only
// live events and size() is the heap's size.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hpp"

namespace psched::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute simulated time `t`. Returns a handle usable
  /// with cancel(). Requires t to be finite.
  EventId schedule(SimTime t, Callback cb);

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or unknown id is a harmless no-op (common when a completion races a
  /// timeout). Linear in the number of pending events.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// True if the event id is scheduled and not yet fired or cancelled.
  /// Linear in the number of pending events.
  [[nodiscard]] bool is_pending(EventId id) const noexcept;

  /// Time of the earliest pending event; kTimeNever when empty.
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.empty() ? kTimeNever : heap_.front().time;
  }

  /// Pop and return the earliest pending event. Requires !empty().
  struct Fired {
    SimTime time;
    EventId id;
    Callback callback;
  };
  Fired pop();

  // --- lifetime accounting (validation) ------------------------------------
  // Every scheduled event is eventually popped, cancelled, or still pending;
  // the InvariantChecker asserts this conservation law at end of run.
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return total_scheduled_; }
  [[nodiscard]] std::uint64_t total_cancelled() const noexcept { return total_cancelled_; }

 private:
  struct Entry {
    SimTime time;
    EventId id;          // also the monotone sequence number
    std::uint32_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  /// Move the callback out of `slot` and return the slot to the free list.
  Callback take(std::uint32_t slot);

  std::vector<Entry> heap_;          // std heap under Later: front() is earliest
  std::vector<Callback> slots_;      // callbacks of pending events, by slot
  std::vector<std::uint32_t> free_;  // slots_ indices not holding a callback
  EventId next_id_ = 1;
  std::uint64_t total_scheduled_ = 0;
  std::uint64_t total_cancelled_ = 0;  // live cancels only (no-op cancels excluded)
};

}  // namespace psched::sim
