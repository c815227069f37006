#pragma once
// The simulation driver: a clock plus an EventQueue. Components schedule
// callbacks; run() dispatches them in deterministic order until the queue
// drains or a horizon is reached.

#include <cmath>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace psched::sim {

/// Passive observer of the event loop (validation hook). The simulator
/// notifies it on every schedule and dispatch; a null observer costs one
/// predictable branch per operation, so observation is zero-cost when off.
/// Observers must not mutate the simulator they observe.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// An event was scheduled at absolute time `when` while the clock read `now`.
  virtual void on_schedule(SimTime when, SimTime now, EventId id) = 0;

  /// An event is about to fire: the clock moved from `previous` to `now`.
  virtual void on_dispatch(SimTime now, SimTime previous, EventId id) = 0;
};

class Simulator {
 public:
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept { return dispatched_; }

  /// Attach (or detach, with nullptr) a validation observer. Borrowed; must
  /// outlive the simulator or be detached first.
  void set_observer(SimObserver* observer) noexcept { observer_ = observer; }

  /// Schedule at an absolute time (must be >= now()).
  EventId at(SimTime t, EventQueue::Callback cb);

  /// Schedule after a relative delay (must be >= 0).
  EventId after(SimDuration delay, EventQueue::Callback cb);

  void cancel(EventId id) { queue_.cancel(id); }

  [[nodiscard]] bool has_pending() const noexcept { return !queue_.empty(); }
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  /// Event-lifetime accounting for the conservation invariant (validation).
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }

  /// Dispatch events until the queue is empty. Returns events dispatched.
  std::uint64_t run();

  /// Dispatch events with time <= horizon; the clock ends at max(now,
  /// horizon), or at the last event's time when the horizon is kTimeNever.
  /// Returns events dispatched.
  std::uint64_t run_until(SimTime horizon);

  /// Dispatch exactly one event if present. Returns true if one fired.
  bool step();

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t dispatched_ = 0;
  SimObserver* observer_ = nullptr;
};

/// The one scheduling grid (engine ticks, tenant epoch horizons, online-sim
/// settle instants): tick k is at fl(k × period), never at a running sum.
[[nodiscard]] inline SimTime tick_time(std::uint64_t k, SimDuration period) {
  return static_cast<double>(k) * period;
}

/// The smallest k with tick_time(k, period) >= t, for finite t >= 0; well
/// defined because fl(k × period) is monotone in k.
[[nodiscard]] inline std::uint64_t first_tick_at_or_after(SimTime t, SimDuration period) {
  auto k = static_cast<std::uint64_t>(std::ceil(t / period));  // may be one off
  while (k > 0 && tick_time(k - 1, period) >= t) --k;
  while (tick_time(k, period) < t) ++k;
  return k;
}

}  // namespace psched::sim
