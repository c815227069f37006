#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace psched::sim {

EventId EventQueue::schedule(SimTime t, Callback cb) {
  PSCHED_ASSERT_MSG(std::isfinite(t), "cannot schedule an event at infinity");
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(cb);
  }
  const EventId id = next_id_++;
  heap_.push_back(Entry{t, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++total_scheduled_;
  return id;
}

EventQueue::Callback EventQueue::take(std::uint32_t slot) {
  Callback cb = std::move(slots_[slot]);
  slots_[slot] = nullptr;  // drop whatever the moved-from callback still holds
  free_.push_back(slot);
  return cb;
}

void EventQueue::cancel(EventId id) {
  // Fired, cancelled and unknown ids are simply absent from the heap.
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [id](const Entry& e) { return e.id == id; });
  if (it == heap_.end()) return;
  (void)take(it->slot);
  ++total_cancelled_;
  // Fill the hole with the last entry and sift that entry up or down until
  // the heap property holds again. Ids are unique, so the pop order of the
  // remaining events does not depend on where it settles.
  auto i = static_cast<std::size_t>(it - heap_.begin());
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the cancelled entry was the last one
  const Later later{};
  while (i > 0 && later(heap_[(i - 1) / 2], moved)) {
    heap_[i] = heap_[(i - 1) / 2];
    i = (i - 1) / 2;
  }
  for (std::size_t child = 2 * i + 1; child < heap_.size(); child = 2 * i + 1) {
    if (child + 1 < heap_.size() && later(heap_[child], heap_[child + 1])) ++child;
    if (!later(moved, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moved;
}

bool EventQueue::is_pending(EventId id) const noexcept {
  return std::any_of(heap_.begin(), heap_.end(),
                     [id](const Entry& e) { return e.id == id; });
}

EventQueue::Fired EventQueue::pop() {
  PSCHED_ASSERT_MSG(!heap_.empty(), "pop() on empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  return Fired{top.time, top.id, take(top.slot)};
}

}  // namespace psched::sim
