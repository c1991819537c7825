#include "sim/simulator.hpp"

#include <cstdio>

namespace bb::sim {

namespace detail {

void notify_root_error(void* simulator, std::uint32_t root_index,
                       std::exception_ptr error) noexcept {
  static_cast<Simulator*>(simulator)->note_root_error(root_index,
                                                      std::move(error));
}

}  // namespace detail

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() {
  // Destroy any still-suspended root frames. Nothing may be resumed after
  // this, so dangling waiter entries inside signals are harmless.
  for (auto& r : roots_) {
    if (r.handle) r.handle.destroy();
  }
  // Destroy the payloads of events that never ran (captured resources in
  // queued callbacks must still be released).
  drop_pending();
}

void Simulator::drop_pending() noexcept {
  // Destroy payloads of queued callback events; queued coroutine handles
  // are owned by their root frames and need no action here.
  const auto drop_item = [this](detail::EventItem item) {
    if (detail::item_is_node(item)) {
      detail::EventNode* n = detail::item_node(item);
      if (n->drop) n->drop(n);
      pool_.release(n);
    }
  };
  while (!ring_.empty()) drop_item(ring_.pop().item);
  while (!run_.empty()) drop_item(run_.pop());
  while (!heap_.empty()) drop_item(heap_.pop());
}

void Simulator::spawn(Task<void> task, std::string name) {
  auto h = task.release();
  BB_ASSERT_MSG(h, "cannot spawn an empty task");
  auto& promise = h.promise();
  promise.root_sim = this;
  promise.root_index = static_cast<std::uint32_t>(roots_.size());
  roots_.push_back(RootProcess{h, std::move(name)});
  schedule_at(now_, h);
}

void Simulator::note_root_error(std::uint32_t root_index,
                                std::exception_ptr error) noexcept {
  if (!root_error_) {
    root_error_ = std::move(error);
    root_error_index_ = root_index;
  }
}

void Simulator::rethrow_root_error() {
  // Surface exceptions from failed root processes immediately: a failed
  // process invalidates the whole timeline. The flag stays set, so any
  // further stepping keeps rethrowing.
  std::fprintf(stderr, "bb::sim: root process '%s' threw\n",
               roots_[root_error_index_].name.c_str());
  std::rethrow_exception(root_error_);
}

void Simulator::dispatch(TimePs t, detail::EventItem item) {
  now_ = t;
  ++events_processed_;
  if (event_limit_ != 0 && events_processed_ > event_limit_) {
    if (detail::item_is_node(item)) {
      detail::EventNode* n = detail::item_node(item);
      if (n->drop) n->drop(n);
      pool_.release(n);
    }
    throw EventLimitError(event_limit_);
  }
  if ((item & 3u) == 0) {
    detail::item_coro(item).resume();
  } else if (detail::item_is_fn(item)) {
    detail::item_fn(item)();
  } else {
    // Callback event: run the in-place callable; destroy the payload and
    // recycle the node even if it throws.
    detail::EventNode* n = detail::item_node(item);
    struct Guard {
      Simulator* sim;
      detail::EventNode* node;
      ~Guard() {
        if (node->drop) node->drop(node);
        sim->pool_.release(node);
      }
    } guard{this, n};
    n->invoke(n);
  }
  if (root_error_) [[unlikely]] {
    rethrow_root_error();
  }
}

// A parked waiter's pass, run inline as the event its boundary stands
// for: same clock update, same count, same event-limit check.
void Simulator::run_pass(TimePs t) {
  Waiter* w = reinterpret_cast<Waiter*>(parked_.pop());
  now_ = t;
  ++events_processed_;
  ++parked_passes_;
  if (event_limit_ != 0 && events_processed_ > event_limit_) {
    throw EventLimitError(event_limit_);
  }
  w->pass();
  if (root_error_) [[unlikely]] {
    rethrow_root_error();
  }
}

// Picks the globally smallest (time, seq) entry across the three queues
// and the parked waiters; pops it unless it is a parked pass (run_pass
// pops those). Ring entries all sit at `now_`; a run/heap/parked entry
// ties with the ring head only when it was scheduled -- with a smaller
// seq -- before time advanced to `now_`, in which case it must run first
// to preserve global order.
Simulator::Next Simulator::pick_next(TimePs& t, detail::EventItem& item) {
  // Future sources first: the monotone run, the timer heap and the parked
  // waiters, all keyed by (time, seq).
  int src = 0;  // 0 = none, 1 = run, 2 = heap, 3 = parked
  std::int64_t ft = 0;
  std::uint64_t fseq = 0;
  if (!run_.empty()) {
    ft = run_.front_time();
    fseq = run_.front_seq();
    src = 1;
  }
  if (!heap_.empty()) {
    const std::int64_t ht = heap_.top_time().ps();
    const std::uint64_t hseq = heap_.top_seq();
    if (src == 0 || ht < ft || (ht == ft && hseq < fseq)) {
      ft = ht;
      fseq = hseq;
      src = 2;
    }
  }
  if (!parked_.empty()) {
    const std::int64_t pt = parked_.top_time().ps();
    const std::uint64_t pseq = parked_.top_seq();
    if (src == 0 || pt < ft || (pt == ft && pseq < fseq)) {
      ft = pt;
      fseq = pseq;
      src = 3;
    }
  }
  if (!ring_.empty()) {
    if (src == 0 || ft > now_.ps() || fseq > ring_.head().seq) {
      t = now_;
      item = ring_.pop().item;
      return Next::kEvent;
    }
  } else if (src == 0) {
    return Next::kNone;
  }
  t = TimePs(ft);
  if (src == 3) return Next::kPass;
  item = (src == 1) ? run_.pop() : heap_.pop();
  return Next::kEvent;
}

bool Simulator::has_event_at_or_before(TimePs t) const {
  if (!ring_.empty()) return now_ <= t;
  if (!run_.empty() && TimePs(run_.front_time()) <= t) return true;
  if (!heap_.empty() && heap_.top_time() <= t) return true;
  if (!parked_.empty() && parked_.top_time() <= t) return true;
  return false;
}

bool Simulator::step_impl() {
  TimePs t;
  detail::EventItem item;
  switch (pick_next(t, item)) {
    case Next::kNone:
      return false;
    case Next::kEvent:
      dispatch(t, item);
      break;
    case Next::kPass:
      run_pass(t);
      break;
  }
  return true;
}

void Simulator::run() {
  while (step()) {
    if (!parked_.empty() && queue_empty()) [[unlikely]] {
      throw_if_stalled();
    }
  }
}

// Only queued events fill CQs (a parked pass touches its own core alone),
// so with the queue empty a waiter with no deadline and empty CQs can
// never finish, and neither can anything waiting on it.
void Simulator::throw_if_stalled() const {
  const bool stalled = parked_.all_of([](detail::EventItem w) {
    return reinterpret_cast<const Waiter*>(w)->stalled();
  });
  if (stalled) {
    const auto* w = reinterpret_cast<const Waiter*>(parked_.top_item());
    throw StalledError(root_name(w->waiting_));
  }
}

std::string Simulator::root_name(const detail::PromiseBase* frame) const {
  while (frame != nullptr && frame->parent != nullptr) frame = frame->parent;
  for (const RootProcess& r : roots_) {
    if (&r.handle.promise() == frame) return r.name;
  }
  return "(unknown)";
}

void Simulator::run_until(TimePs t) {
  while (has_event_at_or_before(t)) {
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace bb::sim
