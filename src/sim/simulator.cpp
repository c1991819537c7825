#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

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
// for: same clock update, same count, same event-limit check. A head
// without jitter may instead take the whole gap before `bound` in one
// step; the check lives here, off the dispatch loop that run() inlines.
void Simulator::run_pass(TimePs t, TimePs bound) {
  const auto* head = reinterpret_cast<const Waiter*>(parked_.top_item());
  if (head->period_ != TimePs::zero() && t < bound && merge_gap(bound)) {
    return;
  }
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

bool Simulator::step_impl(TimePs bound) {
#ifndef NDEBUG
  BB_ASSERT_MSG(owner_ == std::this_thread::get_id(),
                "Simulator stepped off its construction thread");
#endif
  TimePs t;
  detail::EventItem item;
  switch (pick_next(t, item)) {
    case Next::kNone:
      return false;
    case Next::kEvent:
      dispatch(t, item);
      break;
    case Next::kPass:
      run_pass(t, bound);
      break;
  }
  return true;
}

// The parked head is due. When every parked waiter passes with one fixed
// period d, runs every pass that lies before the horizon H in one step
// (docs/SIM_ENGINE.md, "Gap merge"). H is the first time a pass could see
// a change: the next queued event, `bound`, a deadline passing or a CQ
// already holding an entry. No pass before H ends its wait or touches
// anything but its own core, so each waiter i at boundary b_i runs
// n_i = ceil((H - b_i) / d) passes and is re-keyed as its last pass would
// have parked it: at b_i + n_i*d, with the seq that pass would take from
// the counter, N + r_i, r_i being the passes of the gap that run before
// it. Same-phase ties (b_i = b_j mod d) go to the larger entry boundary,
// then the smaller seq. Returns false, having changed nothing, when the
// pass-by-pass path must run instead.
bool Simulator::merge_gap(TimePs bound) {
  // Keeps the lattice scratch on the stack; larger sets run pass by pass.
  constexpr std::size_t kMaxWaiters = 64;
  const std::int64_t d =
      reinterpret_cast<const Waiter*>(parked_.top_item())->period_.ps();
  std::int64_t h = bound.ps();
  if (!ring_.empty()) return false;  // the head is due at now_ itself
  if (!run_.empty()) h = std::min(h, run_.front_time());
  if (!heap_.empty()) h = std::min(h, heap_.top_time().ps());

  const std::span<detail::TimerHeap::Entry> es = parked_.entries();
  const std::size_t k = es.size();
  if (k > kMaxWaiters) return false;
  const std::int64_t b0 = parked_.top_time().ps();
  for (const detail::TimerHeap::Entry& e : es) {
    const auto* w = reinterpret_cast<const Waiter*>(e.item);
    if (w->period_.ps() != d) return false;
    if (w->deadline_ != TimePs::max()) {
      h = std::min(h, w->deadline_.ps() + 1);
    }
    if (w->ready()) h = std::min(h, e.t_ps);
    if (h <= b0) return false;
  }
  // Nothing bounds the gap: the stall check must see every pass.
  if (h == TimePs::max().ps()) return false;

  // Per waiter: lattice coordinates b_i - b0 = q*d + p (0 <= p < d), the
  // passes n it runs before h, and r. Only the first k are written.
  struct Lattice {
    std::int64_t q, p, n;
    std::uint64_t r;
  };
  Lattice lat[kMaxWaiters];
  const std::int64_t qh = (h - b0) / d, ph = (h - b0) % d;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t q = (es[i].t_ps - b0) / d, p = (es[i].t_ps - b0) % d;
    const std::int64_t n = std::max<std::int64_t>(0, qh - q + (ph > p ? 1 : 0));
    lat[i] = Lattice{q, p, n, 0};
    total += static_cast<std::uint64_t>(n);
  }
  if (event_limit_ != 0 && events_processed_ + total > event_limit_) {
    return false;  // the pass that crosses it must throw in place
  }

  // r_i: passes of waiter j before i's last pass, at lattice index
  // l_i = q_i + n_i - 1, are max(0, l_i - q_j + [p_i > p_j]) (j's earlier
  // passes included); at a same-phase tie j's pass at l_i goes first when
  // j entered later, or at the same boundary with a smaller seq.
  std::int64_t last = now_.ps();
  for (std::size_t i = 0; i < k; ++i) {
    Lattice& a = lat[i];
    if (a.n == 0) continue;
    const std::int64_t l = a.q + a.n - 1;
    std::int64_t before = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Lattice& b = lat[j];
      if (b.p == a.p) {
        if (b.q > l) continue;
        before += l - b.q;
        if (b.q > a.q || (b.q == a.q && es[j].seq < es[i].seq)) ++before;
      } else {
        before += std::max<std::int64_t>(0, l - b.q + (a.p > b.p ? 1 : 0));
      }
    }
    a.r = static_cast<std::uint64_t>(before);
    last = std::max(last, b0 + l * d + a.p);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const Lattice& a = lat[i];
    if (a.n == 0) continue;
    es[i].t_ps += a.n * d;
    es[i].seq = next_seq_ + a.r;
    reinterpret_cast<Waiter*>(es[i].item)
        ->skip(static_cast<std::uint64_t>(a.n));
  }
  parked_.rebuild();
  now_ = TimePs(last);
  next_seq_ += total;
  events_processed_ += total;
  parked_passes_ += total;
  return true;
}

void Simulator::run() {
  while (step_impl(TimePs::max())) {
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
  const TimePs bound = t == TimePs::max() ? t : t + TimePs(1);
  while (has_event_at_or_before(t)) {
    step_impl(bound);
  }
  if (now_ < t) now_ = t;
}

}  // namespace bb::sim
