#pragma once
// The discrete-event simulator core.
//
// A `Simulator` advances a timeline of suspended coroutines and plain
// callbacks. Processes are `Task<void>` coroutines spawned as roots; they
// advance simulated time only by `co_await sim.delay(d)` or by blocking on
// synchronization primitives (`Channel`, `Signal`). Events with equal
// timestamps run in FIFO spawn order (a monotonically increasing sequence
// number breaks ties), which makes runs deterministic.
//
// The dispatch loop is built for near-zero per-event overhead (see
// docs/SIM_ENGINE.md for the full design):
//  * events live in pooled fixed-size nodes; callables are constructed in
//    place (no `std::function`, no per-event heap allocation, no copy on
//    pop);
//  * events at the current time -- the dominant case -- go through an O(1)
//    FIFO ready ring; future timestamps scheduled in nondecreasing order
//    (fixed latencies) ride an O(1) monotone run queue; only out-of-order
//    timestamps pay the (4-ary) heap;
//  * root-process failures set a flag via a promise hook instead of being
//    discovered by a per-event scan over all roots;
//  * a blocking wait's idle passes stay off the queue: parked waiters run
//    each pass inline at the (time, seq) its boundary was parked with.

#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace bb::sim {

/// Thrown when `set_event_limit` is exceeded: a runaway self-rescheduling
/// process. Always on, in every build type -- a simulator that silently
/// spins produces plausible-looking wrong numbers.
class EventLimitError : public std::runtime_error {
 public:
  explicit EventLimitError(std::uint64_t limit)
      : std::runtime_error(
            "simulator event limit (" + std::to_string(limit) +
            ") exceeded: runaway process?"),
        limit_(limit) {}
  std::uint64_t limit() const { return limit_; }

 private:
  std::uint64_t limit_;
};

/// Thrown by `Simulator::run()` when the queue is empty and every parked
/// waiter is stalled (no deadline, nothing in its CQs): no event is left
/// that could fill a CQ, so the waits would spin forever.
class StalledError : public std::runtime_error {
 public:
  explicit StalledError(const std::string& process)
      : std::runtime_error("simulation stalled: root process '" + process +
                           "' waits for a completion that no pending event "
                           "can deliver"),
        process_(process) {}
  /// The root process of the first parked waiter.
  const std::string& process() const { return process_; }

 private:
  std::string process_;
};

/// A process parked in a polling loop whose passes touch only its own
/// core (llp::Worker::idle). The simulator keeps it off the event queue
/// and runs each pass inline, at the (time, seq) its boundary was parked
/// with (docs/SIM_ENGINE.md, "Parked waiters").
class Waiter {
 public:
  virtual ~Waiter() = default;
  /// Runs the pass due now: parks again (`Simulator::park`) or resumes
  /// the waiting process.
  virtual void pass() = 0;
  /// Whether no pass can ever end the wait unless another event fills a
  /// CQ (no deadline, every polled CQ empty).
  virtual bool stalled() const = 0;

 protected:
  /// The waiting coroutine's promise (names its root process in a
  /// StalledError).
  const detail::PromiseBase* waiting_ = nullptr;

  friend class Simulator;
};

// Cache-line aligned, so the hot queue state keeps the same line offsets
// whatever object holds the simulator. A Testbed places it after its
// SystemConfig, and perfbench's host time per op moves by several
// percent with that offset.
class alignas(64) Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 42);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimePs now() const { return now_; }

  /// Deterministic RNG shared by the run. Components typically `fork()`
  /// their own child streams at construction.
  Rng& rng() { return rng_; }

  /// Schedules a raw coroutine resume at absolute time `t` (>= now).
  /// Coroutine events are a bare tagged pointer in the queue: no event
  /// node, no pool, no allocation.
  void schedule_at(TimePs t, std::coroutine_handle<> h) {
    BB_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    enqueue(t, detail::coro_item(h));
  }

  /// Fast path for wake-ups at the current time (Channel sends, Signal
  /// fires): straight onto the ready ring, no heap involved.
  void schedule_now(std::coroutine_handle<> h) {
    ring_.push(next_seq_++, detail::coro_item(h));
  }

  /// Schedules a callback at absolute time `t` (>= now). Stateless
  /// callables travel as a tagged bare function pointer; callables with
  /// captures are constructed in place in a pooled event node (up to
  /// `detail::EventNode::kInlineBytes` without touching the heap).
  template <typename F>
  void call_at(TimePs t, F&& fn) {
    BB_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    enqueue(t, detail::make_callback_item(pool_, std::forward<F>(fn)));
  }

  /// Schedules a callback `d` after the current time (the common
  /// "processing delay" idiom in the hardware models).
  template <typename F>
  void call_in(TimePs d, F&& fn) {
    call_at(now_ + d, std::forward<F>(fn));
  }

  /// Parks `w` until its next pass boundary `t` (> now). The pass runs
  /// inline at (t, seq), with seq taken here -- where `call_at` would take
  /// it -- so it keeps its place in the global order.
  void park(Waiter& w, TimePs t) {
    BB_ASSERT_MSG(t > now_, "a parked pass must lie in the future");
    parked_.push(t, next_seq_++, reinterpret_cast<detail::EventItem>(&w));
  }

  /// Awaitable that suspends the current process for `d`.
  struct DelayAwaiter {
    Simulator* sim;
    TimePs d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_at(sim->now_ + d, h);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(TimePs d) { return DelayAwaiter{this, d}; }

  /// Registers and starts a root process. The simulator owns the frame and
  /// destroys it at teardown; exceptions escaping a root process abort.
  void spawn(Task<void> task, std::string name = "process");

  /// Runs one event. Returns false if the queue is empty.
  /// Isolation invariant (debug-checked): a Simulator is single-threaded
  /// -- it must be stepped on the thread that constructed it. Parallel
  /// execution (bb::exec) runs whole simulators on distinct threads; it
  /// never shares one across threads.
  bool step() {
#ifndef NDEBUG
    BB_ASSERT_MSG(owner_ == std::this_thread::get_id(),
                  "Simulator stepped off its construction thread");
#endif
    return step_impl();
  }
  /// Runs until the event queue drains. Throws StalledError once only
  /// stalled parked waiters remain.
  void run();
  /// Runs while events exist and now() <= t.
  void run_until(TimePs t);
  /// Runs until `pred()` becomes true (checked after each event) or the
  /// queue drains. Returns whether the predicate held.
  bool run_while_pending(const std::function<bool()>& pred);

  /// Logical events: queue pops plus parked passes run inline. Parked
  /// passes count as the events they replace, so this is the count a run
  /// with every pass queued would report.
  std::uint64_t events_processed() const { return events_processed_; }
  /// Events popped from the queue (excludes parked passes).
  std::uint64_t events_dispatched() const {
    return events_processed_ - parked_passes_;
  }
  bool idle() const { return queue_empty() && parked_.empty(); }

  /// Safety valve against runaway process loops; 0 disables. Exceeding the
  /// limit throws `EventLimitError` in every build type.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// Event-node slabs allocated so far (diagnostic: flat once warm).
  std::size_t event_pool_chunks() const { return pool_.chunks(); }

  /// Internal: called from the root promise's unhandled_exception hook.
  void note_root_error(std::uint32_t root_index,
                       std::exception_ptr error) noexcept;

 private:
  struct RootProcess {
    std::coroutine_handle<detail::Promise<void>> handle;
    std::string name;
  };

  void enqueue(TimePs t, detail::EventItem item) {
    const std::uint64_t seq = next_seq_++;
    if (t == now_) {
      ring_.push(seq, item);
    } else if (run_.empty() || t.ps() >= run_.back_time()) {
      run_.push(t.ps(), seq, item);
    } else {
      heap_.push(t, seq, item);
    }
  }

  enum class Next { kNone, kEvent, kPass };

  bool queue_empty() const {
    return ring_.empty() && run_.empty() && heap_.empty();
  }
  bool step_impl();
  Next pick_next(TimePs& t, detail::EventItem& item);
  bool has_event_at_or_before(TimePs t) const;
  void dispatch(TimePs t, detail::EventItem item);
  void run_pass(TimePs t);
  void throw_if_stalled() const;
  std::string root_name(const detail::PromiseBase* frame) const;
  [[noreturn]] void rethrow_root_error();
  void drop_pending() noexcept;

  TimePs now_ = TimePs::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t parked_passes_ = 0;
  std::uint64_t event_limit_ = 0;
  detail::EventPool pool_;
  detail::ReadyRing ring_;
  detail::MonotoneRun run_;
  detail::TimerHeap heap_;
  // Parked waiters keyed by their next pass boundary; items are Waiter*.
  detail::TimerHeap parked_;
  std::exception_ptr root_error_;
  std::uint32_t root_error_index_ = 0;
  std::vector<RootProcess> roots_;
  Rng rng_;
#ifndef NDEBUG
  std::thread::id owner_ = std::this_thread::get_id();
#endif
};

}  // namespace bb::sim
