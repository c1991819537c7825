#pragma once
// The LLP worker: owns progress (CQ polling) for the endpoints created
// from it, mirroring uct_worker_progress (§4.1).
//
// A progress pass scans the RX CQ and every registered endpoint's TX CQ,
// dequeuing visible entries up to a batch limit. Each dequeued entry costs
// LLP_prog (load memory barrier + CQE read + bookkeeping); an empty pass
// costs the cheaper empty-progress time. Completion dispatch (endpoint
// accounting, registered upper-layer callbacks) runs before the pass
// returns, exactly as UCT executes callbacks before uct_worker_progress
// returns (§5).
//
// A blocking wait spends nearly all of its passes finding nothing. idle()
// parks the waiter off the event queue and the simulator runs those empty
// passes inline, with identical costs, times, RNG draws and logical event
// counts (docs/SIM_ENGINE.md, "Parked waiters").

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/core.hpp"
#include "nic/queues.hpp"
#include "prof/profiler.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace bb::llp {

class Endpoint;

struct WorkerConfig {
  /// Maximum CQ entries dequeued per progress call.
  std::uint32_t batch_limit = 16;
};

class Worker {
 public:
  Worker(cpu::Core& core, nic::HostMemory& host, WorkerConfig cfg = {});

  cpu::Core& core() { return core_; }
  nic::HostMemory& host() { return host_; }

  /// Optional profiler wrapped around LLP-internal operations.
  void set_profiler(prof::Profiler* p) { profiler_ = p; }
  prof::Profiler* profiler() { return profiler_; }

  /// Callback invoked for every receive completion (HLP registers its
  /// tag-matching here; §5's "registered callback" chain).
  void set_rx_handler(std::function<void(const nic::Cqe&)> h) {
    rx_handler_ = std::move(h);
  }

  /// Message ids are allocated node-wide (via the host memory image) so
  /// multiple workers on one node never collide at the shared NIC.
  std::uint64_t alloc_msg_id() { return host_.alloc_msg_id(); }
  void register_endpoint(Endpoint* ep);

  /// One uct_worker_progress pass; returns completions processed (TX ops
  /// retired count as the number of CQEs dequeued, not ops).
  sim::Task<std::uint32_t> progress(std::uint32_t max_completions = 0);

  class IdleAwaiter;
  /// Runs the empty passes of a blocking wait as a parked waiter. A pass
  /// charges `upper_pass` (the layer above's per-pass cost, e.g.
  /// ucp_progress_iter; null for none), then the empty-pass cost, and
  /// parks until its flush would end, as progress() would delay. The
  /// await returns, with the number of passes run, once a polled CQ holds
  /// an entry (the next progress() has work) or core time passes
  /// `deadline`. It runs no pass at all when one of those already holds,
  /// or when a per-pass profiler point is active. Only valid while the
  /// caller's progress pass would do nothing but poll: no pending sends or
  /// control traffic above.
  IdleAwaiter idle(const cpu::CostSpec* upper_pass = nullptr,
                   TimePs deadline = TimePs::max());

  std::uint64_t tx_cqes_polled() const { return tx_cqes_polled_; }
  std::uint64_t tx_ops_retired() const { return tx_ops_retired_; }
  std::uint64_t rx_completions() const { return rx_completions_; }
  /// Completions-with-error surfaced through this worker (fault path).
  std::uint64_t error_completions() const { return error_completions_; }
  /// Subset of error completions that were QP-error flushes (kFlushed):
  /// ops that never failed themselves but lost their QP underneath them.
  std::uint64_t flushed_completions() const { return flushed_completions_; }

 private:
  // An endpoint and its TX CQ (std::map nodes are stable, so the ring
  // pointer outlives every later insertion).
  struct Polled {
    Endpoint* ep;
    nic::CqRing* tx_cq;
  };

  /// Whether a progress pass now would dequeue something.
  bool completion_ready() const;
  /// Whether progress() would open a measured region every pass.
  bool profiling_passes() const;

  cpu::Core& core_;
  nic::HostMemory& host_;
  WorkerConfig cfg_;
  prof::Profiler* profiler_ = nullptr;
  std::vector<Polled> endpoints_;
  std::function<void(const nic::Cqe&)> rx_handler_;
  std::uint64_t tx_cqes_polled_ = 0;
  std::uint64_t tx_ops_retired_ = 0;
  std::uint64_t rx_completions_ = 0;
  std::uint64_t error_completions_ = 0;
  std::uint64_t flushed_completions_ = 0;
};

class Worker::IdleAwaiter final : public sim::Waiter {
 public:
  IdleAwaiter(Worker& w, const cpu::CostSpec* upper_pass, TimePs deadline)
      : w_(w), upper_pass_(upper_pass), deadline_(deadline) {}
  // The simulator holds its address while it is parked.
  IdleAwaiter(const IdleAwaiter&) = delete;
  IdleAwaiter& operator=(const IdleAwaiter&) = delete;

  bool await_ready() const { return w_.profiling_passes() || done(); }
  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> h) {
    h_ = h;
    waiting_ = &h.promise();
    return run();
  }
  std::uint64_t await_resume() const { return passes_; }

  void pass() override {
    w_.core_.unpark();
    if (done() || !run()) h_.resume();
  }
  bool stalled() const override {
    return deadline_ == TimePs::max() && !w_.completion_ready();
  }

 private:
  bool done() const {
    return w_.core_.virtual_now() > deadline_ || w_.completion_ready();
  }
  // Runs passes until one parks on its flush (true: stay suspended) or
  // the wait is done without time passing (false).
  bool run();

  Worker& w_;
  const cpu::CostSpec* upper_pass_;
  TimePs deadline_;
  std::coroutine_handle<> h_;
  std::uint64_t passes_ = 0;
};

inline Worker::IdleAwaiter Worker::idle(const cpu::CostSpec* upper_pass,
                                        TimePs deadline) {
  return IdleAwaiter(*this, upper_pass, deadline);
}

}  // namespace bb::llp
