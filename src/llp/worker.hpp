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

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/core.hpp"
#include "fault/fault.hpp"
#include "nic/queues.hpp"
#include "prof/profiler.hpp"
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
  void register_endpoint(Endpoint* ep) { endpoints_.push_back(ep); }

  /// One uct_worker_progress pass; returns completions processed (TX ops
  /// retired count as the number of CQEs dequeued, not ops).
  sim::Task<std::uint32_t> progress(std::uint32_t max_completions = 0);

  std::uint64_t tx_cqes_polled() const { return tx_cqes_polled_; }
  std::uint64_t tx_ops_retired() const { return tx_ops_retired_; }
  std::uint64_t rx_completions() const { return rx_completions_; }
  /// Completions-with-error surfaced through this worker (fault path).
  std::uint64_t error_completions() const { return error_completions_; }
  /// Subset of error completions that were QP-error flushes (kFlushed):
  /// ops that never failed themselves but lost their QP underneath them.
  std::uint64_t flushed_completions() const { return flushed_completions_; }

  /// Shared fault-stat accumulator (wired by the testbed when fault
  /// injection is enabled).
  void set_fault_stats(fault::FaultStats* s) { fault_stats_ = s; }
  void note_busy_post_retry() {
    if (fault_stats_) ++fault_stats_->busy_post_retries;
  }

 private:
  cpu::Core& core_;
  nic::HostMemory& host_;
  WorkerConfig cfg_;
  prof::Profiler* profiler_ = nullptr;
  std::vector<Endpoint*> endpoints_;
  std::function<void(const nic::Cqe&)> rx_handler_;
  std::uint64_t tx_cqes_polled_ = 0;
  std::uint64_t tx_ops_retired_ = 0;
  std::uint64_t rx_completions_ = 0;
  std::uint64_t error_completions_ = 0;
  std::uint64_t flushed_completions_ = 0;
  fault::FaultStats* fault_stats_ = nullptr;
};

}  // namespace bb::llp
