#include "llp/worker.hpp"

#include <optional>

#include "common/assert.hpp"
#include "llp/endpoint.hpp"

namespace bb::llp {

Worker::Worker(cpu::Core& core, nic::HostMemory& host, WorkerConfig cfg)
    : core_(core), host_(host), cfg_(cfg) {}

void Worker::register_endpoint(Endpoint* ep) {
  const std::uint32_t qp = ep->config().qp;
  if (qp >= by_qp_.size()) by_qp_.resize(qp + 1, nullptr);
  BB_ASSERT_MSG(by_qp_[qp] == nullptr, "two endpoints of a worker on one QP");
  by_qp_[qp] = ep;
  host_.bind_tx_cq(qp, tx_cq_);
}

bool Worker::completion_ready() const {
  // The RC commits every DMA write at its visibility time, so a ring
  // entry is always visible: non-empty here means the next pass dequeues.
#ifndef NDEBUG
  const TimePs now = core_.simulator().now();
  const auto check = [now](const nic::CqRing& cq) {
    BB_ASSERT_MSG(cq.depth() == 0 || cq.visible_count(now) > 0,
                  "CQ entry committed before its visibility time");
  };
  check(host_.rx_cq());
  check(tx_cq_);
#endif
  return host_.rx_cq().depth() != 0 || tx_cq_.depth() != 0;
}

bool Worker::profiling_passes() const {
  return profiler_ != nullptr &&
         (profiler_->active(prof::Point::kUctWorkerProgress) ||
          profiler_->active(prof::Point::kUcpWorkerProgress));
}

bool Worker::IdleAwaiter::run() {
  cpu::Core& core = w_.core_;
  do {
    // One empty pass: the costs UcpWorker::progress and progress() charge
    // when nothing is found, drawn in the same order.
    if (upper_pass_ != nullptr) core.consume(*upper_pass_);
    core.consume(core.costs().llp_empty_progress);
    ++passes_;
    if (core.park(*this)) return true;
  } while (!done());
  return false;
}

TimePs Worker::IdleAwaiter::fixed_period() const {
  const cpu::Core& core = w_.core_;
  const std::optional<TimePs> empty =
      core.fixed_cost(core.costs().llp_empty_progress);
  const std::optional<TimePs> upper =
      upper_pass_ != nullptr ? core.fixed_cost(*upper_pass_) : TimePs::zero();
  return empty && upper ? *empty + *upper : TimePs::zero();
}

sim::Task<std::uint32_t> Worker::progress(std::uint32_t max_completions) {
  const std::uint32_t limit =
      max_completions == 0 ? cfg_.batch_limit : max_completions;
  const cpu::CpuCostModel& costs = core_.costs();

  prof::Profiler::Region r_pass;
  if (profiler_) r_pass = profiler_->begin(prof::Point::kUctWorkerProgress);

  std::uint32_t n = 0;
  bool found = true;
  while (n < limit && found) {
    found = false;
    const TimePs now = core_.virtual_now();

    // RX CQ first: inbound completions unblock the latency-critical path.
    if (auto cqe = host_.rx_cq().poll(now)) {
      prof::Profiler::Region r;
      if (profiler_) r = profiler_->begin(prof::Point::kLlpProg);
      core_.consume(costs.llp_prog);
      if (profiler_) profiler_->end(r);
      ++rx_completions_;
      if (cqe->status != common::Status::kOk) ++error_completions_;
      if (cqe->status == common::Status::kFlushed) ++flushed_completions_;
      ++n;
      found = true;
      if (rx_handler_) rx_handler_(*cqe);
      continue;
    }
    // Then the TX CQ, each entry retiring ops of the endpoint on its QP.
    if (auto cqe = tx_cq_.poll(now)) {
      prof::Profiler::Region r;
      if (profiler_) r = profiler_->begin(prof::Point::kLlpProg);
      core_.consume(costs.llp_prog);
      if (profiler_) profiler_->end(r);
      ++tx_cqes_polled_;
      tx_ops_retired_ += cqe->completes;
      if (cqe->status != common::Status::kOk) ++error_completions_;
      if (cqe->status == common::Status::kFlushed) ++flushed_completions_;
      ++n;
      found = true;
      by_qp_[cqe->qp]->on_tx_cqe(*cqe);
    }
  }

  if (n == 0) {
    // An empty pass still pays the load barrier and the CQ read miss.
    core_.consume(costs.llp_empty_progress);
  }

  if (profiler_) profiler_->end(r_pass);

  // Materialize the consumed time so subsequent polls observe later CQEs.
  co_await core_.flush();
  co_return n;
}

}  // namespace bb::llp
