#include "llp/worker.hpp"

#include "common/assert.hpp"
#include "llp/endpoint.hpp"

namespace bb::llp {

Worker::Worker(cpu::Core& core, nic::HostMemory& host, WorkerConfig cfg)
    : core_(core), host_(host), cfg_(cfg) {}

void Worker::register_endpoint(Endpoint* ep) {
  endpoints_.push_back(Polled{ep, &host_.tx_cq(ep->config().qp)});
}

bool Worker::completion_ready() const {
  // The RC commits every DMA write at its visibility time, so a ring
  // entry is always visible: non-empty here means the next pass dequeues.
  const auto ready = [this](const nic::CqRing& cq) {
    if (cq.depth() == 0) return false;
#ifndef NDEBUG
    BB_ASSERT_MSG(cq.visible_count(core_.simulator().now()) > 0,
                  "CQ entry committed before its visibility time");
#endif
    return true;
  };
  if (ready(host_.rx_cq())) return true;
  for (const Polled& p : endpoints_) {
    if (ready(*p.tx_cq)) return true;
  }
  return false;
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
    // Then each endpoint's TX CQ.
    for (const Polled& p : endpoints_) {
      if (auto cqe = p.tx_cq->poll(now)) {
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
        p.ep->on_tx_cqe(*cqe);
        break;
      }
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
