#include "llp/endpoint.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "nic/nic.hpp"

namespace bb::llp {

Endpoint::Endpoint(Worker& worker, pcie::RootComplex& rc, EndpointConfig cfg,
                   nic::Nic* nic)
    : worker_(worker), rc_(rc), cfg_(cfg), nic_(nic) {
  // With moderation period > TxQ depth the queue can fill before any
  // descriptor is signalled, so no CQE is ever generated and every later
  // post busy-loops forever -- the same deadlock a real mlx5 queue pair
  // would exhibit. Reject the configuration up front.
  BB_ASSERT_MSG(cfg_.signal_period <= cfg_.txq_depth,
                "unsignalled-completion period must not exceed TxQ depth");
  // Registered-memory payload region: disjoint per QP so concurrent DMA
  // payload fetches from different endpoints never alias.
  next_payload_addr_ = 0x100000ull * (cfg_.qp + 1ull);
  worker_.register_endpoint(this);
}

sim::Task<Status> Endpoint::put_short(std::uint32_t bytes) {
  return post(pcie::WireOp::kRdmaWrite, bytes);
}

sim::Task<Status> Endpoint::am_short(std::uint32_t bytes,
                                     std::uint64_t user_data) {
  return post(pcie::WireOp::kSend, bytes, /*force_signal=*/false, user_data);
}

sim::Task<Status> Endpoint::flush() {
  if (outstanding_ == 0) co_return Status::kOk;
  co_return co_await post(pcie::WireOp::kRdmaWrite, 0,
                          /*force_signal=*/true);
}

sim::Task<Status> Endpoint::post(pcie::WireOp op, std::uint32_t bytes,
                                 bool force_signal,
                                 std::uint64_t user_data) {
  cpu::Core& core = worker_.core();
  const cpu::CpuCostModel& costs = core.costs();
  prof::Profiler* prof = worker_.profiler();

  if (outstanding_ >= cfg_.txq_depth) {
    // Busy post: early-exit before any descriptor work (§4.2).
    ++busy_posts_;
    prof::Profiler::Region rb;
    if (prof) rb = prof->begin(prof::Point::kBusyPost);
    core.consume(costs.busy_post);
    if (prof) prof->end(rb);
    co_return Status::kNoResource;
  }

  prof::Profiler::Region r_total;
  if (prof) r_total = prof->begin(prof::Point::kLlpPost);

  auto step = [&](prof::Point point, const cpu::CostSpec& spec) {
    prof::Profiler::Region r;
    if (prof) r = prof->begin(point);
    core.consume(spec);
    if (prof) prof->end(r);
  };

  // (1) Prepare the MD; includes the inline-payload memcpy.
  step(prof::Point::kMdSetup, costs.md_setup);
  // (2) Store barrier: MD fully written before signalling the NIC.
  step(prof::Point::kBarrierMd, costs.barrier_store_md);
  // (3)+(4) DoorBell counter increment + its store barrier.
  step(prof::Point::kBarrierDbc, costs.barrier_store_dbc);

  pcie::WireMd md;
  md.msg_id = worker_.alloc_msg_id();
  md.qp = cfg_.qp;
  md.dst_node = cfg_.peer_node;
  md.user_data = user_data;
  md.op = op;
  md.payload_bytes = bytes;
  md.inline_payload = cfg_.inline_payload && bytes <= cfg_.max_inline_bytes;
  ++signal_counter_;
  md.signaled = force_signal || (signal_counter_ % cfg_.signal_period) == 0;

  if (!md.inline_payload) {
    // The payload stays in registered memory; give it its address before
    // the descriptor is staged/copied anywhere.
    md.host_payload_addr = next_payload_addr_;
    next_payload_addr_ += bytes;
  }

  std::uint32_t mmio_bytes = 0;
  if (cfg_.use_pio) {
    // (5) PIO copy in 64-byte chunks (§2). Without inlining, the payload
    // still needs a DMA read, so only the control segment is copied.
    const std::uint32_t body =
        cfg_.md_overhead_bytes + (md.inline_payload ? bytes : 0);
    const std::uint32_t chunks = (body + 63) / 64;
    for (std::uint32_t i = 0; i < chunks; ++i) {
      step(prof::Point::kPioCopy, costs.pio_copy_64b);
    }
    mmio_bytes = chunks * 64;
  } else {
    // DoorBell path: the driver already wrote the MD into the host ring
    // (covered by MD setup); ring the 8-byte DoorBell.
    worker_.host().stage_descriptor(md);
    step(prof::Point::kDoorbellWrite, costs.doorbell_write_8b);
    mmio_bytes = 8;
  }

  // Function-call overhead, branches to decide the code path, etc.
  step(prof::Point::kPostOther, costs.llp_post_misc);

  ++outstanding_;
  ++posted_;

  if (prof) prof->end(r_total);

  // Interaction point: materialize the accrued CPU time, then hand the
  // posted write to the Root Complex.
  co_await core.flush();

  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.bytes = mmio_bytes;
  if (cfg_.use_pio) {
    tlp.content = pcie::DescriptorWrite{md};
  } else {
    tlp.content = pcie::DoorbellWrite{cfg_.qp, ++doorbell_counter_};
  }
  rc_.post_mmio(std::move(tlp));

  co_return Status::kOk;
}

void Endpoint::on_tx_cqe(const nic::Cqe& cqe) {
  BB_ASSERT_MSG(outstanding_ >= cqe.completes,
                "CQE retired more ops than outstanding");
  outstanding_ -= cqe.completes;
  if (cqe.status != Status::kOk) ++tx_errors_;
  if (cqe.status == Status::kFlushed) ++tx_flushed_;
  if (tx_retire_) tx_retire_(cqe.completes);
}

bool Endpoint::qp_in_error() const {
  return nic_ != nullptr && nic_->qp_state(cfg_.qp) == nic::QpState::kError;
}

sim::Task<Status> Endpoint::reconnect() {
  if (nic_ == nullptr) co_return Status::kIoError;
  // Drain every outstanding op first. A QP in the error state has
  // already flushed them as error CQEs; a healthy QP finishes them
  // normally. Either way progress() retires them all.
  double backoff_ns = 0.0;
  while (outstanding_ > 0) {
    const std::uint32_t progressed = co_await worker_.progress();
    if (progressed > 0) {
      backoff_ns = 0.0;
      continue;
    }
    backoff_ns = backoff_ns == 0.0 ? 50.0 : std::min(backoff_ns * 2.0, 4000.0);
    co_await worker_.core().simulator().delay(TimePs::from_ns(backoff_ns));
  }
  // Modify-QP ladder, then poll for the re-handshake like a verbs driver
  // polls the async event queue.
  nic_->qp_reset(cfg_.qp);
  nic_->qp_connect(cfg_.qp, cfg_.peer_node);
  backoff_ns = 100.0;
  while (nic_->qp_state(cfg_.qp) == nic::QpState::kConnecting) {
    co_await worker_.core().simulator().delay(TimePs::from_ns(backoff_ns));
    backoff_ns = std::min(backoff_ns * 2.0, 4000.0);
  }
  co_return nic_->qp_state(cfg_.qp) == nic::QpState::kRts ? Status::kOk
                                                          : Status::kIoError;
}

}  // namespace bb::llp
