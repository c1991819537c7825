#pragma once
// A UCT-like endpoint: the HW/SW interface for posting messages to one
// queue pair (§4.1).
//
// put_short / am_short execute the paper's five-step PIO post sequence on
// the owning core:
//   (1) prepare the MD (memcpy of the inline payload included),
//   (2) store barrier for the MD,
//   (3+4) DoorBell-counter update + its store barrier,
//   (5) PIO copy of 64-byte chunks into Device-GRE memory,
// plus the miscellaneous function-call/branching time, and then hand the
// posted MWr to the Root Complex. The alternative DoorBell+DMA descriptor
// path (use_pio = false) stages the descriptor in host memory and rings
// an 8-byte DoorBell instead -- the configuration §2 explains PIO
// replaces, kept for the descriptor-path ablation.

#include <cstdint>
#include <functional>

#include "llp/uct.hpp"
#include "llp/worker.hpp"
#include "pcie/root_complex.hpp"
#include "pcie/tlp.hpp"

namespace bb::nic {
class Nic;
}

namespace bb::llp {

struct EndpointConfig {
  std::uint32_t qp = 0;
  /// Destination node (-1 = the single peer of a two-node testbed).
  int peer_node = -1;
  /// Transmit-queue depth; posts beyond it fail with kNoResource.
  std::uint32_t txq_depth = 128;
  /// PIO ("BlueFlame") vs DoorBell+DMA descriptor path.
  bool use_pio = true;
  /// Inline the payload in the descriptor (only meaningful for sizes that
  /// fit; larger payloads force the DMA payload fetch).
  bool inline_payload = true;
  /// Largest payload that can be inlined.
  std::uint32_t max_inline_bytes = 192;
  /// Control-segment bytes preceding the payload in the descriptor (PIO
  /// chunking: an 8-byte payload still fills one 64-byte chunk).
  std::uint32_t md_overhead_bytes = 32;
  /// Every `signal_period`-th descriptor is signalled; its CQE retires
  /// the whole batch. 1 = every message signalled (the UCX perftest
  /// configuration); MPI stacks take UCP's period (hlp::UcpConfig).
  std::uint32_t signal_period = 1;
};

class Endpoint {
 public:
  /// `nic` (optional) is this node's NIC, used for QP state queries and
  /// the reconnect path; without it reconnect() reports kIoError.
  Endpoint(Worker& worker, pcie::RootComplex& rc, EndpointConfig cfg,
           nic::Nic* nic = nullptr);

  const EndpointConfig& config() const { return cfg_; }
  EndpointConfig& config() { return cfg_; }

  /// RDMA write (UCX put_short; the put_bw test).
  sim::Task<Status> put_short(std::uint32_t bytes);
  /// Two-sided send (UCX am_short; the am_lat test). `user_data` is the
  /// immediate data delivered with the receive completion (protocol
  /// headers ride here).
  sim::Task<Status> am_short(std::uint32_t bytes,
                             std::uint64_t user_data = 0);
  /// Posts a zero-byte *signalled* no-op whose CQE retires every
  /// unsignalled predecessor -- the uct_ep_flush equivalent needed to
  /// drain a moderated queue whose op count is not a multiple of the
  /// signalling period. No-op when nothing is outstanding.
  sim::Task<Status> flush();

  /// Whether this endpoint's QP sits in the error state (retry budget
  /// exhausted; posts are flushed until reconnect()).
  bool qp_in_error() const;
  /// QP recovery (docs/TRANSPORT.md): drains every outstanding
  /// completion (the error flush already queued error CQEs for them),
  /// walks the modify-QP ladder (reset -> init -> RTR -> RTS) and polls
  /// with backoff until the re-handshake lands. kOk once the QP is back
  /// in RTS; flushed ops must be reposted by the caller.
  sim::Task<Status> reconnect();

  /// Ops posted but not yet retired by a polled CQE.
  std::uint32_t outstanding() const { return outstanding_; }
  std::uint64_t posted() const { return posted_; }
  std::uint64_t busy_posts() const { return busy_posts_; }
  /// Ops retired by a completion-with-error (fault path).
  std::uint64_t tx_errors() const { return tx_errors_; }
  /// Subset of tx_errors that were QP-error flushes (kFlushed).
  std::uint64_t tx_flushed() const { return tx_flushed_; }

  /// Invoked by the worker when a TX CQE retires `k` ops (upper layers
  /// hook their send-progress accounting here).
  void set_tx_retire_handler(std::function<void(std::uint32_t)> h) {
    tx_retire_ = std::move(h);
  }

  /// Worker-internal: CQE dequeued for this endpoint.
  void on_tx_cqe(const nic::Cqe& cqe);

 private:
  sim::Task<Status> post(pcie::WireOp op, std::uint32_t bytes,
                         bool force_signal = false,
                         std::uint64_t user_data = 0);

  Worker& worker_;
  pcie::RootComplex& rc_;
  EndpointConfig cfg_;
  nic::Nic* nic_ = nullptr;
  std::uint32_t outstanding_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t busy_posts_ = 0;
  std::uint64_t tx_errors_ = 0;
  std::uint64_t tx_flushed_ = 0;
  std::uint64_t signal_counter_ = 0;
  std::uint64_t doorbell_counter_ = 0;
  std::uint64_t next_payload_addr_ = 0x1000;
  std::function<void(std::uint32_t)> tx_retire_;
};

}  // namespace bb::llp
