#pragma once
// The UCP-like protocol layer (§5): tag send/receive over UCT, pending-
// operation rescheduling, and the registered-callback chain.
//
// Semantics follow UCX for the small-message regime the paper studies:
//  * An inlined short tag-send completes locally as soon as the LLP post
//    succeeds (the payload left the CPU). Its TxQ slot is recycled later
//    when a (possibly unsignalled-moderated) CQE is polled.
//  * A tag-send that hits a busy post is queued as a pending operation and
//    retried during worker progress.
//  * A receive completes when the inbound payload write is visible and the
//    RX completion is polled; the UCP callback runs first, then the
//    registered upper-layer (MPICH) callback -- both before
//    uct_worker_progress returns (§5).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "common/status.hpp"
#include "cpu/core.hpp"
#include "hlp/request.hpp"
#include "llp/endpoint.hpp"
#include "llp/worker.hpp"
#include "sim/task.hpp"

namespace bb::hlp {

/// The UCP settings of an MPI stack (scenario::SystemConfig::ucp holds
/// the machine's; scenario::MpiStack applies them).
struct UcpConfig {
  /// Every `signal_period`-th send is signalled; its CQE retires the
  /// whole batch. UCX's unsignalled-completion default, c = 64 (§6, [14]).
  /// Applied to the stack's endpoint (llp::EndpointConfig::signal_period).
  std::uint32_t signal_period = 64;
  /// Messages of at least this size use the rendezvous protocol
  /// (RTS -> CTS -> one-sided data put -> FIN) instead of the eager
  /// inline path; the payload crosses the wire exactly once, at the cost
  /// of an extra control round trip. UCX-like default.
  std::uint32_t rndv_threshold = 1024;
};

class UcpWorker {
 public:
  /// `src_rank` is stamped into every outgoing message header so a
  /// receiving node with several peers can demultiplex (RxMux). -1 keeps
  /// the legacy two-node wire format: eager messages carry user_data 0.
  UcpWorker(llp::Worker& uct_worker, llp::Endpoint& endpoint,
            UcpConfig cfg, int src_rank);

  cpu::Core& core() { return uct_worker_.core(); }
  llp::Endpoint& endpoint() { return endpoint_; }
  llp::Worker& uct_worker() { return uct_worker_; }
  prof::Profiler* profiler() { return uct_worker_.profiler(); }

  /// Registered upper-layer callback for completed receives (MPICH's).
  /// Runs after the UCP callback, inside progress.
  void set_upper_rx_callback(std::function<void(Request*)> cb) {
    upper_rx_cb_ = std::move(cb);
  }

  /// ucp_tag_send_nb: consumes the UCP initiation cost, then executes the
  /// LLP post (or pends the request on a busy post). Returns the tracking
  /// request; initiation itself cannot fail (busy posts pend), so the
  /// Expected is the unified convention, not a present error path.
  sim::Task<common::Expected<Request*>> tag_send_nb(std::uint32_t bytes);

  /// ucp_tag_recv_nb: posts a receive into the matching engine. Costless
  /// relative to the paper's model (receive initiation is assumed to
  /// overlap, §6); matching costs are charged at completion time.
  common::Expected<Request*> tag_recv_nb(std::uint32_t bytes);

  /// ucp_worker_progress: one pass. Retries pending sends, then drives
  /// uct_worker_progress; completion callbacks run inside. Returns the
  /// number of UCT completions processed.
  sim::Task<std::uint32_t> progress();

  /// Drives this worker's queued work (busy-post retries, rendezvous
  /// control and data) WITHOUT a UCT pass and without charging the
  /// per-pass UCP cost -- the building block a multi-endpoint progress
  /// engine (coll::Communicator) composes around one shared
  /// uct_worker_progress per pass.
  sim::Task<void> progress_pending();
  /// Work progress_pending() would drive.
  bool has_pending_work() const {
    return !pending_sends_.empty() || !pending_ctrl_.empty() ||
           !rndv_tx_ready_.empty();
  }

  /// RxMux entry point: an RX completion routed to this worker.
  void deliver(const nic::Cqe& cqe) { on_rx_completion(cqe); }
  /// Source rank carried in a message header (-1 for untagged legacy
  /// traffic).
  static int src_rank_of(std::uint64_t user_data) {
    return static_cast<int>((user_data >> 56) & 0x3Full) - 1;
  }

  std::size_t pending_sends() const { return pending_sends_.size(); }
  std::uint64_t sends_completed() const { return sends_completed_; }
  std::uint64_t recvs_completed() const { return recvs_completed_; }
  std::uint64_t rndv_sends() const { return rndv_sends_; }

 private:
  // Control headers ride in the messages' immediate data. Layout:
  // ctrl(2)@62 | src+1(6)@56 | seq(24)@32 | bytes(32)@0. The source
  // field is 0 for untagged (two-node) traffic; tagged workers stamp
  // rank+1, bounding a demultiplexed job at 63 ranks.
  enum class Ctrl : std::uint64_t { kEager = 0, kRts = 1, kCts = 2, kFin = 3 };
  std::uint64_t header(Ctrl c, std::uint64_t seq, std::uint32_t bytes) const {
    const std::uint64_t src =
        src_rank_ < 0 ? 0 : static_cast<std::uint64_t>(src_rank_) + 1;
    return (static_cast<std::uint64_t>(c) << 62) | (src << 56) |
           ((seq & 0xFFFFFFull) << 32) | bytes;
  }
  static Ctrl ctrl_of(std::uint64_t h) { return static_cast<Ctrl>(h >> 62); }
  static std::uint64_t seq_of(std::uint64_t h) {
    return (h >> 32) & 0xFFFFFFull;
  }
  static std::uint32_t bytes_of(std::uint64_t h) {
    return static_cast<std::uint32_t>(h & 0xFFFFFFFFull);
  }

  void on_rx_completion(const nic::Cqe& cqe);
  sim::Task<common::Status> try_post(Request* req);
  /// Completes a receive through the registered callback chain,
  /// propagating the transport status into the request.
  void complete_recv(Request* req,
                     common::Status st = common::Status::kOk);
  /// Drives queued control messages and rendezvous data transfers.
  sim::Task<void> progress_rndv();

  llp::Worker& uct_worker_;
  llp::Endpoint& endpoint_;
  UcpConfig cfg_;
  int src_rank_;
  std::function<void(Request*)> upper_rx_cb_;

  std::deque<std::unique_ptr<Request>> requests_;  // stable ownership
  std::deque<Request*> pending_sends_;
  std::deque<Request*> posted_recvs_;
  std::deque<nic::Cqe> unexpected_;

  // Rendezvous state.
  std::deque<std::uint64_t> pending_ctrl_;            // headers to send
  std::map<std::uint64_t, Request*> rndv_tx_waiting_; // RTS out, await CTS
  struct RndvData {
    std::uint64_t seq;
    std::uint32_t bytes;
    Request* req;
    bool data_sent = false;
  };
  std::deque<RndvData> rndv_tx_ready_;                // CTS in: put + FIN
  std::map<std::uint64_t, Request*> rndv_rx_waiting_; // CTS out, await FIN
  std::deque<std::uint64_t> unexpected_rts_;          // RTS with no recv

  std::uint64_t next_seq_ = 1;
  std::uint64_t next_rndv_seq_ = 1;
  std::uint64_t sends_completed_ = 0;
  std::uint64_t recvs_completed_ = 0;
  std::uint64_t rndv_sends_ = 0;

  Request* new_request(Request::Kind kind, std::uint32_t bytes);
};

}  // namespace bb::hlp
