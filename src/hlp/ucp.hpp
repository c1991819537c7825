#pragma once
// The UCP-like protocol layer (§5): tag send/receive over UCT, pending-
// operation rescheduling, and the registered-callback chain.
//
// One UcpWorker per process, as in UCP: it owns the requests, counters
// and callback chain, and one endpoint (a ucp_ep) per peer holds that
// pair's matching and rendezvous state. RX completions are routed by the
// source rank stamped in the header, and one progress() pass drives every
// endpoint, so a rank blocked on one peer still answers another's RTS.
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
#include <vector>

#include "common/ring.hpp"
#include "common/status.hpp"
#include "cpu/core.hpp"
#include "hlp/request.hpp"
#include "llp/endpoint.hpp"
#include "llp/worker.hpp"
#include "sim/task.hpp"

namespace bb::hlp {

/// The peer of a worker's one untagged endpoint (a two-node stack): its
/// messages carry no source rank.
inline constexpr int kOnlyPeer = -1;

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
  /// `rank` is stamped into every outgoing message header so a receiver
  /// with several peers can route by source. -1 (no rank) keeps the
  /// two-node wire format: eager messages carry user_data 0.
  UcpWorker(llp::Worker& uct_worker, UcpConfig cfg, int rank = -1);
  UcpWorker(const UcpWorker&) = delete;
  UcpWorker& operator=(const UcpWorker&) = delete;

  /// ucp_ep_create: connects `uct_ep` to `peer`, whose messages (stamped
  /// with that source rank) this endpoint receives. A worker without a
  /// rank has exactly one endpoint, to kOnlyPeer.
  void connect(llp::Endpoint& uct_ep, int peer = kOnlyPeer);

  cpu::Core& core() { return uct_worker_.core(); }
  llp::Worker& uct_worker() { return uct_worker_; }
  prof::Profiler* profiler() { return uct_worker_.profiler(); }
  /// The UCT endpoint toward `peer`.
  llp::Endpoint& endpoint(int peer = kOnlyPeer) { return ep(peer).uct; }

  /// Registered upper-layer callback for completed receives (MPICH's).
  /// Runs after the UCP callback, inside progress.
  void set_upper_rx_callback(std::function<void(Request*)> cb) {
    upper_rx_cb_ = std::move(cb);
  }

  /// ucp_tag_send_nb to `peer`: consumes the UCP initiation cost, then
  /// executes the LLP post (or pends the request on a busy post). Returns
  /// the tracking request; initiation itself cannot fail (busy posts
  /// pend), so the Expected is the unified convention, not a present
  /// error path.
  sim::Task<common::Expected<Request*>> tag_send_nb(std::uint32_t bytes,
                                                    int peer = kOnlyPeer);

  /// ucp_tag_recv_nb from `peer`: posts a receive into that endpoint's
  /// matching engine. Costless relative to the paper's model (receive
  /// initiation is assumed to overlap, §6); matching costs are charged at
  /// completion time.
  common::Expected<Request*> tag_recv_nb(std::uint32_t bytes,
                                         int peer = kOnlyPeer);

  /// ucp_worker_progress: one pass. Retries every endpoint's pending
  /// sends, drives uct_worker_progress (completion callbacks run inside),
  /// then every endpoint's rendezvous control and data. Returns the
  /// number of UCT completions processed.
  sim::Task<std::uint32_t> progress();

  /// Whether the next progress() pass has work beyond polling: a pending
  /// send, a queued control message or a rendezvous transfer.
  bool has_pending_work() const;

  /// Sends waiting for a free TxQ slot, over all endpoints.
  std::size_t pending_sends() const;
  std::uint64_t sends_completed() const { return sends_completed_; }
  std::uint64_t recvs_completed() const { return recvs_completed_; }
  std::uint64_t rndv_sends() const { return rndv_sends_; }

 private:
  // Control headers ride in the messages' immediate data. Layout:
  // ctrl(2)@62 | src+1(6)@56 | seq(24)@32 | bytes(32)@0. The source
  // field is 0 for untagged (two-node) traffic; a ranked worker stamps
  // rank+1, bounding a routed job at 63 ranks.
  enum class Ctrl : std::uint64_t { kEager = 0, kRts = 1, kCts = 2, kFin = 3 };
  std::uint64_t header(Ctrl c, std::uint64_t seq, std::uint32_t bytes) const {
    const std::uint64_t src =
        rank_ < 0 ? 0 : static_cast<std::uint64_t>(rank_) + 1;
    return (static_cast<std::uint64_t>(c) << 62) | (src << 56) |
           ((seq & 0xFFFFFFull) << 32) | bytes;
  }
  static Ctrl ctrl_of(std::uint64_t h) { return static_cast<Ctrl>(h >> 62); }
  static int src_rank_of(std::uint64_t h) {
    return static_cast<int>((h >> 56) & 0x3Full) - 1;
  }
  static std::uint64_t seq_of(std::uint64_t h) {
    return (h >> 32) & 0xFFFFFFull;
  }

  struct RndvData {
    std::uint64_t seq;
    std::uint32_t bytes;
    Request* req;
    bool data_sent = false;
  };
  /// The protocol state toward one peer (a ucp_ep).
  struct Ep {
    explicit Ep(llp::Endpoint& e) : uct(e) {}

    llp::Endpoint& uct;
    common::Ring<Request*> pending_sends;
    common::Ring<Request*> posted_recvs;
    common::Ring<nic::Cqe> unexpected;
    // Rendezvous state.
    common::Ring<std::uint64_t> pending_ctrl;          // headers to send
    std::map<std::uint64_t, Request*> rndv_tx_waiting; // RTS out, await CTS
    common::Ring<RndvData> rndv_tx_ready;              // CTS in: put + FIN
    std::map<std::uint64_t, Request*> rndv_rx_waiting; // CTS out, await FIN
    common::Ring<std::uint64_t> unexpected_rts;        // RTS with no recv
    std::uint64_t next_rndv_seq = 1;
  };

  Ep& ep(int peer);
  void on_rx_completion(const nic::Cqe& cqe);
  sim::Task<common::Status> try_post(Ep& e, Request* req);
  /// Completes a receive through the registered callback chain,
  /// propagating the transport status into the request.
  void complete_recv(Request* req,
                     common::Status st = common::Status::kOk);
  /// Drives `e`'s queued control messages and rendezvous data transfers.
  sim::Task<void> progress_rndv(Ep& e);
  Request* new_request(Request::Kind kind, std::uint32_t bytes);

  llp::Worker& uct_worker_;
  UcpConfig cfg_;
  int rank_;
  std::function<void(Request*)> upper_rx_cb_;

  std::deque<Ep> eps_;            // connection order; stable addresses
  std::vector<Ep*> by_src_;       // indexed by source rank + 1
  std::deque<std::unique_ptr<Request>> requests_;  // stable ownership

  std::uint64_t next_seq_ = 1;
  std::uint64_t sends_completed_ = 0;
  std::uint64_t recvs_completed_ = 0;
  std::uint64_t rndv_sends_ = 0;
};

}  // namespace bb::hlp
