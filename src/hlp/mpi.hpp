#pragma once
// The MPI-like layer (MPICH/CH4-style) on top of UCP (§5).
//
// Implements the subset of MPI semantics the paper's evaluation exercises:
// nonblocking initiation (Isend/Irecv), blocking completion (Wait on one
// request, Waitall on a window), and the blocking progress engine that
// loops on ucp_worker_progress. Per-layer costs are charged where the
// paper measures them: MPICH initiation work inside MPI_Isend above
// ucp_tag_send_nb; the registered MPICH receive callback inside UCP's;
// the fixed blocking-wait work and the post-progress epilogue inside
// MPI_Wait; and the per-operation send-progress bookkeeping inside
// MPI_Waitall (Post_prog, §6).

#include <vector>

#include "hlp/request.hpp"
#include "hlp/ucp.hpp"

namespace bb::hlp {

/// The blocking progress loop under every MPI-style wait: passes over
/// `engine` (one UcpWorker, or a multi-peer coll::Communicator) until
/// `done()`. Each pass checks the watchdog, then either runs the passes
/// that can only poll as a parked waiter (llp::Worker::idle) when the engine
/// has no queued work, or one real progress pass. Returns false once core
/// time passes `deadline` with `done()` still false. Callers charge their
/// own entry and exit costs around it.
template <typename Engine, typename Done>
sim::Task<bool> progress_until(Engine& engine, Done done,
                               TimePs deadline = TimePs::max()) {
  cpu::Core& c = engine.core();
  while (!done()) {
    if (c.virtual_now() > deadline) co_return false;
    if (!engine.has_pending_work() &&
        co_await engine.uct_worker().idle(&c.costs().ucp_progress_iter,
                                          deadline) > 0) {
      continue;
    }
    co_await engine.progress();
  }
  co_return true;
}

class MpiComm {
 public:
  explicit MpiComm(UcpWorker& ucp);

  UcpWorker& ucp() { return ucp_; }
  cpu::Core& core() { return ucp_.core(); }

  /// MPI_Isend of `bytes` to the peer.
  sim::Task<common::Expected<Request*>> isend(std::uint32_t bytes);
  /// MPI_Irecv of `bytes` from the peer.
  common::Expected<Request*> irecv(std::uint32_t bytes);
  /// Blocking MPI_Wait for one request; returns the request's final
  /// disposition (kIoError when it was retired by an error completion).
  sim::Task<common::Status> wait(Request* req);
  /// MPI_Waitall over a window of requests; returns kOk or the first
  /// non-OK request status in window order.
  sim::Task<common::Status> waitall(const std::vector<Request*>& reqs);

  std::uint64_t isends() const { return isends_; }
  std::uint64_t waits() const { return waits_; }

 private:
  UcpWorker& ucp_;
  std::uint64_t isends_ = 0;
  std::uint64_t waits_ = 0;
};

}  // namespace bb::hlp
