#include "hlp/mpi.hpp"

namespace bb::hlp {

namespace {

/// The blocking progress loop under both waits: passes over `ucp` until
/// `done()`. Each pass checks the watchdog, then either runs the passes
/// that can only poll as a parked waiter (llp::Worker::idle) when the
/// worker has no queued work, or one real progress pass. Returns false
/// once `timeout` of core time has passed with `done()` still false.
/// Callers charge their own entry and exit costs around it.
template <typename Done>
sim::Task<bool> progress_until(UcpWorker& ucp, Done done, TimePs timeout) {
  cpu::Core& c = ucp.core();
  const TimePs deadline =
      timeout == TimePs::max() ? timeout : c.virtual_now() + timeout;
  while (!done()) {
    if (c.virtual_now() > deadline) co_return false;
    if (!ucp.has_pending_work() &&
        co_await ucp.uct_worker().idle(&c.costs().ucp_progress_iter,
                                       deadline) > 0) {
      continue;
    }
    co_await ucp.progress();
  }
  co_return true;
}

}  // namespace

MpiComm::MpiComm(UcpWorker& ucp) : ucp_(ucp) {
  // Register the MPICH completion callback for receives; it runs inside
  // the UCP callback, before uct_worker_progress returns (§5).
  ucp_.set_upper_rx_callback([this](Request*) {
    cpu::Core& c = core();
    prof::Profiler* prof = ucp_.profiler();
    prof::Profiler::Region r;
    if (prof) r = prof->begin(prof::Point::kMpichCallback);
    c.consume(c.costs().mpich_rx_callback);
    if (prof) prof->end(r);
  });
}

sim::Task<common::Expected<Request*>> MpiComm::isend(std::uint32_t bytes,
                                                     int peer) {
  cpu::Core& c = core();
  prof::Profiler* prof = ucp_.profiler();
  prof::Profiler::Region r_mpi, r_ucp;
  if (prof) r_mpi = prof->begin(prof::Point::kMpiIsend);
  ++isends_;

  // MPICH: datatype checks, interface selection, request setup.
  c.consume(c.costs().mpich_isend);

  if (prof) r_ucp = prof->begin(prof::Point::kUcpTagSendNb);
  common::Expected<Request*> req = co_await ucp_.tag_send_nb(bytes, peer);
  if (prof) prof->end(r_ucp);

  if (prof) prof->end(r_mpi);
  co_return req;
}

common::Expected<Request*> MpiComm::irecv(std::uint32_t bytes, int peer) {
  // Receive initiation; its time is assumed to overlap the transfer (§6),
  // which holds in the simulation because the receive is posted before
  // the message is in flight. Charged as the same initiation path.
  cpu::Core& c = core();
  c.consume(c.costs().mpich_isend);
  return ucp_.tag_recv_nb(bytes, peer);
}

sim::Task<common::Status> MpiComm::wait(Request* req, TimePs timeout) {
  cpu::Core& c = core();
  prof::Profiler* prof = ucp_.profiler();
  prof::Profiler::Region r_wait;
  if (prof) r_wait = prof->begin(prof::Point::kMpiWait);

  // Fixed blocking-wait work: entry, request inspection, loop control.
  c.consume(c.costs().mpich_wait_fixed);

  // The progress engine: loop on ucp_worker_progress until complete.
  if (!co_await progress_until(
          ucp_, [req] { return req->complete; }, timeout)) {
    // Watchdog: a diagnosable abort instead of a hang (the request stays
    // incomplete; the transport underneath it is stuck or flushed).
    if (prof) prof->end(r_wait);
    co_await c.flush();
    co_return common::Status::kTimedOut;
  }

  // MPICH work after the successful ucp_worker_progress returns.
  prof::Profiler::Region r_after;
  if (prof) r_after = prof->begin(prof::Point::kMpichAfterProgress);
  c.consume(c.costs().mpich_after_progress);
  if (prof) prof->end(r_after);

  if (prof) prof->end(r_wait);
  ++waits_;
  co_await c.flush();
  co_return req->status;
}

sim::Task<common::Status> MpiComm::waitall(const std::vector<Request*>& reqs,
                                           TimePs timeout) {
  cpu::Core& c = core();
  // Per-operation send-progress bookkeeping (HLP_tx_prog): request
  // inspection and cleanup across the window (§6, Post_prog).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    c.consume(c.costs().hlp_tx_prog);
  }
  const bool done = co_await progress_until(
      ucp_, [&reqs] { return all_complete(reqs); }, timeout);
  co_await c.flush();
  co_return done ? first_error(reqs) : common::Status::kTimedOut;
}

}  // namespace bb::hlp
