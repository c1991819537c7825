#include "hlp/mpi.hpp"

namespace bb::hlp {

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

sim::Task<common::Expected<Request*>> MpiComm::isend(std::uint32_t bytes) {
  cpu::Core& c = core();
  prof::Profiler* prof = ucp_.profiler();
  prof::Profiler::Region r_mpi, r_ucp;
  if (prof) r_mpi = prof->begin(prof::Point::kMpiIsend);

  // MPICH: datatype checks, interface selection, request setup.
  c.consume(c.costs().mpich_isend);

  if (prof) r_ucp = prof->begin(prof::Point::kUcpTagSendNb);
  common::Expected<Request*> req = co_await ucp_.tag_send_nb(bytes);
  if (prof) prof->end(r_ucp);

  if (prof) prof->end(r_mpi);
  ++isends_;
  co_return req;
}

common::Expected<Request*> MpiComm::irecv(std::uint32_t bytes) {
  // Receive initiation; its time is assumed to overlap the transfer (§6),
  // which holds in the simulation because the receive is posted before
  // the message is in flight. Charged as the same initiation path.
  cpu::Core& c = core();
  c.consume(c.costs().mpich_isend);
  return ucp_.tag_recv_nb(bytes);
}

sim::Task<common::Status> MpiComm::wait(Request* req) {
  cpu::Core& c = core();
  prof::Profiler* prof = ucp_.profiler();
  prof::Profiler::Region r_wait;
  if (prof) r_wait = prof->begin(prof::Point::kMpiWait);

  // Fixed blocking-wait work: entry, request inspection, loop control.
  c.consume(c.costs().mpich_wait_fixed);

  // The progress engine: loop on ucp_worker_progress until complete.
  co_await progress_until(ucp_, [req] { return req->complete; });

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

sim::Task<common::Status> MpiComm::waitall(const std::vector<Request*>& reqs) {
  cpu::Core& c = core();
  // Per-operation send-progress bookkeeping (HLP_tx_prog): request
  // inspection and cleanup across the window (§6, Post_prog).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    c.consume(c.costs().hlp_tx_prog);
  }
  co_await progress_until(ucp_, [&reqs] { return all_complete(reqs); });
  co_await c.flush();
  co_return first_error(reqs);
}

}  // namespace bb::hlp
