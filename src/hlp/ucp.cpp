#include "hlp/ucp.hpp"

#include "common/assert.hpp"

namespace bb::hlp {

UcpWorker::UcpWorker(llp::Worker& uct_worker, llp::Endpoint& endpoint,
                     UcpConfig cfg, int src_rank)
    : uct_worker_(uct_worker),
      endpoint_(endpoint),
      cfg_(cfg),
      src_rank_(src_rank) {
  uct_worker_.set_rx_handler(
      [this](const nic::Cqe& cqe) { on_rx_completion(cqe); });
}

Request* UcpWorker::new_request(Request::Kind kind, std::uint32_t bytes) {
  auto req = std::make_unique<Request>();
  req->kind = kind;
  req->bytes = bytes;
  req->seq = next_seq_++;
  Request* p = req.get();
  requests_.push_back(std::move(req));
  return p;
}

sim::Task<common::Status> UcpWorker::try_post(Request* req) {
  // Tagged (multi-peer) mode stamps the source rank so the receiver's
  // RxMux can route; untagged eager messages keep the legacy user_data 0.
  const std::uint64_t ud =
      src_rank_ < 0 ? 0 : header(Ctrl::kEager, 0, req->bytes);
  const llp::Status st = co_await endpoint_.am_short(req->bytes, ud);
  if (st == llp::Status::kOk) {
    // Inlined short send: locally complete once the payload left the CPU.
    req->pending = false;
    req->complete = true;
    ++sends_completed_;
  }
  co_return st;
}

sim::Task<common::Expected<Request*>> UcpWorker::tag_send_nb(
    std::uint32_t bytes) {
  cpu::Core& c = core();
  c.consume(c.costs().ucp_isend);
  Request* req = new_request(Request::Kind::kSend, bytes);

  if (bytes >= cfg_.rndv_threshold) {
    // Rendezvous: advertise with an RTS; the payload moves after the CTS.
    ++rndv_sends_;
    const std::uint64_t seq = next_rndv_seq_++;
    rndv_tx_waiting_[seq] = req;
    pending_ctrl_.push_back(header(Ctrl::kRts, seq, bytes));
    co_await progress_rndv();
    co_return req;
  }

  if (!pending_sends_.empty() ||
      co_await try_post(req) != common::Status::kOk) {
    // Preserve ordering: once anything pends, later sends pend too.
    req->pending = true;
    pending_sends_.push_back(req);
  }
  co_return req;
}

void UcpWorker::complete_recv(Request* req, common::Status st) {
  cpu::Core& c = core();
  prof::Profiler* prof = uct_worker_.profiler();

  // UCP's registered callback: match, update request state.
  prof::Profiler::Region r1;
  if (prof) r1 = prof->begin(prof::Point::kUcpCallback);
  c.consume(c.costs().ucp_rx_callback);
  req->complete = true;
  req->status = st;
  ++recvs_completed_;
  if (prof) prof->end(r1);

  // The upper (MPICH) registered callback runs inside UCP's (§5).
  if (upper_rx_cb_) upper_rx_cb_(req);
}

common::Expected<Request*> UcpWorker::tag_recv_nb(std::uint32_t bytes) {
  Request* req = new_request(Request::Kind::kRecv, bytes);
  if (!unexpected_.empty()) {
    // Unexpected eager message: the payload already landed.
    const common::Status st = unexpected_.front().status;
    unexpected_.pop_front();
    complete_recv(req, st);
    return req;
  }
  if (!unexpected_rts_.empty()) {
    // Unexpected rendezvous advertisement: answer it now.
    const std::uint64_t h = unexpected_rts_.front();
    unexpected_rts_.pop_front();
    rndv_rx_waiting_[seq_of(h)] = req;
    pending_ctrl_.push_back(header(Ctrl::kCts, seq_of(h), 0));
    return req;
  }
  posted_recvs_.push_back(req);
  return req;
}

void UcpWorker::on_rx_completion(const nic::Cqe& cqe) {
  switch (ctrl_of(cqe.user_data)) {
    case Ctrl::kEager: {
      if (posted_recvs_.empty()) {
        unexpected_.push_back(cqe);
        return;
      }
      Request* req = posted_recvs_.front();
      posted_recvs_.pop_front();
      complete_recv(req, cqe.status);
      return;
    }
    case Ctrl::kRts: {
      // Sender advertised a large message.
      core().consume(core().costs().ucp_progress_iter);  // header decode
      if (posted_recvs_.empty()) {
        unexpected_rts_.push_back(cqe.user_data);
        return;
      }
      Request* req = posted_recvs_.front();
      posted_recvs_.pop_front();
      rndv_rx_waiting_[seq_of(cqe.user_data)] = req;
      pending_ctrl_.push_back(header(Ctrl::kCts, seq_of(cqe.user_data), 0));
      return;
    }
    case Ctrl::kCts: {
      // Receiver is ready: schedule the data put + FIN.
      core().consume(core().costs().ucp_progress_iter);
      auto it = rndv_tx_waiting_.find(seq_of(cqe.user_data));
      BB_ASSERT_MSG(it != rndv_tx_waiting_.end(), "CTS for unknown rndv op");
      rndv_tx_ready_.push_back(
          RndvData{it->first, it->second->bytes, it->second, false});
      rndv_tx_waiting_.erase(it);
      return;
    }
    case Ctrl::kFin: {
      // Data landed in our buffer; complete the receive.
      auto it = rndv_rx_waiting_.find(seq_of(cqe.user_data));
      BB_ASSERT_MSG(it != rndv_rx_waiting_.end(), "FIN for unknown rndv op");
      Request* req = it->second;
      rndv_rx_waiting_.erase(it);
      complete_recv(req, cqe.status);
      return;
    }
  }
  BB_UNREACHABLE("bad control header");
}

sim::Task<void> UcpWorker::progress_rndv() {
  // Control messages first (RTS/CTS/FIN are small sends).
  while (!pending_ctrl_.empty()) {
    const std::uint64_t h = pending_ctrl_.front();
    if (co_await endpoint_.am_short(8, h) != llp::Status::kOk) {
      co_return;  // TxQ full: retried on the next pass
    }
    pending_ctrl_.pop_front();
  }
  // Rendezvous payload transfers: a one-sided put, then the FIN. The
  // fabric delivers in order per sender, so the FIN arrives after the
  // payload is on its way to the receiver's memory.
  while (!rndv_tx_ready_.empty()) {
    RndvData& op = rndv_tx_ready_.front();
    if (!op.data_sent) {
      if (co_await endpoint_.put_short(op.bytes) != llp::Status::kOk) {
        co_return;
      }
      op.data_sent = true;
    }
    if (co_await endpoint_.am_short(8, header(Ctrl::kFin, op.seq, 0)) !=
        llp::Status::kOk) {
      co_return;
    }
    op.req->complete = true;
    ++sends_completed_;
    rndv_tx_ready_.pop_front();
  }
}

sim::Task<void> UcpWorker::progress_pending() {
  while (!pending_sends_.empty()) {
    Request* req = pending_sends_.front();
    if (co_await try_post(req) != common::Status::kOk) break;
    pending_sends_.pop_front();
  }
  if (!pending_ctrl_.empty() || !rndv_tx_ready_.empty()) {
    co_await progress_rndv();
  }
}

sim::Task<std::uint32_t> UcpWorker::progress() {
  cpu::Core& c = core();
  prof::Profiler* prof = uct_worker_.profiler();
  prof::Profiler::Region r;
  if (prof) r = prof->begin(prof::Point::kUcpWorkerProgress);

  c.consume(c.costs().ucp_progress_iter);

  // Retry pending sends (busy posts rescheduled by UCP, §6).
  while (!pending_sends_.empty()) {
    Request* req = pending_sends_.front();
    if (co_await try_post(req) != common::Status::kOk) break;
    pending_sends_.pop_front();
  }

  const std::uint32_t n = co_await uct_worker_.progress();

  // Drive rendezvous state machines unblocked by the completions above.
  if (!pending_ctrl_.empty() || !rndv_tx_ready_.empty()) {
    co_await progress_rndv();
  }

  if (prof) prof->end(r);
  co_return n;
}

}  // namespace bb::hlp
