#include "hlp/ucp.hpp"

#include "common/assert.hpp"

namespace bb::hlp {

UcpWorker::UcpWorker(llp::Worker& uct_worker, UcpConfig cfg, int rank)
    : uct_worker_(uct_worker), cfg_(cfg), rank_(rank) {
  uct_worker_.set_rx_handler(
      [this](const nic::Cqe& cqe) { on_rx_completion(cqe); });
}

void UcpWorker::connect(llp::Endpoint& uct_ep, int peer) {
  BB_ASSERT_MSG(rank_ < 0 ? peer == kOnlyPeer : peer >= 0 && peer != rank_,
                "a ranked worker connects to other ranks, an unranked one "
                "to kOnlyPeer");
  const auto slot = static_cast<std::size_t>(peer + 1);
  if (by_src_.size() <= slot) by_src_.resize(slot + 1, nullptr);
  BB_ASSERT_MSG(by_src_[slot] == nullptr, "peer already connected");
  by_src_[slot] = &eps_.emplace_back(uct_ep);
}

UcpWorker::Ep& UcpWorker::ep(int peer) {
  const auto slot = static_cast<std::size_t>(peer + 1);
  BB_ASSERT_MSG(slot < by_src_.size() && by_src_[slot] != nullptr,
                "no endpoint to this peer");
  return *by_src_[slot];
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

sim::Task<common::Status> UcpWorker::try_post(Ep& e, Request* req) {
  // A ranked worker stamps its source rank so the receiver can route;
  // untagged eager messages keep user_data 0.
  const std::uint64_t ud =
      rank_ < 0 ? 0 : header(Ctrl::kEager, 0, req->bytes);
  const llp::Status st = co_await e.uct.am_short(req->bytes, ud);
  if (st == llp::Status::kOk) {
    // Inlined short send: locally complete once the payload left the CPU.
    req->pending = false;
    req->complete = true;
    ++sends_completed_;
  }
  co_return st;
}

sim::Task<common::Expected<Request*>> UcpWorker::tag_send_nb(
    std::uint32_t bytes, int peer) {
  cpu::Core& c = core();
  c.consume(c.costs().ucp_isend);
  Ep& e = ep(peer);
  Request* req = new_request(Request::Kind::kSend, bytes);

  if (bytes >= cfg_.rndv_threshold) {
    // Rendezvous: advertise with an RTS; the payload moves after the CTS.
    ++rndv_sends_;
    const std::uint64_t seq = e.next_rndv_seq++;
    e.rndv_tx_waiting[seq] = req;
    e.pending_ctrl.push(header(Ctrl::kRts, seq, bytes));
    co_await progress_rndv(e);
    co_return req;
  }

  if (!e.pending_sends.empty() ||
      co_await try_post(e, req) != common::Status::kOk) {
    // Preserve ordering: once anything pends, later sends pend too.
    req->pending = true;
    e.pending_sends.push(req);
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

common::Expected<Request*> UcpWorker::tag_recv_nb(std::uint32_t bytes,
                                                  int peer) {
  Ep& e = ep(peer);
  Request* req = new_request(Request::Kind::kRecv, bytes);
  if (!e.unexpected.empty()) {
    // Unexpected eager message: the payload already landed.
    const common::Status st = e.unexpected.front().status;
    e.unexpected.pop();
    complete_recv(req, st);
    return req;
  }
  if (!e.unexpected_rts.empty()) {
    // Unexpected rendezvous advertisement: answer it now.
    const std::uint64_t h = e.unexpected_rts.front();
    e.unexpected_rts.pop();
    e.rndv_rx_waiting[seq_of(h)] = req;
    e.pending_ctrl.push(header(Ctrl::kCts, seq_of(h), 0));
    return req;
  }
  e.posted_recvs.push(req);
  return req;
}

void UcpWorker::on_rx_completion(const nic::Cqe& cqe) {
  Ep& e = ep(src_rank_of(cqe.user_data));
  switch (ctrl_of(cqe.user_data)) {
    case Ctrl::kEager: {
      if (e.posted_recvs.empty()) {
        e.unexpected.push(cqe);
        return;
      }
      Request* req = e.posted_recvs.front();
      e.posted_recvs.pop();
      complete_recv(req, cqe.status);
      return;
    }
    case Ctrl::kRts: {
      // Sender advertised a large message.
      core().consume(core().costs().ucp_progress_iter);  // header decode
      if (e.posted_recvs.empty()) {
        e.unexpected_rts.push(cqe.user_data);
        return;
      }
      Request* req = e.posted_recvs.front();
      e.posted_recvs.pop();
      e.rndv_rx_waiting[seq_of(cqe.user_data)] = req;
      e.pending_ctrl.push(header(Ctrl::kCts, seq_of(cqe.user_data), 0));
      return;
    }
    case Ctrl::kCts: {
      // Receiver is ready: schedule the data put + FIN.
      core().consume(core().costs().ucp_progress_iter);
      auto it = e.rndv_tx_waiting.find(seq_of(cqe.user_data));
      BB_ASSERT_MSG(it != e.rndv_tx_waiting.end(), "CTS for unknown rndv op");
      e.rndv_tx_ready.push(
          RndvData{it->first, it->second->bytes, it->second, false});
      e.rndv_tx_waiting.erase(it);
      return;
    }
    case Ctrl::kFin: {
      // Data landed in our buffer; complete the receive.
      auto it = e.rndv_rx_waiting.find(seq_of(cqe.user_data));
      BB_ASSERT_MSG(it != e.rndv_rx_waiting.end(), "FIN for unknown rndv op");
      Request* req = it->second;
      e.rndv_rx_waiting.erase(it);
      complete_recv(req, cqe.status);
      return;
    }
  }
  BB_UNREACHABLE("bad control header");
}

sim::Task<void> UcpWorker::progress_rndv(Ep& e) {
  // Control messages first (RTS/CTS/FIN are small sends).
  while (!e.pending_ctrl.empty()) {
    const std::uint64_t h = e.pending_ctrl.front();
    if (co_await e.uct.am_short(8, h) != llp::Status::kOk) {
      co_return;  // TxQ full: retried on the next pass
    }
    e.pending_ctrl.pop();
  }
  // Rendezvous payload transfers: a one-sided put, then the FIN. The
  // fabric delivers in order per sender, so the FIN arrives after the
  // payload is on its way to the receiver's memory. A CTS handled during
  // a post may grow the ring, so the head is copied and written back by
  // index, never held by reference across a suspension.
  while (!e.rndv_tx_ready.empty()) {
    const RndvData op = e.rndv_tx_ready.front();
    if (!op.data_sent) {
      if (co_await e.uct.put_short(op.bytes) != llp::Status::kOk) {
        co_return;
      }
      e.rndv_tx_ready.front().data_sent = true;
    }
    if (co_await e.uct.am_short(8, header(Ctrl::kFin, op.seq, 0)) !=
        llp::Status::kOk) {
      co_return;
    }
    op.req->complete = true;
    ++sends_completed_;
    e.rndv_tx_ready.pop();
  }
}

bool UcpWorker::has_pending_work() const {
  for (const Ep& e : eps_) {
    if (!e.pending_sends.empty() || !e.pending_ctrl.empty() ||
        !e.rndv_tx_ready.empty()) {
      return true;
    }
  }
  return false;
}

std::size_t UcpWorker::pending_sends() const {
  std::size_t n = 0;
  for (const Ep& e : eps_) n += e.pending_sends.size();
  return n;
}

sim::Task<std::uint32_t> UcpWorker::progress() {
  cpu::Core& c = core();
  prof::Profiler* prof = uct_worker_.profiler();
  prof::Profiler::Region r;
  if (prof) r = prof->begin(prof::Point::kUcpWorkerProgress);

  c.consume(c.costs().ucp_progress_iter);

  // Retry pending sends (busy posts rescheduled by UCP, §6).
  for (Ep& e : eps_) {
    while (!e.pending_sends.empty()) {
      if (co_await try_post(e, e.pending_sends.front()) !=
          common::Status::kOk) {
        break;
      }
      e.pending_sends.pop();
    }
  }

  const std::uint32_t n = co_await uct_worker_.progress();

  // Drive rendezvous state machines unblocked by the completions above.
  for (Ep& e : eps_) {
    if (!e.pending_ctrl.empty() || !e.rndv_tx_ready.empty()) {
      co_await progress_rndv(e);
    }
  }

  if (prof) prof->end(r);
  co_return n;
}

}  // namespace bb::hlp
