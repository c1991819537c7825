#include "nic/queues.hpp"

#include "common/assert.hpp"

namespace bb::nic {

std::optional<Cqe> CqRing::poll(TimePs now) {
  if (entries_.empty() || entries_.front().visible_at > now) {
    return std::nullopt;
  }
  Cqe e = entries_.front();
  entries_.pop();
  return e;
}

std::size_t CqRing::visible_count(TimePs now) const {
  std::size_t n = 0;
  // Entries are pushed in time order.
  while (n < entries_.size() && entries_[n].visible_at <= now) ++n;
  return n;
}

void HostMemory::bind_tx_cq(std::uint32_t qp, CqRing& cq) {
  if (qp >= tx_cq_of_.size()) tx_cq_of_.resize(qp + 1, nullptr);
  BB_ASSERT_MSG(tx_cq_of_[qp] == nullptr, "a QP bound to two TX CQs");
  tx_cq_of_[qp] = &cq;
}

std::size_t HostMemory::staged_count(std::uint32_t qp) const {
  return qp < staged_.size() ? staged_[qp].size() : 0;
}

std::optional<pcie::WireMd> HostMemory::take_staged(std::uint32_t qp) {
  if (staged_count(qp) == 0) return std::nullopt;
  const pcie::WireMd md = staged_[qp].front();
  staged_[qp].pop();
  return md;
}

void HostMemory::commit_write(const pcie::Tlp& tlp, TimePs visible_at) {
  // Error forwarding: a poisoned DMA write still lands (the RC commits
  // it), but any completion it carries is flagged as an error.
  const common::Status st =
      tlp.poisoned ? common::Status::kIoError : common::Status::kOk;
  if (const auto* cqe = std::get_if<pcie::CqeWrite>(&tlp.content)) {
    const common::Status cqe_st =
        cqe->status != common::Status::kOk ? cqe->status : st;
    BB_ASSERT_MSG(cqe->qp < tx_cq_of_.size() && tx_cq_of_[cqe->qp] != nullptr,
                  "send completion for a QP bound to no TX CQ");
    tx_cq_of_[cqe->qp]->push(
        Cqe{cqe->msg_id, cqe->completes, 0, 0, visible_at, cqe_st, cqe->qp});
  } else if (const auto* pl = std::get_if<pcie::PayloadWrite>(&tlp.content)) {
    payload_bytes_delivered_ += pl->bytes;
    ++payload_writes_;
    if (pl->op == pcie::WireOp::kSend) {
      // Send-receive: the payload write carries the receive completion
      // (mini-CQE); the posted receive completes when the write is visible.
      rx_cq_.push(Cqe{pl->msg_id, 1, pl->user_data, pl->bytes, visible_at, st});
    }
  } else {
    BB_UNREACHABLE("unexpected memory write content");
  }
  if (commit_hook_) commit_hook_();
}

pcie::ReadCompletion HostMemory::serve_read(const pcie::ReadRequest& req) {
  pcie::ReadCompletion rc;
  rc.what = req.what;
  rc.bytes = req.bytes;
  if (req.what == pcie::ReadRequest::What::kDescriptor) {
    const std::optional<pcie::WireMd> md = take_staged(req.qp);
    BB_ASSERT_MSG(md, "NIC fetched a descriptor that was not staged");
    rc.md = *md;
    rc.bytes = 64;  // a device descriptor slot
  }
  return rc;
}

}  // namespace bb::nic
