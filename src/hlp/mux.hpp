#pragma once
// RX demultiplexer for a node that talks to several peers.
//
// One llp::Worker per node owns the RX CQ, but a UcpWorker models the
// protocol state toward exactly one peer. The mux claims the worker's RX
// handler (from each UcpWorker, which claims it on construction) and
// routes each completion to the UcpWorker registered for the
// source rank stamped in the message header (UcpConfig::src_rank on the
// sending side). This is how a real UCP worker fans one CQ out over many
// connected endpoints' matching state.

#include <vector>

#include "common/assert.hpp"
#include "hlp/ucp.hpp"

namespace bb::hlp {

class RxMux {
 public:
  explicit RxMux(llp::Worker& worker) : worker_(worker) {}
  RxMux(const RxMux&) = delete;
  RxMux& operator=(const RxMux&) = delete;

  /// Routes messages whose header carries `src_rank` to `ucp`, and takes
  /// the RX handler back from it. Every sender into this node must be
  /// tagged (UcpConfig::src_rank >= 0).
  void attach(int src_rank, UcpWorker* ucp) {
    BB_ASSERT(src_rank >= 0 && ucp != nullptr);
    worker_.set_rx_handler([this](const nic::Cqe& cqe) { route(cqe); });
    if (routes_.size() <= static_cast<std::size_t>(src_rank)) {
      routes_.resize(static_cast<std::size_t>(src_rank) + 1, nullptr);
    }
    routes_[static_cast<std::size_t>(src_rank)] = ucp;
  }

 private:
  void route(const nic::Cqe& cqe) {
    const int src = UcpWorker::src_rank_of(cqe.user_data);
    BB_ASSERT_MSG(src >= 0 &&
                      static_cast<std::size_t>(src) < routes_.size() &&
                      routes_[static_cast<std::size_t>(src)] != nullptr,
                  "RX completion from an unregistered source rank");
    routes_[static_cast<std::size_t>(src)]->deliver(cqe);
  }

  llp::Worker& worker_;
  std::vector<UcpWorker*> routes_;
};

}  // namespace bb::hlp
