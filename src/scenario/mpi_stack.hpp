#pragma once
// The full software stack of one rank -- a UCT endpoint, the UCP worker
// above it, and the MPI layer on top -- wired to a Testbed node. This is
// the §5 stack (MPICH/CH4 over UCP over UCT), and the one place that
// assembles it: the endpoint signals every `ucp.signal_period`-th send
// and the worker switches to rendezvous at `ucp.rndv_threshold`, both
// read from the testbed's SystemConfig::ucp.

#include <memory>

#include "hlp/mpi.hpp"
#include "hlp/ucp.hpp"
#include "scenario/testbed.hpp"

namespace bb::scenario {

class MpiStack {
 public:
  /// Node `node_id`'s stack toward the other node of a two-node testbed,
  /// on the config's endpoint template. Messages carry no source rank.
  MpiStack(Testbed& tb, int node_id)
      : MpiStack(tb, node_id,
                 tb.add_endpoint(node_id, endpoint_config(tb)), -1) {}

  /// Node `node_id`'s stack toward `peer`, on a fresh QP. Every message
  /// carries `node_id` as its source rank, so a node with several peers
  /// can demultiplex them (hlp::RxMux).
  MpiStack(Testbed& tb, int node_id, int peer)
      : MpiStack(tb, node_id,
                 tb.add_endpoint(node_id, peer, endpoint_config(tb)),
                 node_id) {}

  Testbed::Node& node() { return node_; }
  llp::Endpoint& endpoint() { return endpoint_; }
  hlp::UcpWorker& ucp() { return *ucp_; }
  const hlp::UcpWorker& ucp() const { return *ucp_; }
  hlp::MpiComm& mpi() { return *mpi_; }

 private:
  MpiStack(Testbed& tb, int node_id, llp::Endpoint& endpoint, int src_rank)
      : node_(tb.node(node_id)),
        endpoint_(endpoint),
        ucp_(std::make_unique<hlp::UcpWorker>(node_.worker, endpoint_,
                                              tb.config().ucp, src_rank)),
        mpi_(std::make_unique<hlp::MpiComm>(*ucp_)) {}

  static llp::EndpointConfig endpoint_config(const Testbed& tb) {
    llp::EndpointConfig cfg = tb.config().endpoint;
    cfg.signal_period = tb.config().ucp.signal_period;
    return cfg;
  }

  Testbed::Node& node_;
  llp::Endpoint& endpoint_;
  std::unique_ptr<hlp::UcpWorker> ucp_;
  std::unique_ptr<hlp::MpiComm> mpi_;
};

}  // namespace bb::scenario
