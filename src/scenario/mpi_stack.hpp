#pragma once
// The full software stack of one rank of a two-node testbed -- a UCT
// endpoint, the UCP worker above it, and the MPI layer on top -- wired to
// a Testbed node. This is the §5 stack (MPICH/CH4 over UCP over UCT): the
// endpoint signals every `ucp.signal_period`-th send and the worker
// switches to rendezvous at `ucp.rndv_threshold`, both read from the
// testbed's SystemConfig::ucp. A rank with several peers is a
// coll::Communicator: the same worker with one endpoint per peer.

#include <memory>

#include "hlp/mpi.hpp"
#include "hlp/ucp.hpp"
#include "scenario/testbed.hpp"

namespace bb::scenario {

class MpiStack {
 public:
  /// Node `node_id`'s stack toward the other node, on the config's
  /// endpoint template. Messages carry no source rank.
  MpiStack(Testbed& tb, int node_id)
      : node_(tb.node(node_id)),
        ucp_(std::make_unique<hlp::UcpWorker>(node_.worker,
                                              tb.config().ucp)),
        mpi_(std::make_unique<hlp::MpiComm>(*ucp_)) {
    ucp_->connect(tb.add_endpoint(node_id, endpoint_config(tb)));
  }

  /// The endpoint configuration of every MPI stack: the testbed's
  /// template, signalling every `ucp.signal_period`-th send.
  static llp::EndpointConfig endpoint_config(const Testbed& tb) {
    llp::EndpointConfig cfg = tb.config().endpoint;
    cfg.signal_period = tb.config().ucp.signal_period;
    return cfg;
  }

  Testbed::Node& node() { return node_; }
  llp::Endpoint& endpoint() { return ucp_->endpoint(); }
  hlp::UcpWorker& ucp() { return *ucp_; }
  hlp::MpiComm& mpi() { return *mpi_; }

 private:
  Testbed::Node& node_;
  std::unique_ptr<hlp::UcpWorker> ucp_;
  std::unique_ptr<hlp::MpiComm> mpi_;
};

}  // namespace bb::scenario
