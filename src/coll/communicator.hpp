#pragma once
// The multi-peer communicator bb::coll schedules run over.
//
// The machine gives every rank one node (core, host memory, PCIe, NIC) and
// one LLP worker. A Communicator is that rank's MPI process: one
// hlp::UcpWorker with one endpoint (a fresh QP) per remote rank, and one
// hlp::MpiComm above it. The worker stamps the rank into every message
// header and routes the node's single RX CQ to endpoints by the stamped
// source, and its progress pass drives *all* of the rank's peers while
// blocked -- a rendezvous CTS arriving for peer A while the rank waits on
// peer B is still answered (classic multi-endpoint progress).
//
// Message payload *contents* ride out of band through World's per-pair
// FIFO mailboxes (the simulator's wire carries byte counts only); since
// both the fabric and the UCP matching engine preserve per-pair order,
// the k-th receive from a peer always pairs with the k-th payload, which
// is what lets the collective tests assert reduction results.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "hlp/mpi.hpp"
#include "hlp/ucp.hpp"
#include "scenario/testbed.hpp"

namespace bb::coll {

class World;

class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }
  cpu::Core& core() { return node_.core; }
  scenario::Testbed::Node& node() { return node_; }
  const CollTuning& tuning() const;

  /// MPI_Isend to `peer`; `data` is the logical payload (may be empty for
  /// pure-synchronization messages) delivered through the mailbox.
  sim::Task<hlp::Request*> isend(int peer, std::uint32_t bytes,
                                 std::vector<double> data = {});
  /// MPI_Irecv from `peer`.
  hlp::Request* irecv(int peer, std::uint32_t bytes);
  /// The logical payload of the oldest completed-and-unconsumed receive
  /// from `peer` (FIFO per pair; call after the matching wait returned).
  std::vector<double> take_data(int peer);

  /// Blocking MPI_Wait; gives up with kTimedOut after the tuning's
  /// wait_timeout_us.
  sim::Task<common::Status> wait(hlp::Request* req);
  /// MPI_Waitall over a window, under the same watchdog.
  sim::Task<common::Status> waitall(const std::vector<hlp::Request*>& reqs);

  /// The rank's UCP worker (endpoint(peer) is its QP toward `peer`).
  hlp::UcpWorker& ucp() { return ucp_; }

  std::uint64_t isends() const { return mpi_.isends(); }
  std::uint64_t waits() const { return mpi_.waits(); }

 private:
  friend class World;
  Communicator(World& world, scenario::Testbed& tb, int rank);

  /// Core time after which a blocking wait gives up (wait_timeout_us;
  /// never when the watchdog is off).
  TimePs watchdog_timeout() const;

  World& world_;
  scenario::Testbed::Node& node_;
  int rank_;
  int size_;
  hlp::UcpWorker ucp_;
  hlp::MpiComm mpi_;
};

/// All ranks of one job: builds a Communicator per machine node and the
/// mailbox fabric between them.
class World {
 public:
  explicit World(scenario::Testbed& tb);

  int size() const { return static_cast<int>(comms_.size()); }
  Communicator& comm(int rank) { return *comms_[static_cast<std::size_t>(rank)]; }
  scenario::Testbed& cluster() { return tb_; }

 private:
  friend class Communicator;
  void deliver(int src, int dst, std::vector<double> data) {
    inbox_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(src)]
        .push_back(std::move(data));
  }
  std::vector<double> take(int dst, int src);

  scenario::Testbed& tb_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  // inbox_[dst][src]: payloads in flight or awaiting consumption.
  std::vector<std::vector<std::deque<std::vector<double>>>> inbox_;
};

}  // namespace bb::coll
