#pragma once
// The multi-peer communicator bb::coll schedules run over.
//
// The machine gives every rank one node (core, host memory, PCIe, NIC) and
// one LLP worker; the pt2pt stack above it (UcpWorker -> MpiComm) models
// protocol state toward exactly one peer. A Communicator therefore owns
// one full per-peer stack per remote rank, all demultiplexed over the
// node's single RX CQ by an hlp::RxMux keyed on the source rank stamped
// into message headers, and provides the MPI-style progress engine that
// drives *all* of the rank's peers while blocked -- without it, a
// rendezvous CTS arriving for peer A while the rank waits on peer B
// would never be answered (classic multi-endpoint progress).
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
#include "hlp/mux.hpp"
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

  /// Blocking MPI_Wait: the multi-peer progress engine (all peers'
  /// pending work + one shared uct_worker_progress per pass).
  sim::Task<common::Status> wait(hlp::Request* req);
  /// MPI_Waitall over a window.
  sim::Task<common::Status> waitall(const std::vector<hlp::Request*>& reqs);

  /// One progress pass over every peer stack.
  sim::Task<std::uint32_t> progress();
  /// Whether any peer stack has queued work (busy-post retries,
  /// rendezvous control or data) for the next progress pass.
  bool has_pending_work() const;
  /// The node's LLP worker, shared by every peer stack.
  llp::Worker& uct_worker() { return node_.worker; }

  std::uint64_t isends() const { return isends_; }
  std::uint64_t waits() const { return waits_; }

 private:
  friend class World;
  Communicator(World& world, scenario::Testbed& tb, int rank);

  /// Core time past which a blocking wait gives up (wait_timeout_us from
  /// now; never when the watchdog is off).
  TimePs watchdog_deadline();

  World& world_;
  scenario::Testbed::Node& node_;
  int rank_;
  int size_;
  hlp::RxMux mux_;
  // Indexed by peer rank; the self slot stays empty.
  std::vector<std::unique_ptr<hlp::UcpWorker>> ucp_;
  std::vector<std::unique_ptr<hlp::MpiComm>> mpi_;
  std::uint64_t isends_ = 0;
  std::uint64_t waits_ = 0;
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
