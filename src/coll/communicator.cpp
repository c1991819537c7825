#include "coll/communicator.hpp"

#include "common/assert.hpp"
#include "scenario/mpi_stack.hpp"

namespace bb::coll {

namespace {

/// Receive WQEs pre-posted per node (collectives keep the RQ fed the way
/// MPI implementations do).
constexpr std::uint32_t kPrepostedReceives = 1u << 16;

}  // namespace

Communicator::Communicator(World& world, scenario::Testbed& tb, int rank)
    : world_(world),
      node_(tb.node(rank)),
      rank_(rank),
      size_(tb.node_count()),
      ucp_(node_.worker, tb.config().ucp, rank),
      mpi_(ucp_) {
  for (int peer = 0; peer < size_; ++peer) {
    if (peer == rank_) continue;
    ucp_.connect(
        tb.add_endpoint(rank_, peer, scenario::MpiStack::endpoint_config(tb)),
        peer);
  }
}

const CollTuning& Communicator::tuning() const {
  return world_.cluster().config().coll;
}

sim::Task<hlp::Request*> Communicator::isend(int peer, std::uint32_t bytes,
                                             std::vector<double> data) {
  BB_ASSERT(peer >= 0 && peer < size_ && peer != rank_);
  world_.deliver(rank_, peer, std::move(data));
  common::Expected<hlp::Request*> r = co_await mpi_.isend(bytes, peer);
  co_return r.value();
}

hlp::Request* Communicator::irecv(int peer, std::uint32_t bytes) {
  return mpi_.irecv(bytes, peer).value();
}

std::vector<double> Communicator::take_data(int peer) {
  return world_.take(rank_, peer);
}

TimePs Communicator::watchdog_timeout() const {
  const double timeout_us = tuning().wait_timeout_us;
  if (timeout_us <= 0.0) return TimePs::max();
  return TimePs::from_ns(timeout_us * 1000.0);
}

sim::Task<common::Status> Communicator::wait(hlp::Request* req) {
  return mpi_.wait(req, watchdog_timeout());
}

sim::Task<common::Status> Communicator::waitall(
    const std::vector<hlp::Request*>& reqs) {
  return mpi_.waitall(reqs, watchdog_timeout());
}

World::World(scenario::Testbed& tb) : tb_(tb) {
  const int n = tb.node_count();
  inbox_.resize(static_cast<std::size_t>(n));
  for (auto& row : inbox_) row.resize(static_cast<std::size_t>(n));
  comms_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    tb.node(r).nic.post_receives(kPrepostedReceives);
    comms_.push_back(
        std::unique_ptr<Communicator>(new Communicator(*this, tb, r)));
  }
}

std::vector<double> World::take(int dst, int src) {
  auto& q =
      inbox_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(src)];
  BB_ASSERT_MSG(!q.empty(), "take_data with no unconsumed receive");
  std::vector<double> d = std::move(q.front());
  q.pop_front();
  return d;
}

}  // namespace bb::coll
