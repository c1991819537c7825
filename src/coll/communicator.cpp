#include "coll/communicator.hpp"

#include "common/assert.hpp"

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
      mux_(node_.worker) {
  stacks_.resize(static_cast<std::size_t>(size_));
  for (int peer = 0; peer < size_; ++peer) {
    if (peer == rank_) continue;
    scenario::MpiStack& s =
        stacks_[static_cast<std::size_t>(peer)].emplace(tb, rank_, peer);
    mux_.attach(peer, &s.ucp());
  }
}

const CollTuning& Communicator::tuning() const {
  return world_.cluster().config().coll;
}

sim::Task<hlp::Request*> Communicator::isend(int peer, std::uint32_t bytes,
                                             std::vector<double> data) {
  BB_ASSERT(peer >= 0 && peer < size_ && peer != rank_);
  world_.deliver(rank_, peer, std::move(data));
  ++isends_;
  common::Expected<hlp::Request*> r =
      co_await stack(peer).mpi().isend(bytes);
  co_return r.value();
}

hlp::Request* Communicator::irecv(int peer, std::uint32_t bytes) {
  return stack(peer).mpi().irecv(bytes).value();
}

std::vector<double> Communicator::take_data(int peer) {
  return world_.take(rank_, peer);
}

sim::Task<std::uint32_t> Communicator::progress() {
  // One UCP pass for the whole communicator: drive every peer's queued
  // work (busy-post retries, rendezvous control/data), then one shared
  // uct_worker_progress whose completions the mux fans back out, then
  // the state machines those completions unblocked.
  cpu::Core& c = core();
  c.consume(c.costs().ucp_progress_iter);
  for (auto& s : stacks_) {
    if (s && s->ucp().has_pending_work()) co_await s->ucp().progress_pending();
  }
  const std::uint32_t n = co_await node_.worker.progress();
  for (auto& s : stacks_) {
    if (s && s->ucp().has_pending_work()) co_await s->ucp().progress_pending();
  }
  co_return n;
}

TimePs Communicator::watchdog_deadline() {
  const double timeout_us = tuning().wait_timeout_us;
  if (timeout_us <= 0.0) return TimePs::max();
  return core().virtual_now() + TimePs::from_ns(timeout_us * 1000.0);
}

bool Communicator::has_pending_work() const {
  for (const auto& s : stacks_) {
    if (s && s->ucp().has_pending_work()) return true;
  }
  return false;
}

sim::Task<common::Status> Communicator::wait(hlp::Request* req) {
  cpu::Core& c = core();
  // Same cost structure as the pt2pt MpiComm::wait; the progress engine
  // spans all peers.
  c.consume(c.costs().mpich_wait_fixed);
  const bool done = co_await hlp::progress_until(
      *this, [req] { return req->complete; }, watchdog_deadline());
  if (!done) {
    // Watchdog: diagnosable abort instead of a hang (the request stays
    // incomplete; the transport underneath it is stuck or flushed).
    co_await c.flush();
    co_return common::Status::kTimedOut;
  }
  c.consume(c.costs().mpich_after_progress);
  ++waits_;
  co_await c.flush();
  co_return req->status;
}

sim::Task<common::Status> Communicator::waitall(
    const std::vector<hlp::Request*>& reqs) {
  cpu::Core& c = core();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    c.consume(c.costs().hlp_tx_prog);
  }
  const bool done = co_await hlp::progress_until(
      *this, [&reqs] { return hlp::all_complete(reqs); }, watchdog_deadline());
  if (!done) {
    co_await c.flush();
    co_return common::Status::kTimedOut;
  }
  co_await c.flush();
  co_return hlp::first_error(reqs);
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
