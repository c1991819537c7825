#include "llp/worker.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "llp/endpoint.hpp"
#include "scenario/testbed.hpp"

namespace bb::llp {
namespace {

using scenario::Testbed;
using namespace bb::literals;

TEST(Worker, EmptyProgressCostsEmptyPass) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n) -> sim::Task<void> {
    const std::uint32_t got = co_await n.worker.progress();
    EXPECT_EQ(got, 0u);
    EXPECT_NEAR(n.core.virtual_now().to_ns(),
                n.core.costs().llp_empty_progress.mean_ns, 1e-6);
  }(tb.node(0)));
  tb.sim().run();
}

TEST(Worker, EachDequeuedCqeCostsLlpProg) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  // Inject two CQEs directly into the TX CQ at time zero.
  const std::uint32_t qp = ep.config().qp;
  tb.node(0).worker.tx_cq().push(
      nic::Cqe{.msg_id = 1, .visible_at = 0_ns, .qp = qp});
  tb.node(0).worker.tx_cq().push(
      nic::Cqe{.msg_id = 2, .visible_at = 0_ns, .qp = qp});
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    // Make the endpoint accounting consistent with the injected CQEs.
    (void)co_await e.put_short(8);
    (void)co_await e.put_short(8);
    const double t0 = n.core.virtual_now().to_ns();
    const std::uint32_t got = co_await n.worker.progress();
    EXPECT_EQ(got, 2u);
    EXPECT_NEAR(n.core.virtual_now().to_ns() - t0, 2 * 61.63, 1e-6);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, BatchLimitBoundsDequeues) {
  auto cfg = scenario::presets::deterministic();
  cfg.llp_worker.batch_limit = 16;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  for (int i = 0; i < 5; ++i) {
    tb.node(0).worker.tx_cq().push(
        nic::Cqe{.msg_id = static_cast<std::uint64_t>(i + 1),
                 .visible_at = 0_ns,
                 .qp = ep.config().qp});
  }
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) (void)co_await e.put_short(8);
    EXPECT_EQ(co_await n.worker.progress(2), 2u);
    EXPECT_EQ(co_await n.worker.progress(2), 2u);
    EXPECT_EQ(co_await n.worker.progress(2), 1u);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, RxHandlerInvokedPerReceiveCompletion) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  std::vector<std::uint64_t> seen;
  tb.node(0).worker.set_rx_handler(
      [&](const nic::Cqe& c) { seen.push_back(c.msg_id); });
  tb.node(0).host.rx_cq().push(nic::Cqe{21, 1, 0, 0, 0_ns});
  tb.node(0).host.rx_cq().push(nic::Cqe{22, 1, 0, 0, 0_ns});
  tb.sim().spawn([](Testbed::Node& n) -> sim::Task<void> {
    (void)co_await n.worker.progress();
  }(tb.node(0)));
  tb.sim().run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{21, 22}));
  EXPECT_EQ(tb.node(0).worker.rx_completions(), 2u);
}

TEST(Worker, InvisibleCqesNotDequeued) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.node(0).worker.tx_cq().push(
      nic::Cqe{.msg_id = 1, .visible_at = 10_us, .qp = ep.config().qp});
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    (void)co_await e.put_short(8);
    EXPECT_EQ(co_await n.worker.progress(), 0u);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, MsgIdsAreUniqueAndMonotonic) {
  Testbed tb(scenario::presets::deterministic());
  auto& w = tb.node(0).worker;
  const auto a = w.alloc_msg_id();
  const auto b = w.alloc_msg_id();
  EXPECT_LT(a, b);
}

// -- Worker::idle: a blocking wait's empty passes as a parked waiter ----

sim::Task<void> idle_once(Worker& w, std::uint64_t& passes, TimePs& at,
                          TimePs deadline = TimePs::max()) {
  passes = co_await w.idle(nullptr, deadline);
  at = w.core().virtual_now();
}

TEST(WorkerIdle, ReadyAtOnceWhenTheRxCqHoldsAnEntry) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  tb.node(0).host.rx_cq().push(nic::Cqe{1, 1, 0, 0, 0_ns});
  std::uint64_t passes = 99;
  TimePs at;
  tb.sim().set_event_limit(100);  // a wrong idle() spins forever
  tb.sim().spawn(idle_once(tb.node(0).worker, passes, at));
  tb.sim().run();
  EXPECT_EQ(passes, 0u);
  EXPECT_EQ(at, TimePs::zero());
  EXPECT_EQ(tb.node(0).core.busy_time(), TimePs::zero());
}

TEST(WorkerIdle, ReadyAtOnceWhenAnyTxCqHoldsAnEntry) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  auto& second = tb.add_endpoint(0, 1);
  tb.node(0).worker.tx_cq().push(
      nic::Cqe{.msg_id = 1, .visible_at = 0_ns, .qp = second.config().qp});
  std::uint64_t passes = 99;
  TimePs at;
  tb.sim().set_event_limit(100);  // a wrong idle() spins forever
  tb.sim().spawn(idle_once(tb.node(0).worker, passes, at));
  tb.sim().run();
  EXPECT_EQ(passes, 0u);
  EXPECT_EQ(tb.node(0).core.busy_time(), TimePs::zero());
}

TEST(WorkerIdle, ResumesOnTheFirstPassAfterACommit) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  Testbed::Node& n = tb.node(0);
  const TimePs pass = n.core.costs().llp_empty_progress.mean();
  const TimePs commit = pass * 10 + pass / 2;
  tb.sim().call_at(commit, [&n, commit] {
    n.host.rx_cq().push(nic::Cqe{7, 1, 0, 0, commit});
  });
  std::uint64_t passes = 0;
  TimePs at;
  tb.sim().spawn(idle_once(n.worker, passes, at));
  tb.sim().run();
  EXPECT_EQ(passes, 11u);
  EXPECT_EQ(at, pass * 11);
  EXPECT_EQ(n.host.rx_cq().depth(), 1u);  // left for the real pass
}

TEST(WorkerIdle, StopsOncePastTheDeadline) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  const TimePs pass = tb.node(0).core.costs().llp_empty_progress.mean();
  std::uint64_t passes = 0;
  TimePs at;
  tb.sim().spawn(
      idle_once(tb.node(0).worker, passes, at, pass * 5 + pass / 2));
  tb.sim().run();
  EXPECT_EQ(passes, 6u);
  EXPECT_EQ(at, pass * 6);
}

TEST(WorkerIdle, RunsNoPassWhileAPassIsProfiled) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  tb.node(0).profiler.select({prof::Point::kUctWorkerProgress});
  std::uint64_t passes = 99;
  TimePs at;
  tb.sim().set_event_limit(100);  // a wrong idle() spins forever
  tb.sim().spawn(idle_once(tb.node(0).worker, passes, at));
  tb.sim().run();
  EXPECT_EQ(passes, 0u);
  EXPECT_EQ(tb.node(0).core.busy_time(), TimePs::zero());
}

// A UCP-style wait loop (upper-layer pass cost, then uct progress) with
// and without idle(): same events, same times, same RNG draws.
sim::Task<void> spin_until_completion(Testbed::Node& n, bool idle) {
  const cpu::CostSpec& upper = n.core.costs().ucp_progress_iter;
  for (;;) {
    if (idle) co_await n.worker.idle(&upper);
    n.core.consume(upper);
    if (co_await n.worker.progress() > 0) break;
  }
}

TEST(WorkerIdle, MatchesRealProgressPassesExactly) {
  const auto run = [](bool idle) {
    Testbed tb(scenario::presets::thunderx2_cx4());
    tb.add_endpoint(0);
    Testbed::Node& n = tb.node(0);
    const TimePs commit = TimePs::from_ns(2345.6);
    tb.sim().call_at(commit, [&n, commit] {
      n.host.rx_cq().push(nic::Cqe{7, 1, 0, 0, commit});
    });
    tb.sim().spawn(spin_until_completion(n, idle));
    tb.sim().run();
    return std::tuple{tb.sim().events_processed(), tb.sim().now().ps(),
                      n.core.busy_time().ps(), n.core.rng().next_u64()};
  };
  const auto real = run(false);
  EXPECT_GT(std::get<0>(real), 10u);
  EXPECT_EQ(run(true), real);
}

// -- One TX CQ per worker: each CQE names its QP ------------------------

sim::Task<void> drain(Worker& w, const std::vector<Endpoint*>& eps) {
  const auto busy = [&eps] {
    for (const Endpoint* e : eps) {
      if (e->outstanding() > 0) return true;
    }
    return false;
  };
  while (busy()) co_await w.progress();
}

TEST(Worker, SharedTxCqRoutesEachCqeToItsEndpoint) {
  Testbed tb(scenario::presets::deterministic());
  std::vector<Endpoint*> eps;
  for (const std::uint32_t period : {1u, 4u, 8u}) {
    llp::EndpointConfig c = tb.config().endpoint;
    c.signal_period = period;
    eps.push_back(&tb.add_endpoint(0, 1, c));
  }
  Testbed::Node& n = tb.node(0);
  tb.sim().spawn([](Testbed::Node& nd,
                    std::vector<Endpoint*> e) -> sim::Task<void> {
    // Eight rounds of one put per endpoint: 8 + 2 + 1 signalled CQEs.
    for (int round = 0; round < 8; ++round) {
      for (Endpoint* ep : e) (void)co_await ep->put_short(8);
    }
    co_await drain(nd.worker, e);
    EXPECT_EQ(nd.worker.tx_cqes_polled(), 11u);
    EXPECT_EQ(nd.worker.tx_ops_retired(), 24u);
    for (const Endpoint* ep : e) EXPECT_EQ(ep->outstanding(), 0u);

    // Eight more rounds, then reset the middle QP with ops in flight:
    // they retire with flush errors, and only that endpoint sees them.
    for (int round = 0; round < 8; ++round) {
      for (Endpoint* ep : e) (void)co_await ep->put_short(8);
    }
    nd.nic.qp_reset(e[1]->config().qp);
    co_await drain(nd.worker, e);
  }(n, eps));
  tb.sim().run();
  for (const Endpoint* ep : eps) EXPECT_EQ(ep->outstanding(), 0u);
  EXPECT_EQ(eps[0]->tx_errors(), 0u);
  EXPECT_EQ(eps[2]->tx_errors(), 0u);
  // Each op still unacked at the reset retires with a flush CQE (the
  // acked but unsignalled ones ride the first), all on that endpoint.
  EXPECT_GT(eps[1]->tx_flushed(), 0u);
  EXPECT_EQ(eps[1]->tx_errors(), eps[1]->tx_flushed());
  EXPECT_EQ(n.worker.flushed_completions(), eps[1]->tx_flushed());
  EXPECT_EQ(n.worker.tx_ops_retired(), 48u);
}

TEST(Worker, AddCoreWorkersPollOnlyTheirOwnCq) {
  Testbed tb(scenario::presets::deterministic());
  auto& wc1 = tb.add_core(0);
  auto& wc2 = tb.add_core(0);
  const auto& e1 = tb.add_endpoint(wc1, 0);
  tb.add_endpoint(wc2, 0);
  // The NIC's CQE write for worker 1's QP, committed at time zero.
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.bytes = 64;
  tlp.content = pcie::CqeWrite{e1.config().qp, 1, 1};
  tb.node(0).host.commit_write(tlp, TimePs::zero());
  EXPECT_EQ(wc1.worker.tx_cq().depth(), 1u);
  EXPECT_EQ(wc2.worker.tx_cq().depth(), 0u);

  const TimePs pass = wc2.core.costs().llp_empty_progress.mean();
  std::uint64_t passes1 = 99;
  std::uint64_t passes2 = 0;
  TimePs at1;
  TimePs at2;
  tb.sim().spawn(idle_once(wc1.worker, passes1, at1));
  tb.sim().spawn(idle_once(wc2.worker, passes2, at2, pass * 3 + pass / 2));
  tb.sim().run();
  EXPECT_EQ(passes1, 0u);  // ready at once
  EXPECT_EQ(passes2, 4u);  // idle until its deadline
  EXPECT_EQ(wc1.core.busy_time(), TimePs::zero());
}

}  // namespace
}  // namespace bb::llp
