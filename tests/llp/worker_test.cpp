#include "llp/worker.hpp"

#include <gtest/gtest.h>

#include <tuple>

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
  tb.node(0).host.tx_cq(ep.config().qp).push(nic::Cqe{1, 1, 0, 0, 0_ns});
  tb.node(0).host.tx_cq(ep.config().qp).push(nic::Cqe{2, 1, 0, 0, 0_ns});
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
    tb.node(0).host.tx_cq(ep.config().qp).push(
        nic::Cqe{static_cast<std::uint64_t>(i + 1), 1, 0, 0, 0_ns});
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
  tb.node(0).host.tx_cq(ep.config().qp).push(nic::Cqe{1, 1, 0, 0, 10_us});
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
  auto& second = tb.add_endpoint(0);
  tb.node(0).host.tx_cq(second.config().qp).push(nic::Cqe{1, 1, 0, 0, 0_ns});
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

}  // namespace
}  // namespace bb::llp
