// Parked waiters (docs/SIM_ENGINE.md, "Parked waiters"): the idle passes
// of llp::Worker::idle run inline off the event queue, yet every logical
// event keeps its (time, seq), its RNG draws and its place in
// events_processed(). The expected numbers were recorded from the same
// bodies with every pass a queued callback event.
//
// This binary links the counting global `operator new` hooks
// (tests/support/alloc_counter.hpp) for the steady-state allocation check.

#include <gtest/gtest.h>

#include <tuple>

#include "alloc_counter.hpp"
#include "llp/worker.hpp"
#include "scenario/testbed.hpp"

namespace bb::llp {
namespace {

using scenario::Testbed;
using namespace bb::literals;

sim::Task<void> idle_wait(Worker& w, const cpu::CostSpec* upper,
                          std::uint64_t& passes, TimePs& at) {
  passes = co_await w.idle(upper);
  at = w.core().virtual_now();
}

// An RC commit of one RX CQE on node 0 at `t`.
void commit_at(Testbed& tb, TimePs t) {
  Testbed::Node& n = tb.node(0);
  tb.sim().call_at(t, [&n, t] {
    n.host.rx_cq().push(nic::Cqe{7, 1, 0, 0, t});
  });
}

const cpu::CostSpec* ucp_pass(Testbed& tb) {
  return &tb.node(0).core.costs().ucp_progress_iter;
}

TEST(ParkedWaiter, EventLimitFiresAtTheSameLogicalEvent) {
  Testbed tb(scenario::presets::thunderx2_cx4());
  tb.add_endpoint(0);
  commit_at(tb, 1_ms);
  std::uint64_t passes = 0;
  TimePs at;
  tb.sim().set_event_limit(500);
  tb.sim().spawn(idle_wait(tb.node(0).worker, ucp_pass(tb), passes, at));
  EXPECT_THROW(tb.sim().run(), sim::EventLimitError);
  EXPECT_EQ(tb.sim().events_processed(), 501u);
  EXPECT_EQ(tb.sim().now().ps(), 14422881);
  EXPECT_EQ(tb.node(0).core.busy_time().ps(), 14422881);
}

TEST(ParkedWaiter, RunUntilStopsMidParkWithTheSameState) {
  Testbed tb(scenario::presets::thunderx2_cx4());
  tb.add_endpoint(0);
  Testbed::Node& n = tb.node(0);
  commit_at(tb, TimePs::from_ns(7000.0));
  std::uint64_t passes = 0;
  TimePs at;
  tb.sim().spawn(idle_wait(n.worker, ucp_pass(tb), passes, at));
  tb.sim().run_until(TimePs::from_ns(5000.3));
  EXPECT_EQ(tb.sim().events_processed(), 176u);
  EXPECT_EQ(tb.sim().now().ps(), 5000300);
  EXPECT_EQ(n.core.busy_time().ps(), 5029843);
  EXPECT_FALSE(tb.sim().idle());  // the waiter is still parked

  tb.sim().run();
  EXPECT_EQ(tb.sim().events_processed(), 247u);
  EXPECT_EQ(passes, 245u);
  EXPECT_EQ(at.ps(), 7012130);
  EXPECT_EQ(tb.sim().now().ps(), 7012130);
}

TEST(ParkedWaiter, RunUntilLeavesTheRngWhereQueuedPassesLeftIt) {
  Testbed tb(scenario::presets::thunderx2_cx4());
  tb.add_endpoint(0);
  commit_at(tb, TimePs::from_ns(7000.0));
  std::uint64_t passes = 0;
  TimePs at;
  tb.sim().spawn(idle_wait(tb.node(0).worker, ucp_pass(tb), passes, at));
  tb.sim().run_until(TimePs::from_ns(5000.3));
  EXPECT_EQ(tb.node(0).core.rng().next_u64(), 705078340072202764u);
}

// With jitter-free costs a pass boundary can land on the very picosecond
// of a CQ commit; (time, seq) decides, as for any two events.
TEST(ParkedWaiter, SamePicosecondTieWithACommitKeepsTheSeqOrder) {
  const auto run = [](bool commit_scheduled_late) {
    Testbed tb(scenario::presets::deterministic());
    tb.add_endpoint(0);
    const TimePs pass = tb.node(0).core.costs().llp_empty_progress.mean();
    if (commit_scheduled_late) {
      // Scheduled after the 10th boundary parked: that boundary's seq is
      // smaller, so its pass runs first and finds the CQ still empty.
      tb.sim().call_at(pass * 9 + pass / 2,
                       [&tb, pass] { commit_at(tb, pass * 10); });
    } else {
      // Scheduled before any boundary: the commit runs first.
      commit_at(tb, pass * 10);
    }
    std::uint64_t passes = 0;
    TimePs at;
    tb.sim().spawn(idle_wait(tb.node(0).worker, nullptr, passes, at));
    tb.sim().run();
    EXPECT_EQ(pass.ps(), 18000);
    return std::tuple{passes, at.ps(), tb.sim().events_processed()};
  };
  EXPECT_EQ(run(false), (std::tuple{std::uint64_t{10}, std::int64_t{180000},
                                    std::uint64_t{12}}));
  EXPECT_EQ(run(true), (std::tuple{std::uint64_t{11}, std::int64_t{198000},
                                   std::uint64_t{14}}));
}

TEST(ParkedWaiter, SteadyStatePassesAllocateNothing) {
  Testbed tb(scenario::presets::thunderx2_cx4());
  tb.add_endpoint(0);
  commit_at(tb, 200_us);
  std::uint64_t passes = 0;
  TimePs at;
  tb.sim().spawn(idle_wait(tb.node(0).worker, ucp_pass(tb), passes, at));
  tb.sim().run_until(20_us);
  const std::uint64_t allocs = support::heap_allocs();
  const std::uint64_t events = tb.sim().events_processed();
  const std::uint64_t dispatched = tb.sim().events_dispatched();
  tb.sim().run_until(150_us);
  EXPECT_EQ(support::heap_allocs(), allocs) << "a parked pass allocated";
  EXPECT_GT(tb.sim().events_processed(), events + 4000);
  EXPECT_EQ(tb.sim().events_dispatched(), dispatched);
}

// A UCP-style wait loop: idle passes, then one real progress pass.
sim::Task<void> spin_until_completion(Testbed::Node& n,
                                      std::uint64_t& idle_passes) {
  const cpu::CostSpec& upper = n.core.costs().ucp_progress_iter;
  for (;;) {
    idle_passes += co_await n.worker.idle(&upper);
    n.core.consume(upper);
    if (co_await n.worker.progress() > 0) break;
  }
}

TEST(ParkedWaiter, DispatchedPlusInlinePassesIsTheLogicalCount) {
  Testbed tb(scenario::presets::thunderx2_cx4());
  tb.add_endpoint(0);
  commit_at(tb, TimePs::from_ns(2345.6));
  std::uint64_t idle_passes = 0;
  tb.sim().spawn(spin_until_completion(tb.node(0), idle_passes));
  tb.sim().run();
  EXPECT_EQ(tb.sim().events_processed(), 86u);
  EXPECT_EQ(idle_passes, 83u);
  EXPECT_EQ(tb.sim().now().ps(), 2435307);
  EXPECT_EQ(tb.sim().events_dispatched() + idle_passes,
            tb.sim().events_processed());
}

}  // namespace
}  // namespace bb::llp
