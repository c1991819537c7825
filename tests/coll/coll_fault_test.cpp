// Collectives over a lossy fabric (docs/TRANSPORT.md): the NIC's RC
// transport recovers drops underneath the schedule, so reductions stay
// exact; the CollTuning wait watchdog converts what would be a hang into
// a diagnosable kTimedOut.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "benchlib/osu_coll.hpp"
#include "coll/coll.hpp"
#include "scenario/testbed.hpp"

namespace bb::coll {
namespace {

std::unique_ptr<scenario::Cluster> make_lossy_cluster(int n, double loss) {
  return std::make_unique<scenario::Cluster>(
      scenario::presets::deterministic().with(
          scenario::overlays::wire_loss(loss)),
      n);
}

void check_allreduce_lossy(int n, std::uint32_t bytes, Algo a, double loss,
                           bool expect_drops) {
  auto cl = make_lossy_cluster(n, loss);
  World world(*cl);
  const std::uint32_t elems = bytes / 8;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    cl->sim().spawn([](Communicator& c, std::uint32_t b, std::uint32_t e,
                       Algo algo, std::vector<double>& out) -> sim::Task<void> {
      std::vector<double> v(e);
      for (std::uint32_t i = 0; i < e; ++i) {
        v[i] = static_cast<double>((c.rank() + 1) * (static_cast<int>(i) + 1));
      }
      EXPECT_EQ(co_await allreduce(c, b, v, ReduceOp::kSum, algo),
                common::Status::kOk);
      out = std::move(v);
    }(world.comm(r), bytes, elems, a, got[static_cast<std::size_t>(r)]));
  }
  cl->sim().run();

  // Reductions stay exact: the transport hid every loss.
  for (int r = 0; r < n; ++r) {
    const auto& v = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(v.size(), elems) << "rank " << r << " algo=" << algo_name(a);
    for (std::uint32_t i = 0; i < elems; ++i) {
      const double expect =
          static_cast<double>(n * (n + 1) / 2 * (static_cast<int>(i) + 1));
      EXPECT_EQ(v[i], expect)
          << "rank " << r << " elem " << i << " algo=" << algo_name(a);
    }
  }
  const net::TransportStats s = cl->net_stats();
  EXPECT_EQ(s.packets_sent + s.packets_duplicated,
            s.packets_delivered + s.packets_dropped + s.packets_corrupted);
  EXPECT_EQ(s.qp_errors, 0u);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(cl->node(i).nic.tx_unacked(), 0u) << "node " << i;
  }
  if (expect_drops) {
    EXPECT_GT(s.packets_dropped, 0u);
    EXPECT_GE(s.retransmits, s.packets_dropped);
  }
}

TEST(CollFault, AllreduceExactUnderMildWireLoss) {
  // The acceptance rate of the issue: loss 1e-3, both algorithms, no
  // hangs, exact results.
  check_allreduce_lossy(8, 256, Algo::kRecursiveDoubling, 1e-3,
                        /*expect_drops=*/false);
  check_allreduce_lossy(8, 2048, Algo::kRingAllreduce, 1e-3,
                        /*expect_drops=*/false);
}

TEST(CollFault, AllreduceExactUnderHeavyWireLoss) {
  // 1% loss guarantees the recovery machinery actually ran (seeded, so
  // the drop count is deterministic and nonzero).
  check_allreduce_lossy(8, 2048, Algo::kRingAllreduce, 1e-2,
                        /*expect_drops=*/true);
}

TEST(CollFault, WaitWatchdogTurnsAHangIntoTimedOut) {
  // Rank 0 waits on a receive no one will ever send. Without the
  // watchdog this spins forever; with it the wait aborts with a
  // diagnosable status and the simulation drains.
  coll::CollTuning t;
  t.wait_timeout_us = 50.0;  // short watchdog to keep the test cheap
  auto cl = std::make_unique<scenario::Cluster>(
      scenario::presets::deterministic().with(
          scenario::overlays::coll_tuning(t)),
      2);
  World world(*cl);
  common::Status st = common::Status::kOk;
  cl->sim().spawn([](Communicator& c, common::Status& out) -> sim::Task<void> {
    hlp::Request* r = c.irecv(1, 8);
    out = co_await c.wait(r);
  }(world.comm(0), st));
  cl->sim().run();
  EXPECT_EQ(st, common::Status::kTimedOut);
}

TEST(CollFault, WaitallWatchdogAlsoFires) {
  coll::CollTuning t;
  t.wait_timeout_us = 50.0;
  auto cl = std::make_unique<scenario::Cluster>(
      scenario::presets::deterministic().with(
          scenario::overlays::coll_tuning(t)),
      2);
  World world(*cl);
  common::Status st = common::Status::kOk;
  cl->sim().spawn([](Communicator& c, common::Status& out) -> sim::Task<void> {
    std::vector<hlp::Request*> reqs = {c.irecv(1, 8), c.irecv(1, 8)};
    out = co_await c.waitall(reqs);
  }(world.comm(0), st));
  cl->sim().run();
  EXPECT_EQ(st, common::Status::kTimedOut);
}

// A collective reports a wait whose watchdog fired, and still runs its
// remaining steps. Of two 24 KiB ring allgathers on two ranks, the
// second never completes its exchange on the wire (ROADMAP, the
// large-message bugs), so its waits time out; the payloads ride the
// mailbox regardless.
TEST(CollFault, TimedOutWaitFailsTheCollective) {
  coll::CollTuning t;
  t.wait_timeout_us = 100.0;
  auto cl = std::make_unique<scenario::Cluster>(
      scenario::presets::deterministic().with(
          scenario::overlays::coll_tuning(t)),
      2);
  World world(*cl);
  std::vector<std::vector<common::Status>> st(2);
  std::vector<std::vector<std::vector<double>>> out(2);
  for (int r = 0; r < 2; ++r) {
    cl->sim().spawn([](Communicator& c, std::vector<common::Status>& s,
                       std::vector<std::vector<double>>& o) -> sim::Task<void> {
      std::vector<double> mine(24576 / 8, static_cast<double>(c.rank() + 1));
      for (int i = 0; i < 2; ++i) {
        s.push_back(co_await allgather(c, 24576, mine, o));
      }
    }(world.comm(r), st[static_cast<std::size_t>(r)],
                       out[static_cast<std::size_t>(r)]));
  }
  cl->sim().run();
  const std::vector<common::Status> expect = {common::Status::kOk,
                                              common::Status::kTimedOut};
  EXPECT_EQ(st[0], expect);
  EXPECT_EQ(st[1], expect);
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(out[static_cast<std::size_t>(r)].size(), 2u);
    EXPECT_EQ(out[static_cast<std::size_t>(r)][1 - r][0],
              static_cast<double>(2 - r));
  }
}

// OsuColl turns a failed collective into CollFailedError once the run is
// over (bbsim coll exits 1 on it).
TEST(CollFault, OsuCollReportsAFailedIteration) {
  coll::CollTuning t;
  t.wait_timeout_us = 100.0;
  scenario::Cluster cl(scenario::presets::deterministic().with(
                           scenario::overlays::coll_tuning(t)),
                       2);
  World world(cl);
  bench::OsuColl b(world, bench::OsuColl::Kind::kAllgather,
                   {.iterations = 2, .warmup = 0, .bytes = 24576,
                    .epoch_ns = 1.0e7});
  EXPECT_THROW((void)b.run(), bench::CollFailedError);
}

// A run that fails nothing but outlasts its epoch is the epoch's fault:
// EpochOverrunError, not CollFailedError (bbsim coll exits 2 on it).
TEST(CollFault, OsuCollOverrunOfAHealthyRunIsAnEpochError) {
  scenario::Cluster cl(scenario::presets::deterministic(), 2);
  World world(cl);
  bench::OsuColl b(world, bench::OsuColl::Kind::kBarrier,
                   {.iterations = 2, .warmup = 0, .epoch_ns = 100.0});
  EXPECT_THROW((void)b.run(), bench::EpochOverrunError);
}

}  // namespace
}  // namespace bb::coll
