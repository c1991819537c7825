// Determinism golden test for the event engine.
//
// Runs the paper's two smallest end-to-end benchmarks (`put_bw`, `am_lat`)
// on the thunderx2_cx4 preset with the default seed and asserts the exact
// event count, final simulated time, and an FNV-1a checksum over every
// field of the analyzer trace. The golden values were captured from the
// `std::priority_queue`-based engine the ready-ring/run/heap dispatcher
// replaced; any reordering of same-timestamp events -- however subtle --
// shifts DLLP interleavings and changes the checksum. Update these
// constants only for a change that is *supposed* to alter simulated
// behavior, never for an engine refactor.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu.hpp"
#include "benchlib/osu_coll.hpp"
#include "benchlib/put_bw.hpp"
#include "coll/coll.hpp"
#include "coll/communicator.hpp"
#include "exec/sweep.hpp"
#include "pcie/trace.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

TEST(DeterminismGolden, PutBwOnThunderx2Cx4) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::PutBwBenchmark b(
      tb, {.messages = 2000, .warmup = 200, .capture_trace = true});
  (void)b.run();
  EXPECT_EQ(tb.sim().events_processed(), 54881u);
  EXPECT_EQ(tb.sim().now().ps(), 623024806);
  EXPECT_EQ(tb.analyzer().trace().size(), 13200u);
  EXPECT_EQ(tb.analyzer().trace().checksum(), 0x4b310291a8770261ull);
}

TEST(DeterminismGolden, AmLatOnThunderx2Cx4) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::AmLatBenchmark b(
      tb, {.iterations = 500, .warmup = 50, .capture_trace = true});
  (void)b.run();
  EXPECT_EQ(tb.sim().events_processed(), 155297u);
  EXPECT_EQ(tb.sim().now().ps(), 1319178710);
  EXPECT_EQ(tb.analyzer().trace().size(), 4950u);
  EXPECT_EQ(tb.analyzer().trace().checksum(), 0x99a7aa2d313a960eull);
}

// Collective determinism: an 8-rank allreduce schedule multiplexes four
// peer endpoints per node over one shared progress engine -- far more
// same-timestamp event pressure than the 2-node benches above. The
// analyzer taps node 0's link (Cluster default).
TEST(DeterminismGolden, AllreduceOnThunderx2Cx4) {
  scenario::Cluster cl(scenario::presets::thunderx2_cx4(), 8);
  cl.analyzer().set_enabled(true);
  coll::World world(cl);
  bench::OsuCollConfig cfg;
  cfg.bytes = 256;
  cfg.iterations = 20;
  cfg.warmup = 5;
  bench::OsuColl b(world, bench::OsuColl::Kind::kAllreduce, cfg);
  (void)b.run();
  EXPECT_EQ(cl.sim().events_processed(), 74200u);
  EXPECT_EQ(cl.sim().now().ps(), 25006013113);
  EXPECT_EQ(cl.analyzer().trace().size(), 1275u);
  EXPECT_EQ(cl.analyzer().trace().checksum(), 0x1c3fe29c0a532d44ull);
}

// Lossy-transport determinism: the wire injector's fault pattern is a
// pure function of (scenario seed, packet order) -- seed-forked off the
// simulation's RNG tree, never the host -- so an 8-rank allreduce under
// nonzero packet loss produces bit-identical traces whether the sweep
// runs serially or sharded across 4 worker threads.
TEST(DeterminismGolden, LossyAllreduceIdenticalSerialVsParallel) {
  auto fingerprint = [](std::uint64_t seed) {
    scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4().with(
        scenario::overlays::wire_loss(1e-2));
    cfg.seed = seed;
    scenario::Cluster cl(cfg, 8);
    cl.analyzer().set_enabled(true);
    coll::World world(cl);
    bench::OsuCollConfig bc;
    bc.bytes = 256;
    bc.iterations = 10;
    bc.warmup = 2;
    bench::OsuColl b(world, bench::OsuColl::Kind::kAllreduce, bc);
    (void)b.run();
    return std::tuple{cl.sim().events_processed(), cl.sim().now().ps(),
                      cl.analyzer().trace().checksum(),
                      cl.net_stats().packets_dropped};
  };
  const auto sw = exec::sweep(std::vector<int>{0, 1, 2, 3}, 42);
  const auto job = [&](const int&, exec::Job& j) {
    return fingerprint(j.seed());
  };
  auto serial = exec::run_sweep(sw, job, {.jobs = 1});
  auto parallel = exec::run_sweep(sw, job, {.jobs = 4});
  ASSERT_EQ(serial.values.size(), parallel.values.size());
  std::uint64_t total_dropped = 0;
  for (std::size_t i = 0; i < serial.values.size(); ++i) {
    EXPECT_EQ(serial.values[i], parallel.values[i]) << "grid point " << i;
    total_dropped += std::get<3>(serial.values[i]);
  }
  // The loss rate was live: this golden exercises the recovery machinery,
  // not an idle injector.
  EXPECT_GT(total_dropped, 0u);
}

// Blocking-wait goldens. Nearly every event of a blocking MPI or
// collective wait is an empty progress pass, so these pin the exact
// event count, end time, per-core CPU time and analyzer trace of the
// wait loops in MpiComm and coll::Communicator, on the idle path and on
// the profiled fallback. Their values were recorded while every empty
// pass still ran as a full coroutine progress pass.

// Blocking MPI ping-pong over scenario::MpiStack (osu_latency's loop).
sim::Task<void> ping(scenario::MpiStack& s, int iters) {
  for (int i = 0; i < iters; ++i) {
    hlp::Request* rr = s.mpi().irecv(8).value();
    (void)co_await s.mpi().isend(8);
    EXPECT_EQ(co_await s.mpi().wait(rr), common::Status::kOk);
  }
}

sim::Task<void> pong(scenario::MpiStack& s, int iters) {
  for (int i = 0; i < iters; ++i) {
    hlp::Request* rr = s.mpi().irecv(8).value();
    EXPECT_EQ(co_await s.mpi().wait(rr), common::Status::kOk);
    (void)co_await s.mpi().isend(8);
  }
  co_await s.node().core.flush();
}

// Runs the ping-pong; `profiled` selects ucp_worker_progress on both
// nodes, so every pass of the wait loops is a measured region.
void run_pingpong(scenario::Testbed& tb, bool profiled) {
  scenario::MpiStack a(tb, 0);
  scenario::MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(400);
  tb.node(1).nic.post_receives(400);
  for (int n = 0; n < 2; ++n) {
    tb.node(n).profiler.set_enabled(profiled);
    tb.node(n).profiler.select({prof::Point::kUcpWorkerProgress});
  }
  tb.analyzer().set_enabled(true);
  tb.sim().spawn(ping(a, 300), "ping");
  tb.sim().spawn(pong(b, 300), "pong");
  tb.sim().run();
}

TEST(DeterminismGolden, MpiPingPongOnThunderx2Cx4) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  run_pingpong(tb, /*profiled=*/false);
  EXPECT_EQ(tb.sim().events_processed(), 57430u);
  EXPECT_EQ(tb.sim().now().ps(), 872804911);
  EXPECT_EQ(tb.node(0).core.busy_time().ps(), 872804911);
  EXPECT_EQ(tb.node(1).core.busy_time().ps(), 871596094);
  EXPECT_EQ(tb.analyzer().trace().size(), 1812u);
  EXPECT_EQ(tb.analyzer().trace().checksum(), 0x99b944e2a794e80full);
}

// The same ping-pong with ucp_worker_progress profiled: every pass runs
// the full progress path (the Table 1 methodology).
TEST(DeterminismGolden, ProfiledMpiPingPongOnThunderx2Cx4) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  run_pingpong(tb, /*profiled=*/true);
  EXPECT_EQ(tb.sim().events_processed(), 29834u);
  EXPECT_EQ(tb.sim().now().ps(), 932936275);
  EXPECT_EQ(tb.node(0).core.busy_time().ps(), 932936275);
  EXPECT_EQ(tb.node(1).core.busy_time().ps(), 931600139);
  EXPECT_EQ(tb.analyzer().trace().size(), 1812u);
  EXPECT_EQ(tb.analyzer().trace().checksum(), 0x3b1fe0942086b562ull);
  EXPECT_EQ(tb.node(0).profiler.samples(prof::Point::kUcpWorkerProgress).size(),
            9201u);
}

// MpiComm::waitall over osu_mbw_mr-style windows of 64 sends.
TEST(DeterminismGolden, MpiWaitallWindowsOnThunderx2Cx4) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::OsuMessageRate b(tb, {.windows = 20,
                               .window_size = 64,
                               .warmup_windows = 2,
                               .capture_trace = true});
  (void)b.run();
  EXPECT_EQ(tb.sim().events_processed(), 25509u);
  EXPECT_EQ(tb.sim().now().ps(), 370930172);
  EXPECT_EQ(tb.node(0).core.busy_time().ps(), 370930172);
  EXPECT_EQ(tb.node(1).core.busy_time().ps(), 0);
  EXPECT_EQ(tb.analyzer().trace().size(), 4290u);
  EXPECT_EQ(tb.analyzer().trace().checksum(), 0x37c8fa8136be1f57ull);
}

// Lossy collective traffic, then waits no peer will ever satisfy: rank 0
// blocks in Communicator::wait, rank 1 in Communicator::waitall, and both
// watchdogs fire. Pins the simulated core time each kTimedOut return
// lands on.
sim::Task<void> exchange_then_hang(coll::Communicator& c, int rounds,
                                   bool use_waitall, common::Status& out,
                                   TimePs& at) {
  const int peer = 1 - c.rank();
  for (int i = 0; i < rounds; ++i) {
    hlp::Request* rr = c.irecv(peer, 64);
    (void)co_await c.isend(peer, 64);
    EXPECT_EQ(co_await c.wait(rr), common::Status::kOk);
    (void)c.take_data(peer);
  }
  if (use_waitall) {
    std::vector<hlp::Request*> reqs = {c.irecv(peer, 8), c.irecv(peer, 8)};
    out = co_await c.waitall(reqs);
  } else {
    out = co_await c.wait(c.irecv(peer, 8));
  }
  at = c.core().virtual_now();
}

TEST(DeterminismGolden, LossyCollWaitTimeoutOnThunderx2Cx4) {
  coll::CollTuning t;
  t.wait_timeout_us = 200.0;
  scenario::Cluster cl(scenario::presets::thunderx2_cx4().with(
                           scenario::overlays::wire_loss(5e-2),
                           scenario::overlays::coll_tuning(t)),
                       2);
  cl.analyzer().set_enabled(true);
  coll::World world(cl);
  common::Status st0 = common::Status::kOk, st1 = common::Status::kOk;
  TimePs at0, at1;
  cl.sim().spawn(exchange_then_hang(world.comm(0), 100, false, st0, at0));
  cl.sim().spawn(exchange_then_hang(world.comm(1), 100, true, st1, at1));
  cl.sim().run();
  EXPECT_EQ(st0, common::Status::kTimedOut);
  EXPECT_EQ(st1, common::Status::kTimedOut);
  EXPECT_GT(cl.net_stats().packets_dropped, 0u);
  EXPECT_EQ(at0.ps(), 403692999);
  EXPECT_EQ(at1.ps(), 404443679);
  EXPECT_EQ(cl.sim().events_processed(), 26589u);
  EXPECT_EQ(cl.sim().now().ps(), 404443679);
  EXPECT_EQ(cl.node(0).core.busy_time().ps(), 403692999);
  EXPECT_EQ(cl.node(1).core.busy_time().ps(), 404443679);
  EXPECT_EQ(cl.analyzer().trace().size(), 603u);
  EXPECT_EQ(cl.analyzer().trace().checksum(), 0xb37c0127d6dfd3d3ull);
}

// Goldens on `deterministic`, the preset without cost jitter. Every
// golden above runs on jittered thunderx2_cx4; these pin the multi-rank
// idle waits where every pass costs the same (docs/SIM_ENGINE.md,
// "Gap merge"), recorded while every empty pass ran one by one.

// FNV-1a over the bit patterns of `v`, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<double>& v) {
  for (double d : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

sim::Task<void> barrier_allreduce(coll::Communicator& c, int iters,
                                  std::vector<double>& v, TimePs& end) {
  for (int it = 0; it < iters; ++it) {
    co_await coll::barrier(c);
    co_await coll::allreduce(c, 2048, v, coll::ReduceOp::kSum,
                             coll::Algo::kRecursiveDoubling);
  }
  end = c.core().virtual_now();
}

// 16 ranks: barrier, then a 2 KiB recursive-doubling allreduce, three
// times (perfbench coll_allreduce's iteration).
TEST(DeterminismGolden, CollOnDeterministic) {
  constexpr int kRanks = 16;
  scenario::Cluster cl(scenario::presets::deterministic(), kRanks);
  coll::World world(cl);
  std::vector<std::vector<double>> data(kRanks, std::vector<double>(256));
  std::vector<TimePs> end(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < 256; ++i) {
      data[r][i] = static_cast<double>((r * 31 + static_cast<int>(i) * 7) %
                                       101);
    }
    cl.sim().spawn(barrier_allreduce(world.comm(r), 3, data[r], end[r]));
  }
  cl.sim().run();
  std::vector<std::int64_t> end_ps, busy_ps;
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (int r = 0; r < kRanks; ++r) {
    end_ps.push_back(end[r].ps());
    busy_ps.push_back(cl.node(r).core.busy_time().ps());
    hash = fnv1a(hash, data[r]);
  }
  // The preset has no jitter and the schedule is symmetric, so every
  // rank finishes at the same picosecond.
  const std::vector<std::int64_t> kEnd(kRanks, 65560320);
  EXPECT_EQ(cl.sim().events_processed(), 43600u);
  EXPECT_EQ(cl.sim().now().ps(), 66487370);
  EXPECT_EQ(end_ps, kEnd);
  EXPECT_EQ(busy_ps, kEnd);
  EXPECT_EQ(hash, 0xe96e14d3ef7b29a5ull);
}

// Ranks 1-3 pass a ring exchange around while rank 0 waits for a message
// that never comes; its watchdog deadline falls while the others' waits
// sit parked between two queued events. Then each of ranks 1-3 waits
// for a message that never comes too (rank 1 in waitall), so the last
// deadlines fall with nothing queued at all.
sim::Task<void> ring_then_hang(coll::Communicator& c, int rounds,
                               common::Status& out, TimePs& at) {
  const int n = c.size();
  if (c.rank() != 0) {
    const int right = c.rank() % (n - 1) + 1;
    const int left = (c.rank() + n - 3) % (n - 1) + 1;
    for (int i = 0; i < rounds; ++i) {
      std::vector<hlp::Request*> reqs = {c.irecv(left, 64)};
      reqs.push_back(co_await c.isend(right, 64));
      EXPECT_EQ(co_await c.waitall(reqs), common::Status::kOk);
      (void)c.take_data(left);
    }
  }
  if (c.rank() == 1) {
    std::vector<hlp::Request*> reqs = {c.irecv(0, 8), c.irecv(2, 8)};
    out = co_await c.waitall(reqs);
  } else {
    out = co_await c.wait(c.irecv(c.rank() == 0 ? 1 : 0, 8));
  }
  at = c.core().virtual_now();
}

TEST(DeterminismGolden, CollWaitTimeoutOnDeterministic) {
  constexpr int kRanks = 4;
  coll::CollTuning t;
  t.wait_timeout_us = 40.0;
  scenario::Cluster cl(scenario::presets::deterministic().with(
                           scenario::overlays::coll_tuning(t)),
                       kRanks);
  coll::World world(cl);
  std::vector<common::Status> st(kRanks, common::Status::kOk);
  std::vector<TimePs> at(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    cl.sim().spawn(ring_then_hang(world.comm(r), 30, st[r], at[r]));
  }
  cl.sim().run();
  std::vector<std::int64_t> at_ps, busy_ps;
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(st[r], common::Status::kTimedOut) << "rank " << r;
    at_ps.push_back(at[r].ps());
    busy_ps.push_back(cl.node(r).core.busy_time().ps());
  }
  EXPECT_EQ(cl.sim().events_processed(), 9986u);
  EXPECT_EQ(cl.sim().now().ps(), 87064170);
  EXPECT_EQ(at_ps, (std::vector<std::int64_t>{40253670, 86997850, 87064170,
                                              87064170}));
  EXPECT_EQ(busy_ps, (std::vector<std::int64_t>{40253670, 86997850, 87064170,
                                                87064170}));
}

// Two runs with the same seed must agree event-for-event, independent of
// the golden constants above (guards nondeterminism that happens to
// change both runs identically within a process but not across hosts).
TEST(DeterminismGolden, BackToBackRunsAreIdentical) {
  auto run_once = [] {
    scenario::Testbed tb(scenario::presets::thunderx2_cx4());
    bench::PutBwBenchmark b(
        tb, {.messages = 500, .warmup = 50, .capture_trace = true});
    (void)b.run();
    return std::tuple{tb.sim().events_processed(), tb.sim().now().ps(),
                      tb.analyzer().trace().checksum()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace bb
