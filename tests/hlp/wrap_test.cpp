// Profiler wrap points across the HLP stack: the §5 measurement
// methodology's instrumentation hooks, exercised one at a time.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb::hlp {
namespace {

using prof::Point;
using scenario::MpiStack;
using scenario::Testbed;
using namespace bb::literals;

/// One successful-wait cycle: sender fires, receiver idles past arrival,
/// then waits. Returns the profiler mean for `point` on node 1.
double measure_rx_region(Point point) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(8);
  tb.node(1).profiler.select({point});

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await st.mpi().isend(8);
      co_await st.ucp().progress();
      co_await st.node().core.flush();
      co_await st.node().core.simulator().delay(10_us);
    }
  }(tx));
  tb.sim().spawn([](Testbed& t, MpiStack& st) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      Request* r = st.mpi().irecv(8).value();
      co_await st.node().core.flush();
      const TimePs target = TimePs::from_ns(10e3) * i + 5_us;
      if (target > t.sim().now()) co_await t.sim().delay(target - t.sim().now());
      co_await st.mpi().wait(r);
    }
  }(tb, rx));
  tb.sim().run();
  return tb.node(1).profiler.mean_ns(prof::name(point));
}

TEST(HlpWraps, MpiWaitTotalIs505_43) {
  // 208.41 + 10.73 + 61.63 + 139.78 + 47.99 + 36.89.
  EXPECT_NEAR(measure_rx_region(Point::kMpiWait), 505.43, 1e-6);
}

TEST(HlpWraps, UcpProgressIncludesNestedUctPass) {
  // ucp_progress_iter 10.73 + the full UCT pass (LLP_prog 61.63 and both
  // registered callbacks 139.78 + 47.99, which §5 notes execute before
  // uct_worker_progress returns) = 260.13.
  EXPECT_NEAR(measure_rx_region(Point::kUcpWorkerProgress), 260.13, 1e-6);
}

TEST(HlpWraps, UctProgressIncludesCallbackChain) {
  const double uct = measure_rx_region(Point::kUctWorkerProgress);
  // LLP_prog + UCP callback + MPICH callback execute inside the pass.
  EXPECT_NEAR(uct, 61.63 + 139.78 + 47.99, 1e-6);
}

TEST(HlpWraps, SubtractionRecoversPaperLayerTimes) {
  const double wait = measure_rx_region(Point::kMpiWait);
  const double ucp = measure_rx_region(Point::kUcpWorkerProgress);
  const double uct = measure_rx_region(Point::kUctWorkerProgress);
  const double mpich_cb = measure_rx_region(Point::kMpichCallback);
  const double ucp_cb = measure_rx_region(Point::kUcpCallback);

  // §5's arithmetic: MPICH share = wait - ucp + MPICH callback = 293.29;
  // UCP share = ucp - uct + UCP-alone callback... the published 150.51
  // counts the UCP callback excluding the nested MPICH callback.
  EXPECT_NEAR(wait - ucp + mpich_cb, 293.29, 1e-6);
  EXPECT_NEAR(ucp - uct + ucp_cb, 150.51, 1e-6);
}

TEST(HlpWraps, CallbackRegionsMatchTable1) {
  EXPECT_NEAR(measure_rx_region(Point::kMpichCallback), 47.99, 1e-6);
  EXPECT_NEAR(measure_rx_region(Point::kUcpCallback), 139.78, 1e-6);
  EXPECT_NEAR(measure_rx_region(Point::kMpichAfterProgress), 36.89, 1e-6);
}

/// What a send/recv run leaves behind: simulated end time, event count,
/// the analyzer trace, and the region names both profilers recorded.
struct SendRecvRun {
  std::int64_t end_ps = 0;
  std::uint64_t events = 0;
  std::vector<std::tuple<std::int64_t, int, bool, int, int, std::uint32_t,
                         std::uint64_t, std::uint64_t, std::string>>
      trace;
  std::set<std::string> regions;
};

/// Node 0 isends 16 eager messages through a 4-deep TX queue (so posts
/// go busy and UCP retries them), then waitalls; node 1 receives each
/// with MPI_Wait. Together with the descriptor path (`use_pio`) this
/// reaches every instrumentation point. `points` is selected on both
/// nodes' profilers.
SendRecvRun send_recv(prof::PointSet points, bool enabled, bool use_pio) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 4;
  cfg.endpoint.use_pio = use_pio;
  cfg.ucp.signal_period = 4;
  Testbed tb(cfg);
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(64);
  for (int n = 0; n < 2; ++n) {
    tb.node(n).profiler.select(points);
    tb.node(n).profiler.set_enabled(enabled);
  }
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    std::vector<Request*> reqs;
    for (int i = 0; i < 16; ++i) {
      reqs.push_back((co_await st.mpi().isend(8)).value());
    }
    co_await st.mpi().waitall(reqs);
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    for (int i = 0; i < 16; ++i) {
      Request* r = st.mpi().irecv(8).value();
      co_await st.mpi().wait(r);
    }
  }(rx));
  tb.sim().run();

  SendRecvRun out;
  out.end_ps = tb.sim().now().ps();
  out.events = tb.sim().events_processed();
  for (const auto& r : tb.analyzer().trace().records()) {
    out.trace.emplace_back(r.t.ps(), static_cast<int>(r.dir), r.is_dllp,
                           static_cast<int>(r.tlp_type),
                           static_cast<int>(r.dllp_type), r.bytes, r.tag,
                           r.msg_id, r.kind);
  }
  for (int n = 0; n < 2; ++n) {
    const prof::ProfileData data = tb.node(n).profiler.snapshot();
    for (const auto& [name, samples] : data.regions) out.regions.insert(name);
  }
  return out;
}

/// One row per Point, in enum order: the descriptor path that reaches it.
struct PointRow {
  Point point;
  bool use_pio;
};
constexpr PointRow kPointRows[] = {
    {Point::kLlpPost, true},           {Point::kMdSetup, true},
    {Point::kBarrierMd, true},         {Point::kBarrierDbc, true},
    {Point::kPioCopy, true},           {Point::kDoorbellWrite, false},
    {Point::kPostOther, true},         {Point::kBusyPost, true},
    {Point::kLlpProg, true},           {Point::kUctWorkerProgress, true},
    {Point::kUcpWorkerProgress, true}, {Point::kUcpCallback, true},
    {Point::kUcpTagSendNb, true},      {Point::kMpiIsend, true},
    {Point::kMpiWait, true},           {Point::kMpichCallback, true},
    {Point::kMpichAfterProgress, true},
};
static_assert(std::size(kPointRows) == prof::kPointCount,
              "every Point needs a row");

TEST(HlpWraps, EachPointRecordsOnlyItsOwnRegion) {
  for (std::size_t i = 0; i < prof::kPointCount; ++i) {
    const PointRow row = kPointRows[i];
    ASSERT_EQ(static_cast<std::size_t>(row.point), i);
    const SendRecvRun run = send_recv({row.point}, true, row.use_pio);
    EXPECT_EQ(run.regions, std::set<std::string>{prof::name(row.point)})
        << prof::name(row.point);
  }
}

TEST(HlpWraps, NothingSelectedMatchesDisabledProfiler) {
  for (const bool use_pio : {true, false}) {
    const SendRecvRun none = send_recv({}, true, use_pio);
    EXPECT_TRUE(none.regions.empty());
    EXPECT_FALSE(none.trace.empty());
    for (const PointRow& row : kPointRows) {
      const SendRecvRun off = send_recv({row.point}, false, use_pio);
      EXPECT_TRUE(off.regions.empty()) << prof::name(row.point);
      EXPECT_EQ(none.end_ps, off.end_ps) << prof::name(row.point);
      EXPECT_EQ(none.events, off.events) << prof::name(row.point);
      EXPECT_EQ(none.trace, off.trace) << prof::name(row.point);
    }
  }
}

}  // namespace
}  // namespace bb::hlp
