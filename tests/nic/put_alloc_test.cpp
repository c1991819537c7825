// A steady stream of PIO put_short ops allocates nothing: every per-put
// queue on the path (the RC's and the NIC's PCIe credit gates, the NIC's
// unacknowledged-packet window, the TX CQ ring) is a common::Ring that
// stops growing once warm.
//
// This binary links the counting global `operator new`/`delete` hooks
// (tests/support/alloc_counter.hpp); it is kept separate from `test_nic`
// so the hooks cannot perturb other tests.

#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_counter.hpp"
#include "scenario/testbed.hpp"

namespace bb::nic {
namespace {

// The warm-up also covers the simulator's timer heap reaching its
// high-water mark: its last growth on this machine comes between puts
// 2000 and 3000, and 100000 puts after that allocate nothing.
constexpr int kWarmup = 5000;
constexpr int kPuts = 20000;

TEST(PutAlloc, SteadyStatePioPutShortsAllocateNothing) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  // The analyzer's trace grows by design; nothing else may.
  tb.analyzer().set_enabled(false);
  llp::Endpoint& ep = tb.add_endpoint(0);
  ASSERT_TRUE(ep.config().use_pio);
  std::uint64_t warm = 0, done = 0;
  tb.sim().spawn([](scenario::Testbed& t, llp::Endpoint& e,
                    std::uint64_t& w, std::uint64_t& d) -> sim::Task<void> {
    for (int i = 0; i < kWarmup + kPuts; ++i) {
      if (i == kWarmup) w = support::heap_allocs();
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await t.node(0).worker.progress();
      }
    }
    d = support::heap_allocs();
    while (e.outstanding() > 0) co_await t.node(0).worker.progress();
  }(tb, ep, warm, done));
  tb.sim().run();
  EXPECT_EQ(ep.posted(), static_cast<std::uint64_t>(kWarmup + kPuts));
  EXPECT_EQ(done - warm, 0u) << "heap allocations over " << kPuts << " puts";
}

}  // namespace
}  // namespace bb::nic
