// Parameterized sweeps: the models must track the simulator across
// message sizes and topologies, not just the paper's 8-byte / one-switch
// point.

#include <gtest/gtest.h>

#include "benchlib/am_lat.hpp"
#include "core/models.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

// --- Message-size sweep ----------------------------------------------------

class SizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SizeSweep, LatencyModelTracksInlineSizes) {
  const std::uint32_t bytes = GetParam();
  auto cfg = scenario::presets::deterministic();
  scenario::Testbed tb(cfg);
  bench::AmLatBenchmark bench(tb, {.iterations = 100,
                                   .warmup = 10,
                                   .bytes = bytes,
                                   .speed_factor = 1.0,
                                   .capture_trace = false});
  const double observed = bench.run().adjusted_mean_ns;

  // Extend the §4.3 model to x bytes: extra PIO chunks on the post side,
  // RC-to-MEM(x) on the target side.
  auto table = core::ComponentTable::from_config(cfg);
  const std::uint32_t chunks =
      (cfg.endpoint.md_overhead_bytes + bytes + 63) / 64;
  const double model =
      core::LatencyModel(table).llp_latency_ns() +
      (chunks - 1) * table.pio_copy +
      (cfg.rc.rc_to_mem(bytes).to_ns() - table.rc_to_mem_8b);

  // The simulator adds NIC processing + serialization the model omits;
  // the gap stays small and positive across the inline range.
  EXPECT_GT(observed, model) << bytes << " bytes";
  EXPECT_LT(observed - model, 140.0) << bytes << " bytes";
}

INSTANTIATE_TEST_SUITE_P(InlineSizes, SizeSweep,
                         ::testing::Values(8u, 16u, 32u, 64u, 96u, 128u,
                                           160u));

// --- Switch-count sweep ------------------------------------------------------

class SwitchSweep : public ::testing::TestWithParam<int> {};

TEST_P(SwitchSweep, LatencyAffineInHops) {
  const int hops = GetParam();
  auto cfg = scenario::presets::deterministic();
  cfg.net.num_switches = hops;
  scenario::Testbed tb(cfg);
  bench::AmLatBenchmark bench(tb, {.iterations = 100,
                                   .warmup = 10,
                                   .speed_factor = 1.0,
                                   .capture_trace = false});
  const double observed = bench.run().adjusted_mean_ns;

  auto base_cfg = scenario::presets::deterministic();
  base_cfg.net.num_switches = 0;
  scenario::Testbed tb0(base_cfg);
  bench::AmLatBenchmark bench0(tb0, {.iterations = 100,
                                     .warmup = 10,
                                     .speed_factor = 1.0,
                                     .capture_trace = false});
  const double direct = bench0.run().adjusted_mean_ns;

  EXPECT_NEAR(observed - direct, hops * 108.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Hops, SwitchSweep, ::testing::Values(0, 1, 2, 4));

// --- Moderation-period sweep -------------------------------------------------

class PeriodSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PeriodSweep, CqeCountMatchesPolicyExactly) {
  const std::uint32_t period = GetParam();
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.signal_period = period;
  scenario::Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  const std::uint32_t msgs = period * 5;  // aligned: no flush needed
  tb.sim().spawn([](scenario::Testbed& t, llp::Endpoint& e,
                    std::uint32_t n) -> sim::Task<void> {
    for (std::uint32_t i = 0; i < n; ++i) {
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await t.node(0).worker.progress();
      }
    }
    while (e.outstanding() > 0) co_await t.node(0).worker.progress();
  }(tb, ep, msgs));
  tb.sim().run();
  EXPECT_EQ(tb.node(0).nic.cqes_written(), 5u);
  EXPECT_EQ(tb.node(0).worker.tx_ops_retired(), msgs);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweep,
                         ::testing::Values(1u, 2u, 8u, 16u, 64u, 128u));

}  // namespace
}  // namespace bb
